// Machine-speed reference for the host-time metrics.
//
// On a shared machine the same simulation can take 1.8x longer from one
// minute to the next. The benchmark times a fixed reference kernel between
// repeats and scales each repeat's host times by (kReferenceMs / the
// kernel's time around that repeat), so a host metric reads as nanoseconds
// on a machine where the kernel takes kReferenceMs. The kernel is the
// benchmark's own code: it calls nothing in the simulator and allocates
// nothing, so a change to the simulator or its allocator cannot move it.

#ifndef ESCORTBENCH_CALIBRATION_H_
#define ESCORTBENCH_CALIBRATION_H_

namespace escortbench {

// Reference time of the kernel, in milliseconds.
inline constexpr double kReferenceMs = 10.0;

// Runs the reference kernel once and returns its wall time in milliseconds.
double TimeReferenceKernel();

}  // namespace escortbench

#endif  // ESCORTBENCH_CALIBRATION_H_

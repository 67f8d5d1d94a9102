// The traced run: the same testbed RunExperiment builds, assembled here
// from the simulator's public classes on a queue that wraps every callback
// in a host-time span. Spans are attributed by the stream that executes
// them: stream 0 is the server (kernel, path, net, fs and server code run
// there together), every other stream is a simulated client or attacker,
// sequenced wire transactions are the shared link, and the benchmark's own
// metrics/health sampler is tagged separately.

#ifndef ESCORTBENCH_TRACED_RUN_H_
#define ESCORTBENCH_TRACED_RUN_H_

#include <cstdint>
#include <string>

#include "src/sim/metrics.h"
#include "src/workload/experiment.h"

namespace escortbench {

enum SpanLayer : uint8_t { kServer, kWorkload, kLink, kSampler, kSpanLayers };

const char* SpanLayerName(SpanLayer layer);

// Host nanoseconds of one traced run.
//
// Every part is timed on its own: queue self time is the host time inside
// RunUntil before the first callback span, between spans and after the
// last one, not RunUntil time minus the spans. The tracer's own cost per
// span is calibrated on empty callbacks before the run and taken out of
// the part it lands in: `span_cost_in_ns` is what an empty span records as
// its self time, `span_cost_out_ns` the rest of what wrapping adds to a
// callback (the wrapper's call and the bookkeeping outside the span's two
// clock reads). Tracer cost that the calibration does not capture, such as
// the cache misses of a cold wrapper, stays in the part it falls in.
struct LayerTimes {
  double wall_ns = 0;   // one interval around the whole run
  double setup_ns = 0;  // testbed build + result collection + teardown
  double run_ns = 0;    // inside RunUntil (warm-up + window)
  double queue_gap_ns = 0;           // RunUntil time outside every span
  double self_ns[kSpanLayers] = {};  // span self time, by layer
  uint64_t spans[kSpanLayers] = {};  // span count, by layer
  uint64_t nested_spans = 0;         // spans that opened inside another span
  double span_cost_in_ns = 0;
  double span_cost_out_ns = 0;

  uint64_t total_spans() const;
  // Calibrated tracer cost of every span.
  double tracer_ns() const;
  // Host time of one layer's callbacks, tracer cost taken out.
  double layer_ns(SpanLayer layer) const;
  // Host time of the queue itself, tracer cost taken out.
  double queue_self_ns() const;
  // |wall - (setup + queue gaps + span self times)| / wall. Off by more
  // than a little when spans are counted twice, run outside RunUntil, or
  // their self times do not add up to the time they cover.
  double sum_error() const;
};

struct TracedRun {
  escort::ExperimentResult result;
  LayerTimes times;
  // Charged + unsettled - elapsed window cycles, from the kernel itself:
  // zero when the ledger conserves exactly (the auditor's rule).
  int64_t conservation_drift = 0;
};

// Runs `spec` (which must use one shard and no tracer) on the traced
// testbed, with `registry` as the metrics sink. When `span_csv` is not
// empty, every span is written there as "layer,start_ns,dur_ns" after the
// run.
TracedRun RunTraced(const escort::ExperimentSpec& spec, escort::MetricsRegistry* registry,
                    const std::string& span_csv);

}  // namespace escortbench

#endif  // ESCORTBENCH_TRACED_RUN_H_

// Isolated timings: one public function per layer, called in a loop with
// the input shape of the workload being measured.

#ifndef ESCORTBENCH_ISOLATED_H_
#define ESCORTBENCH_ISOLATED_H_

#include "escortbench/workloads.h"

namespace escortbench {

struct IsolatedTimes {
  // ChecksumPartial over one segment of the workload's document size
  // (payload capped at one 1460-byte MSS, plus a 20-byte TCP header).
  double checksum_ns_per_kb = 0;
  // ProportionalShareScheduler Dequeue + AccountRun + Enqueue with one ready
  // thread per simulated client, attacker and QoS stream, capped at 256.
  double sched_ns_per_op = 0;
  // PathManager::DemuxAndDeliver with the server's connection table
  // filled to the workload's live-connection count by handshakes from the
  // workload's client addresses. The frame is the workload's dominant one:
  // a SYN from the untrusted subnet under a SYN flood, otherwise a segment
  // for one of the known connections.
  double demux_ns_per_frame = 0;
};

// Each timing is the median of several batches. `live_conns` is the
// workload's peak count of server connections (its PCB high-water mark).
IsolatedTimes TimeIsolated(const Workload& w, uint64_t live_conns);

}  // namespace escortbench

#endif  // ESCORTBENCH_ISOLATED_H_

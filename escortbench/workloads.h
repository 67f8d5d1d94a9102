// The benchmark's four traffic mixes, the seed jitter applied to them, and
// the simulated-result summary whose digest must repeat exactly.

#ifndef ESCORTBENCH_WORKLOADS_H_
#define ESCORTBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/workload/experiment.h"

namespace escortbench {

struct Workload {
  std::string name;
  // Spec-level inputs after the seed jitter; everything else is the
  // RunExperiment default (--shards 1, timer wheel on, metrics on, tracing
  // off, 0.6 s warm-up + 2 s window).
  escort::ExperimentSpec spec;
};

// Builds workload `name` for `seed`. The seed moves the client count, SYN
// rate and CGI attacker count by up to +-2% (counts round to the nearest
// integer, so small counts stay put). False for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

// The simulated results the digest covers. Every field is a deterministic
// function of the spec.
struct SimSummary {
  uint64_t events_fired = 0;
  uint64_t completions = 0;
  uint64_t failures = 0;
  std::map<std::string, escort::Cycles> ledger;
  escort::Cycles window_cycles = 0;
  uint64_t pd_crossings = 0;
  uint64_t syns_dropped_at_demux = 0;
  double qos_bytes_per_s = 0.0;
  uint64_t decision_digest = 0;
  std::vector<escort::IncidentRecord> incidents;

  // FNV-1a over every field, in declaration order.
  uint64_t Digest() const;
  // Empty when the ledger's accounts sum to window_cycles within
  // `tolerance` cycles; otherwise the reason. The kernel settles the busy
  // segment in flight at the window's edges only when it ends, so the sum
  // differs from the window by up to one such segment.
  std::string ConservationError(escort::Cycles tolerance) const;
};

SimSummary Summarize(const escort::ExperimentResult& r);

uint64_t EventsFired(const escort::ExperimentResult& r);

// Address of regular client `i`, as RunExperiment's testbed assigns it:
// 10.0.1.0/24 for the first 254, then 10.8.0.0 upwards.
escort::Ip4Addr ClientIp(int i);

// Ledger account label as a metric-name suffix: lower case, runs of other
// characters folded to '_' ("PD:TCP" -> "pd_tcp").
std::string AccountKey(const std::string& label);

}  // namespace escortbench

#endif  // ESCORTBENCH_WORKLOADS_H_

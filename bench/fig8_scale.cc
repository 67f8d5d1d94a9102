// Figure 8 (scale axis): how far the cell scales in *clients*, not load.
//
// The original figure stops at 64 parallel clients — enough to saturate
// the server. This bench instead grows the client population to a million
// concurrent machines against one server cell, which is only feasible
// because connections are slab-indexed flyweights (src/elib/slab.h) and
// timers live in per-shard hierarchical wheels (src/sim/timer_wheel.h):
// the JSON `memory` block records the reserved bytes per client that the
// perf gate (tools/check_perf_regression.py --check-scale) pins.
//
// The grid also carries one heap-timer comparison cell: with the wheel
// off, every workload metric must be bit-identical — only `memory` and
// `perf` may move. The binary enforces that equality itself.

#include <cstdio>
#include <string>

#include "src/workload/sweep.h"

using namespace escort;

namespace {

std::string CellId(int clients, bool wheel) {
  return "c" + std::to_string(clients) + (wheel ? "" : "-heap");
}

ExperimentSpec ScaleSpec(int clients, bool wheel) {
  ExperimentSpec spec;
  spec.config = ServerConfig::kAccounting;
  spec.clients = clients;
  spec.doc = "/doc1b";
  spec.timer_wheel = wheel;
  // Short protocol: at these populations the server saturates within
  // milliseconds, and the measured quantity is footprint, not rate.
  spec.warmup_s = 0.05;
  spec.window_s = 0.2;
  return spec;
}

// The workload-visible slice of a result: everything the timer backend is
// NOT allowed to change. (memory/perf/shard_profile are exempt, exactly
// like check_bench_json.py --expect-equal.)
bool SameWorkloadMetrics(const ExperimentResult& a, const ExperimentResult& b) {
  return a.conns_per_sec == b.conns_per_sec && a.completions_total == b.completions_total &&
         a.client_failures == b.client_failures && a.window_cycles == b.window_cycles &&
         a.paths_killed == b.paths_killed && a.pd_crossings == b.pd_crossings &&
         a.ledger.Total() == b.ledger.Total();
}

// The client count a cell actually ran with (after any --clients override).
int CellClients(const Sweep& sweep, const std::string& id) {
  for (const SweepCell& cell : sweep.cells()) {
    if (cell.id == id) {
      return cell.spec.clients;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SweepOptions opts = ParseSweepArgs(argc, argv);
  const std::vector<int> clients =
      opts.quick ? std::vector<int>{1000, 10000} : std::vector<int>{1000, 10000, 100000, 1000000};
  const int compare_at = 10000;  // wheel-vs-heap equivalence cell

  Sweep sweep("fig8_scale");
  for (int n : clients) {
    SweepCell& cell = sweep.Add(CellId(n, true), ScaleSpec(n, true));
    cell.tags = {{"timers", "wheel"}};
  }
  SweepCell& heap_cell = sweep.Add(CellId(compare_at, false), ScaleSpec(compare_at, false));
  heap_cell.tags = {{"timers", "heap"}};
  sweep.Run(opts);

  std::printf("=== Figure 8 (scale): one cell, up to a million concurrent clients ===\n\n");
  std::printf("%9s %10s %12s %10s %10s %11s %13s\n", "clients", "conns/s", "completions",
              "peer_hw", "pcb_hw", "timers_hw", "bytes/client");
  for (int n : clients) {
    const std::string id = CellId(n, true);
    const int cell_clients = CellClients(sweep, id);
    const ExperimentResult& r = sweep.Result(id);
    const MemoryProfile& m = r.memory;
    double bytes_per_client =
        static_cast<double>(m.pcb_bytes_reserved + m.peer_bytes_reserved +
                            m.timer_bytes_reserved) /
        static_cast<double>(cell_clients);
    std::printf("%9d %10.1f %12llu %10llu %10llu %11llu %13.1f\n", cell_clients,
                r.conns_per_sec,
                static_cast<unsigned long long>(r.completions_total),
                static_cast<unsigned long long>(m.peer_high_water),
                static_cast<unsigned long long>(m.pcb_high_water),
                static_cast<unsigned long long>(m.timer_high_water), bytes_per_client);
  }

  // Wheel-vs-heap: the backends must agree on every workload metric.
  const ExperimentResult& wheel = sweep.Result(CellId(compare_at, true));
  const ExperimentResult& heap = sweep.Result(CellId(compare_at, false));
  bool identical = SameWorkloadMetrics(wheel, heap);
  std::printf("\n--- Timer backend equivalence (%d clients) ---\n",
              CellClients(sweep, CellId(compare_at, true)));
  std::printf("wheel: %.1f conn/s, %llu timers armed peak, heap fallback: %.1f conn/s\n",
              wheel.conns_per_sec,
              static_cast<unsigned long long>(wheel.memory.timer_high_water),
              heap.conns_per_sec);
  std::printf("workload metrics bit-identical: %s\n", identical ? "yes" : "NO — BUG");

  return sweep.failed_count() == 0 && identical ? 0 : 1;
}

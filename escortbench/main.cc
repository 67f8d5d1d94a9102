// escort_perf: runs one benchmark workload for a fixed host time and
// prints one JSON object with its metrics.
//
//   escort_perf --workload NAME --seed N --seconds S --trace 0|1
//               [--spans PATH] [--warmup-s X --window-s Y]
//
// --trace 0 repeats RunExperiment, the simulator's public entry point, at
// its default flags and reports host time per simulated event, set-up
// time, peak RSS and the simulated outcomes. --trace 1 alternates an
// untraced RunExperiment with a traced run of the same testbed
// (traced_run.h), adds the isolated layer timings (isolated.h) and reports
// the per-layer split. Host times are scaled to the reference speed
// (calibration.h). Every repeat is checked: the cycle ledger must conserve
// and the digest of the simulated results must equal the first repeat's
// (traced and untraced alike); a repeat that fails either counts as
// failed. --warmup-s/--window-s shorten the simulated run for the
// benchmark's self-check.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "escortbench/calibration.h"
#include "escortbench/isolated.h"
#include "escortbench/traced_run.h"
#include "escortbench/workloads.h"

namespace escortbench {
namespace {

using Clock = std::chrono::steady_clock;

// Largest tolerated |wall - sum of parts| / wall of a traced run.
constexpr double kMaxSumError = 0.01;

// Largest tolerated |ledger total - window| of an untraced run: one busy
// segment in flight at each edge of the window, each bounded by the 2 ms
// per-owner CPU budget after which a runaway thread is killed. The traced
// run checks the exact identity (TracedRun::conservation_drift).
constexpr escort::Cycles kInFlightTolerance = 2 * escort::CyclesFromMillis(2.0);

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  std::string spans;
  double warmup_s = 0;  // 0: the spec default
  double window_s = 0;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "escort_perf: %s\nusage: escort_perf --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH] [--warmup-s X --window-s Y]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      o.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (flag == "--spans") {
      o.spans = v;
    } else if (flag == "--warmup-s") {
      o.warmup_s = std::strtod(v.c_str(), &end);
    } else if (flag == "--window-s") {
      o.window_s = std::strtod(v.c_str(), &end);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (o.workload.empty() || o.seconds <= 0 || (o.trace != 0 && o.trace != 1)) {
    Usage("need --workload, --seconds > 0 and --trace 0|1");
  }
  return o;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Lower quartile of the repeats of a run. Every repeat simulates exactly
// the same events, so repeats differ only in what the machine does around
// them, and that only ever adds time: the lower quartile tracks the
// program's own cost more steadily than the median, without resting on a
// single lucky repeat as the minimum would.
double LowerQuartile(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 4];
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

// Peak resident set of this process image, in MiB. VmHWM restarts at
// exec; getrusage's ru_maxrss (the fallback) keeps the high-water mark of
// the image that exec replaced, such as the Python parent that forked us.
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r"); f != nullptr) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    }
    std::fclose(f);
    if (found) {
      return static_cast<double>(kib) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

using Metrics = std::map<std::string, double>;

// What a run prints: the catalog metrics, and figures that explain them.
struct Report {
  Metrics metrics;
  Metrics info;
};

// Repeat bookkeeping shared by both modes.
class Checker {
 public:
  // Checks one run's simulated results; false when it failed.
  bool Check(const std::string& what, const escort::ExperimentResult& r) {
    ++attempted_;
    SimSummary s = Summarize(r);
    std::string err = s.ConservationError(kInFlightTolerance);
    uint64_t digest = s.Digest();
    if (attempted_ == 1) {
      digest_ = digest;
    } else if (err.empty() && digest != digest_) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "digest %016" PRIx64 " differs from %016" PRIx64, digest,
                    digest_);
      err = buf;
    }
    if (!err.empty()) {
      Fail(what + ": " + err);
      return false;
    }
    return true;
  }

  void Fail(const std::string& why) {
    ++failed_;
    if (failures_.size() < 8) {
      failures_.push_back(why);
    }
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t digest() const { return digest_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t digest_ = 0;
  std::vector<std::string> failures_;
};

// The simulated end-to-end outcomes: what a user of the server sees.
void AddOutcomes(const escort::ExperimentResult& r, Metrics* m) {
  (*m)["goodput_conns_per_s"] = r.conns_per_sec;
  double done = static_cast<double>(r.completions_total);
  double failed = static_cast<double>(r.client_failures);
  (*m)["client_failure_frac"] = Ratio(failed, done + failed);
  (*m)["qos_bytes_per_s"] = r.qos_bytes_per_sec;
  (*m)["detect_false_positives"] = static_cast<double>(r.detection.false_positives);
}

// Per-layer counts read from the run's result and metrics registry. All
// are simulated and deterministic.
void AddLayerCounts(const Workload& w, const escort::ExperimentResult& r,
                    const escort::MetricsRegistry& reg, Metrics* m) {
  const double events = static_cast<double>(EventsFired(r));
  const escort::ShardProfile& p = r.shard_profile;
  (*m)["sim.events_fired"] = events;
  (*m)["sim.windows_per_event"] = Ratio(static_cast<double>(p.windows_run), events);
  (*m)["sim.txns_per_event"] = Ratio(static_cast<double>(p.txns_drained), events);
  (*m)["sim.timer_high_water"] = static_cast<double>(r.memory.timer_high_water);
  (*m)["sim.timer_bytes_reserved"] = static_cast<double>(r.memory.timer_bytes_reserved);

  (*m)["elib.pcb_bytes_reserved"] = static_cast<double>(r.memory.pcb_bytes_reserved);
  (*m)["elib.peer_bytes_reserved"] = static_cast<double>(r.memory.peer_bytes_reserved);
  (*m)["elib.bytes_per_client"] =
      Ratio(static_cast<double>(r.memory.pcb_bytes_reserved + r.memory.peer_bytes_reserved +
                                r.memory.timer_bytes_reserved),
            static_cast<double>(w.spec.clients));

  const double window = static_cast<double>(r.window_cycles);
  for (const auto& [label, cycles] : r.ledger.totals()) {
    (*m)["kernel.cycles_frac." + AccountKey(label)] = Ratio(static_cast<double>(cycles), window);
  }
  (*m)["kernel.accounting_overhead_frac"] =
      Ratio(static_cast<double>(r.accounting_overhead), window);
  const double window_conns = r.conns_per_sec * escort::SecondsFromCycles(r.window_cycles);
  (*m)["kernel.pd_crossings_per_conn"] =
      Ratio(static_cast<double>(r.pd_crossings), std::round(window_conns));
  (*m)["kernel.runaway_kills"] = static_cast<double>(r.runaway_detections);
  (*m)["kernel.kill_cost_cycles"] = r.kill_cost_mean;

  (*m)["path.syns_dropped_at_demux"] = static_cast<double>(r.syns_dropped_at_demux);
  (*m)["path.paths_killed"] = static_cast<double>(r.paths_killed);

  auto counter = [&](const std::string& name) {
    const escort::MetricCounter* c = reg.FindCounter(name);
    return c != nullptr ? static_cast<double>(c->value()) : 0.0;
  };
  const double accepted = counter("tcp.syns_accepted");
  (*m)["net.syns_accepted"] = accepted;
  (*m)["net.retransmits_per_conn"] = Ratio(counter("tcp.retransmits"), accepted);
  static const char* const kOutcomes[] = {"completed", "aborted", "half-open-expired",
                                          "syn-dropped", "path-killed"};
  double outcomes = 0;
  for (const char* o : kOutcomes) {
    outcomes += counter(std::string("tcp.outcomes.") + o);
  }
  for (const char* o : kOutcomes) {
    (*m)["net.outcome_frac." + AccountKey(o)] =
        Ratio(counter(std::string("tcp.outcomes.") + o), outcomes);
  }
  const escort::MetricHistogram* life = reg.FindHistogram("tcp.conn_lifetime_us");
  (*m)["net.conn_lifetime_p99_us"] =
      life != nullptr ? static_cast<double>(life->Percentile(0.99)) : 0.0;

  const escort::DetectionStats& d = r.detection;
  (*m)["server.detect.true_positives"] = static_cast<double>(d.true_positives);
  (*m)["server.detect.first_detection_ms"] = d.first_detection_ms;
  (*m)["server.blacklist_size"] = static_cast<double>(d.blacklist_size);
  (*m)["server.incidents"] = static_cast<double>(r.incidents.size());
  std::vector<double> ttd;
  for (const escort::IncidentRecord& inc : r.incidents) {
    if (inc.has_ttd()) {
      ttd.push_back(inc.ttd_ms());
    }
  }
  (*m)["server.incident_ttd_ms"] = Median(ttd);
}

escort::ExperimentSpec SpecFor(const Options& o, const Workload& w) {
  escort::ExperimentSpec spec = w.spec;
  if (o.warmup_s > 0) {
    spec.warmup_s = o.warmup_s;
  }
  if (o.window_s > 0) {
    spec.window_s = o.window_s;
  }
  return spec;
}

// --trace 0: RunExperiment at default flags, repeated until the time is up.
// Host times are scaled to the reference speed by the reference kernel
// timed on both sides of each repeat (calibration.h).
Report RunPlain(const Options& o, const Workload& w, Checker* check) {
  const escort::ExperimentSpec spec = SpecFor(o, w);
  const auto deadline = Clock::now() + std::chrono::duration<double>(o.seconds);
  std::vector<double> ns_per_event;
  std::vector<double> setup_s;
  std::vector<double> raw_ns_per_event;
  std::vector<double> ref_ms;
  Metrics m;
  double ref_before = TimeReferenceKernel();
  do {
    auto start = Clock::now();
    escort::ExperimentResult r = escort::RunExperiment(spec);
    double total_ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    double ref_after = TimeReferenceKernel();
    ref_ms.push_back(0.5 * (ref_before + ref_after));
    double scale = kReferenceMs / ref_ms.back();
    ref_before = ref_after;
    if (!check->Check("run " + std::to_string(check->attempted() + 1), r)) {
      continue;
    }
    double raw = r.sim_wall_ms * 1e6 / static_cast<double>(EventsFired(r));
    raw_ns_per_event.push_back(raw);
    ns_per_event.push_back(raw * scale);
    setup_s.push_back((total_ms - r.sim_wall_ms) / 1e3 * scale);
    if (m.empty()) {
      AddOutcomes(r, &m);
    }
  } while (Clock::now() < deadline || check->attempted() < 3);
  m["host_ns_per_event"] = LowerQuartile(ns_per_event);
  m["setup_s"] = LowerQuartile(setup_s);
  m["peak_rss_mb"] = PeakRssMb();
  Metrics info = {{"repeats", static_cast<double>(ns_per_event.size())},
                  {"unscaled_ns_per_event", LowerQuartile(raw_ns_per_event)},
                  {"reference_kernel_ms", Median(ref_ms)}};
  return {m, info};
}

// --trace 1: untraced and traced runs alternate until the time is up.
Report RunWithTrace(const Options& o, const Workload& w, Checker* check) {
  const escort::ExperimentSpec spec = SpecFor(o, w);
  Metrics m;
  // One untraced run first: its connection high-water mark shapes the
  // isolated demux timing.
  escort::ExperimentResult first = escort::RunExperiment(spec);
  check->Check("untraced run 0", first);
  double ref_before = TimeReferenceKernel();
  IsolatedTimes iso = TimeIsolated(w, first.memory.pcb_high_water);
  double ref_after = TimeReferenceKernel();
  double scale = kReferenceMs / (0.5 * (ref_before + ref_after));
  m["elib.checksum_ns_per_kb"] = iso.checksum_ns_per_kb * scale;
  m["kernel.sched_ns_per_op"] = iso.sched_ns_per_op * scale;
  m["path.demux_ns_per_frame"] = iso.demux_ns_per_frame * scale;
  ref_before = ref_after;

  const auto deadline = Clock::now() + std::chrono::duration<double>(o.seconds);
  std::map<std::string, std::vector<double>> samples;
  double worst_sum_error = 0;
  uint64_t nested = 0;
  bool spans_written = false;
  do {
    escort::ExperimentSpec plain = spec;
    auto reg = std::make_unique<escort::MetricsRegistry>();
    plain.metrics_registry = reg.get();
    escort::ExperimentResult r = escort::RunExperiment(plain);
    const std::string n = std::to_string((check->attempted() + 1) / 2);
    bool ok = check->Check("untraced run " + n, r);

    auto treg = std::make_unique<escort::MetricsRegistry>();
    TracedRun t = RunTraced(spec, treg.get(), spans_written ? "" : o.spans);
    spans_written = true;
    ref_after = TimeReferenceKernel();
    scale = kReferenceMs / (0.5 * (ref_before + ref_after));
    ref_before = ref_after;
    ok = check->Check("traced run " + n, t.result) && ok;
    if (t.conservation_drift != 0) {
      check->Fail("traced run " + n + ": ledger drifts " + std::to_string(t.conservation_drift) +
                  " cycles from the window");
      ok = false;
    }
    const LayerTimes& lt = t.times;
    worst_sum_error = std::max(worst_sum_error, lt.sum_error());
    nested += lt.nested_spans;
    if (lt.sum_error() > kMaxSumError) {
      check->Fail("traced run " + n + ": layer parts do not sum to the wall time");
      ok = false;
    }
    if (!ok) {
      continue;
    }
    if (m.count("sim.events_fired") == 0) {
      AddOutcomes(r, &m);
      AddLayerCounts(w, r, *reg, &m);
    }
    // Host times are scaled to the reference speed; shares need no scaling.
    const double per_event = scale / static_cast<double>(EventsFired(r));
    samples["sim.run_s"].push_back(r.sim_wall_ms / 1e3 * scale);
    samples["trace.untraced_ns_per_event"].push_back(r.sim_wall_ms * 1e6 * per_event);
    samples["trace.traced_ns_per_event"].push_back(lt.run_ns * per_event);
    // Shares are of the traced RunUntil time without the tracer's
    // calibrated cost.
    const double traced_run_ns = lt.run_ns - lt.tracer_ns();
    samples["sim.queue_self_ns_per_event"].push_back(lt.queue_self_ns() * per_event);
    samples["sim.queue_self_share"].push_back(lt.queue_self_ns() / traced_run_ns);
    samples["sim.sampler_share"].push_back(lt.layer_ns(kSampler) / traced_run_ns);
    samples["sim.sampler_ns_per_sample"].push_back(
        Ratio(lt.layer_ns(kSampler), static_cast<double>(lt.spans[kSampler])) * scale);
    for (SpanLayer layer : {kServer, kWorkload}) {
      std::string name = SpanLayerName(layer);
      samples[name + ".host_share"].push_back(lt.layer_ns(layer) / traced_run_ns);
      samples[name + ".host_ns_per_event"].push_back(lt.layer_ns(layer) * per_event);
    }
    samples["workload.link_share"].push_back(lt.layer_ns(kLink) / traced_run_ns);
    samples["workload.link_ns_per_event"].push_back(lt.layer_ns(kLink) * per_event);
    samples["trace.setup_share"].push_back(lt.setup_ns / lt.wall_ns);
    samples["trace.span_cost_ns"].push_back(
        (lt.span_cost_in_ns + lt.span_cost_out_ns) * scale);
  } while (Clock::now() < deadline || check->attempted() < 5);

  for (const auto& [name, v] : samples) {
    m[name] = Median(v);
  }
  m["trace.overhead_ns_per_event"] =
      m["trace.traced_ns_per_event"] - m["trace.untraced_ns_per_event"];
  m["trace.sum_error_frac"] = worst_sum_error;
  m["trace.nested_spans"] = static_cast<double>(nested);
  Metrics info = {{"repeats", static_cast<double>(samples["sim.run_s"].size())}};
  return {m, info};
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
    }
    std::putchar(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  std::putchar('"');
}

int Main(int argc, char** argv) {
  Options o = ParseArgs(argc, argv);
  Workload w;
  if (!MakeWorkload(o.workload, o.seed, &w)) {
    Usage(("unknown workload " + o.workload).c_str());
  }
  Checker check;
  Report rep = o.trace == 0 ? RunPlain(o, w, &check) : RunWithTrace(o, w, &check);
  for (const auto& [name, v] : rep.metrics) {
    if (!std::isfinite(v)) {
      check.Fail("metric " + name + " is not finite");
    }
  }

  std::printf("{\"workload\": ");
  PrintJsonString(w.name);
  std::printf(", \"seed\": %" PRIu64 ", \"trace\": %d, \"spec\": {\"config\": ", o.seed,
              o.trace);
  PrintJsonString(escort::ServerConfigName(w.spec.config));
  std::printf(", \"clients\": %d, \"doc\": ", w.spec.clients);
  PrintJsonString(w.spec.doc);
  std::printf(", \"syn_attack_rate\": %.17g, \"cgi_attackers\": %d, \"qos_stream\": %s, "
              "\"detect\": ",
              w.spec.syn_attack_rate, w.spec.cgi_attackers, w.spec.qos_stream ? "true" : "false");
  PrintJsonString(escort::DetectModeName(w.spec.detect.mode));
  std::printf(", \"warmup_s\": %.17g, \"window_s\": %.17g}", SpecFor(o, w).warmup_s,
              SpecFor(o, w).window_s);
  std::printf(", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", \"digest\": \"%016" PRIx64
              "\", \"failures\": [",
              check.attempted(), check.failed(), check.digest());
  for (size_t i = 0; i < check.failures().size(); ++i) {
    std::fputs(i == 0 ? "" : ", ", stdout);
    PrintJsonString(check.failures()[i]);
  }
  std::printf("]");
  auto print_block = [](const char* block, const Metrics& values) {
    std::printf(", \"%s\": {", block);
    const char* sep = "";
    for (const auto& [name, v] : values) {
      std::fputs(sep, stdout);
      sep = ", ";
      PrintJsonString(name);
      std::printf(": %.17g", std::isfinite(v) ? v : 0.0);
    }
    std::printf("}");
  };
  print_block("metrics", rep.metrics);
  print_block("info", rep.info);
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace escortbench

int main(int argc, char** argv) {
  try {
    return escortbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "escort_perf: %s\n", e.what());
    return 1;
  }
}

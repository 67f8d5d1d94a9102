#include "escortbench/traced_run.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include "escortbench/workloads.h"
#include "src/kernel/audit.h"
#include "src/server/policy.h"

namespace escortbench {
namespace {

using escort::Cycles;
using escort::EventQueue;

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Single-shard queue that times every callback it runs. Only spans that
// run inside RunUntil are recorded; callbacks run during construction or
// teardown are part of the setup interval.
class TracedQueue : public escort::ShardedEventQueue {
 public:
  explicit TracedQueue(Cycles lookahead) : ShardedEventQueue(1, lookahead, false) {}

  EventId ScheduleAt(Cycles when, Callback fn) override {
    return ShardedEventQueue::ScheduleAt(when, Wrap(LayerOf(current_stream()), std::move(fn)));
  }

  EventId ScheduleAtFrom(StreamId exec_stream, Cycles when, Callback fn) override {
    return ShardedEventQueue::ScheduleAtFrom(exec_stream, when,
                                             Wrap(LayerOf(exec_stream), std::move(fn)));
  }

  TimerId ScheduleTimerAt(Cycles when, Callback fn) override {
    if (!timer_wheel()) {
      // The heap fallback re-enters ScheduleAt, which wraps.
      return ShardedEventQueue::ScheduleTimerAt(when, std::move(fn));
    }
    return ShardedEventQueue::ScheduleTimerAt(when,
                                              Wrap(LayerOf(current_stream()), std::move(fn)));
  }

  void PostSequenced(SequencedFn fn) override {
    ShardedEventQueue::PostSequenced([this, fn = std::move(fn)](Cycles send_time) {
      Span span(this, kLink);
      fn(send_time);
    });
  }

  void RunUntil(Cycles deadline) override {
    uint64_t start = NowNs();
    gap_start_ = start;
    recording_ = true;
    ShardedEventQueue::RunUntil(deadline);
    recording_ = false;
    uint64_t end = NowNs();
    times_.queue_gap_ns += static_cast<double>(end - gap_start_);
    times_.run_ns += static_cast<double>(end - start);
  }

  // Measures the tracer's own cost per span on empty callbacks (median of
  // several batches) and clears what the measurement recorded.
  void CalibrateSpanCost() {
    constexpr int kCalls = 1 << 14;
    constexpr int kBatches = 7;
    Callback plain = [] {};
    Callback wrapped = Wrap(kServer, [] {});
    std::vector<double> in_ns;
    std::vector<double> out_ns;
    recording_ = true;
    for (int b = 0; b < kBatches; ++b) {
      times_ = LayerTimes{};
      uint64_t t0 = NowNs();
      for (int i = 0; i < kCalls; ++i) {
        wrapped();
      }
      uint64_t t1 = NowNs();
      for (int i = 0; i < kCalls; ++i) {
        plain();
      }
      uint64_t t2 = NowNs();
      double in = times_.self_ns[kServer] / kCalls;
      double added = (static_cast<double>(t1 - t0) - static_cast<double>(t2 - t1)) / kCalls;
      in_ns.push_back(in);
      out_ns.push_back(std::max(0.0, added - in));
    }
    recording_ = false;
    std::sort(in_ns.begin(), in_ns.end());
    std::sort(out_ns.begin(), out_ns.end());
    times_ = LayerTimes{};
    times_.span_cost_in_ns = in_ns[kBatches / 2];
    times_.span_cost_out_ns = out_ns[kBatches / 2];
    records_.clear();
  }

  // ScheduleAt for the benchmark's sampler: same ordering key, own layer.
  EventId ScheduleSampler(Cycles when, Callback fn) {
    return ShardedEventQueue::ScheduleAt(when, Wrap(kSampler, std::move(fn)));
  }

  LayerTimes& times() { return times_; }

  void WriteSpans(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("cannot write " + path);
    }
    std::fprintf(f, "layer,start_ns,dur_ns\n");
    for (const SpanRecord& s : records_) {
      std::fprintf(f, "%s,%llu,%llu\n", SpanLayerName(static_cast<SpanLayer>(s.layer)),
                   static_cast<unsigned long long>(s.start - origin_),
                   static_cast<unsigned long long>(s.dur));
    }
    if (std::fclose(f) != 0) {
      throw std::runtime_error("cannot write " + path);
    }
  }

 private:
  struct SpanRecord {
    uint64_t start;
    uint64_t dur : 56;
    uint64_t layer : 8;
  };

  // Times one callback. Self time is its duration minus any span that ran
  // inside it.
  class Span {
   public:
    Span(TracedQueue* q, SpanLayer layer) : q_(q), layer_(layer), active_(q->recording_) {
      if (active_) {
        if (q_->open_ > 0) {
          ++q_->times_.nested_spans;
        }
        ++q_->open_;
        saved_child_ns_ = q_->child_ns_;
        q_->child_ns_ = 0;
        start_ = NowNs();
        if (q_->open_ == 1) {
          q_->times_.queue_gap_ns += static_cast<double>(start_ - q_->gap_start_);
        }
      }
    }
    ~Span() {
      if (!active_) {
        return;
      }
      // The record is appended inside the span, so its cost is part of
      // the calibrated per-span cost.
      q_->records_.push_back(SpanRecord{start_, 0, layer_});
      SpanRecord& rec = q_->records_.back();
      uint64_t end = NowNs();
      uint64_t dur = end - start_;
      rec.dur = dur;
      uint64_t self = dur - q_->child_ns_;
      q_->times_.self_ns[layer_] += static_cast<double>(self);
      ++q_->times_.spans[layer_];
      q_->child_ns_ = saved_child_ns_ + dur;
      if (--q_->open_ == 0) {
        q_->gap_start_ = end;
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    TracedQueue* q_;
    SpanLayer layer_;
    bool active_;
    uint64_t start_ = 0;
    uint64_t saved_child_ns_ = 0;
  };

  static SpanLayer LayerOf(StreamId stream) { return stream == 0 ? kServer : kWorkload; }

  Callback Wrap(SpanLayer layer, Callback fn) {
    return [this, layer, fn = std::move(fn)] {
      Span span(this, layer);
      fn();
    };
  }

  bool recording_ = false;
  int open_ = 0;
  uint64_t gap_start_ = 0;  // end of the last top-level span, or RunUntil entry
  uint64_t child_ns_ = 0;
  uint64_t origin_ = NowNs();
  LayerTimes times_;
  std::vector<SpanRecord> records_;
};

// Fixed testbed addressing, as RunExperiment lays it out (Figure 7).
const escort::Ip4Addr kServerIp = escort::Ip4Addr::FromOctets(10, 0, 0, 1);
const escort::MacAddr kServerMac = escort::MacAddr::FromIndex(1);
const escort::Ip4Addr kQosIp = escort::Ip4Addr::FromOctets(10, 0, 2, 1);
const escort::Ip4Addr kSynAttackerIp = escort::Ip4Addr::FromOctets(192, 168, 9, 9);

uint64_t ClientMacIndex(int i) {
  return i < 100 ? 100 + static_cast<uint64_t>(i) : 1000 + static_cast<uint64_t>(i);
}

escort::Ip4Addr CgiAttackerIp(int i) {
  return escort::Ip4Addr::FromOctets(10, 0, 3, static_cast<uint8_t>(1 + i));
}

// Member order matches RunExperiment's testbed, so construction and
// teardown run in the same order.
struct Testbed {
  Testbed()
      : eq(escort::SharedLink::MinDeliveryLatency(escort::NetworkModel::Calibrated())) {}

  TracedQueue eq;
  std::unique_ptr<escort::SharedLink> link;
  std::unique_ptr<escort::EscortWebServer> server;
  std::unique_ptr<escort::AuditScope> audit;
  std::unique_ptr<escort::BlacklistPolicy> blacklist;
  std::unique_ptr<escort::DetectionPolicy> detector;
  std::unique_ptr<escort::Slab<escort::TcpPeer>> peer_slab;
  std::vector<std::unique_ptr<escort::ClientMachine>> machines;
  std::vector<std::unique_ptr<escort::HttpClient>> clients;
  std::vector<std::unique_ptr<escort::CgiAttacker>> cgi_attackers;
  std::unique_ptr<escort::SynAttacker> syn_attacker;
  std::unique_ptr<escort::ClientMachine> qos_machine;
  std::unique_ptr<escort::QosReceiver> qos_receiver;
  escort::RateMeter completions;
};

std::unique_ptr<Testbed> BuildTestbed(const escort::ExperimentSpec& spec,
                                      escort::MetricsRegistry* metrics) {
  using escort::ClientMachine;
  using escort::CyclesFromMillis;
  using escort::MacAddr;
  using escort::NetworkModel;

  auto tb = std::make_unique<Testbed>();
  tb->eq.set_timer_wheel(spec.timer_wheel);
  tb->eq.AttachMetrics(metrics);
  tb->peer_slab = std::make_unique<escort::Slab<escort::TcpPeer>>();
  tb->link = std::make_unique<escort::SharedLink>(&tb->eq, NetworkModel::Calibrated());

  escort::WebServerOptions opts = spec.server_options;
  opts.config = spec.config;
  opts.mac = kServerMac;
  opts.ip = kServerIp;
  opts.metrics = metrics;
  tb->server = std::make_unique<escort::EscortWebServer>(&tb->eq, tb->link.get(), opts);
  tb->audit = std::make_unique<escort::AuditScope>(&tb->server->kernel());
  if (spec.detect.mode != escort::DetectMode::kOff) {
    escort::BlacklistPolicy::Options bl;
    bl.strikes = 1;
    bl.chain_violation_hook = false;
    tb->blacklist = std::make_unique<escort::BlacklistPolicy>(tb->server.get(), bl);
    tb->detector = escort::MakeDetector(
        tb->server.get(), tb->blacklist.get(), spec.detect,
        escort::CyclesFromSeconds(escort::EnvSeconds("ESCORT_WARMUP_S", spec.warmup_s)));
  }

  // One shard: every actor stream is homed on shard 0, in RunExperiment's
  // construction order (stream ids are what fix the event order).
  auto add_machine = [&](escort::Ip4Addr ip, uint64_t mac_index, uint64_t seed) {
    auto machine = std::make_unique<ClientMachine>(&tb->eq, tb->link.get(),
                                                   MacAddr::FromIndex(mac_index), ip,
                                                   NetworkModel::Calibrated(), seed,
                                                   tb->peer_slab.get());
    machine->AddArpEntry(kServerIp, kServerMac);
    tb->server->AddArpEntry(ip, machine->mac());
    tb->machines.push_back(std::move(machine));
    return tb->machines.back().get();
  };

  for (int i = 0; i < spec.clients; ++i) {
    EventQueue::StreamScope scope(&tb->eq, tb->eq.NewStream(0));
    ClientMachine* m =
        add_machine(ClientIp(i), ClientMacIndex(i), 0xc11e47 + static_cast<uint64_t>(i));
    auto client = std::make_unique<escort::HttpClient>(m, kServerIp, spec.doc);
    client->set_meter(&tb->completions);
    client->Start(CyclesFromMillis(static_cast<double>(i % 37) * 0.9));
    tb->clients.push_back(std::move(client));
  }

  for (int i = 0; i < spec.cgi_attackers; ++i) {
    EventQueue::StreamScope scope(&tb->eq, tb->eq.NewStream(0));
    ClientMachine* m = add_machine(CgiAttackerIp(i), 200 + static_cast<uint64_t>(i),
                                   0xa77acc + static_cast<uint64_t>(i));
    auto attacker = std::make_unique<escort::CgiAttacker>(m, kServerIp);
    attacker->Start(CyclesFromMillis(5.0 + static_cast<double>(i % 50) * 19.0));
    tb->cgi_attackers.push_back(std::move(attacker));
  }

  if (spec.qos_stream) {
    EventQueue::StreamScope scope(&tb->eq, tb->eq.NewStream(0));
    tb->qos_machine = std::make_unique<ClientMachine>(
        &tb->eq, tb->link.get(), MacAddr::FromIndex(50), kQosIp, NetworkModel::Calibrated(),
        0x9075ULL, tb->peer_slab.get());
    tb->qos_machine->AddArpEntry(kServerIp, kServerMac);
    tb->server->AddArpEntry(kQosIp, tb->qos_machine->mac());
    tb->qos_receiver = std::make_unique<escort::QosReceiver>(tb->qos_machine.get(), kServerIp);
    tb->qos_receiver->Start(CyclesFromMillis(3.0));
  }

  if (spec.syn_attack_rate > 0) {
    EventQueue::StreamScope scope(&tb->eq, tb->eq.NewStream(0));
    tb->syn_attacker = std::make_unique<escort::SynAttacker>(
        &tb->eq, tb->link.get(), MacAddr::FromIndex(60), kSynAttackerIp, kServerIp, kServerMac,
        spec.syn_attack_rate);
    tb->syn_attacker->Start(CyclesFromMillis(1.0));
  }
  return tb;
}

// RunExperiment's metrics-plane tick: per-account cycle gauges, a registry
// sample, then the health monitor's SLO rules.
void ScheduleMetricsSampler(TracedQueue* eq, escort::MetricsRegistry* registry,
                            escort::HealthMonitor* health, escort::Kernel* kernel, Cycles at,
                            Cycles interval, Cycles end) {
  if (at > end) {
    return;
  }
  eq->ScheduleSampler(at, [eq, registry, health, kernel, at, interval, end] {
    escort::CycleLedger snapshot = kernel->Snapshot();
    for (const auto& [label, cycles] : snapshot.totals()) {
      escort::MetricSet(ESCORT_METRIC_GAUGE(registry, "kernel.cycles." + label,
                                            "cycles charged to this ledger account"),
                        static_cast<int64_t>(cycles));
    }
    registry->Sample(eq->now());
    health->Sample(eq->now());
    ScheduleMetricsSampler(eq, registry, health, kernel, at + interval, interval, end);
  });
}

// RunExperiment's result collection, for the fields the benchmark reads.
void Collect(const escort::ExperimentSpec& spec, Testbed& tb, Cycles window_end,
             escort::ExperimentResult* out) {
  escort::ExperimentResult& r = *out;
  r.conns_per_sec = tb.completions.CloseWindow(window_end);
  r.completions_total = tb.completions.total();
  if (tb.qos_receiver != nullptr) {
    r.qos_bytes_per_sec = tb.qos_receiver->meter().CloseWindowBytesPerSec(window_end);
  }
  for (const auto& c : tb.clients) {
    r.client_failures += c->failed();
  }
  if (tb.syn_attacker != nullptr) {
    r.syns_sent = tb.syn_attacker->syns_sent();
  }
  escort::EscortWebServer& s = *tb.server;
  r.paths_killed = s.paths_killed();
  r.runaway_detections = s.kernel().runaway_detections();
  r.kill_cost_mean = s.kill_cost_cycles().Mean();
  r.ledger = s.kernel().Snapshot();
  r.pd_crossings = s.kernel().pd_crossings();
  r.accounting_overhead = s.kernel().accounting_overhead_cycles();
  for (const auto& l : s.tcp()->listeners()) {
    r.syns_dropped_at_demux += l->syns_dropped_at_demux;
  }
  if (tb.detector != nullptr) {
    const escort::Ip4Addr cgi_net = CgiAttackerIp(0);
    const Cycles syn_start = escort::CyclesFromMillis(1.0);
    const Cycles cgi_start = escort::CyclesFromMillis(5.0);
    escort::DetectionStats& d = r.detection;
    d.detections = tb.detector->detections().size();
    for (const escort::DetectionEvent& e : tb.detector->detections()) {
      bool is_syn_attacker = spec.syn_attack_rate > 0 && e.addr.value == kSynAttackerIp.value;
      bool is_cgi_attacker =
          spec.cgi_attackers > 0 && (e.addr.value >> 8) == (cgi_net.value >> 8);
      if (is_syn_attacker || is_cgi_attacker) {
        d.true_positives += 1;
        if (d.first_detection_ms == 0.0) {
          Cycles start = is_syn_attacker ? syn_start : cgi_start;
          d.first_detection_ms = escort::MillisFromCycles(e.when > start ? e.when - start : 0);
        }
      } else {
        d.false_positives += 1;
      }
    }
    d.decision_digest = tb.detector->DecisionDigest();
    if (tb.blacklist != nullptr) {
      d.blacklist_size = tb.blacklist->size();
    }
    if (auto* baseline = dynamic_cast<escort::BaselineDetector*>(tb.detector.get());
        baseline != nullptr) {
      d.paths_killed_by_detector = baseline->paths_killed();
    }
  }
  r.shard_profile = tb.eq.Profile();

  escort::EscortWebServer::ConnSlabStats cs = s.conn_slab_stats();
  r.memory.pcb_slot_bytes = cs.slot_bytes;
  r.memory.pcb_live = cs.live;
  r.memory.pcb_high_water = cs.high_water;
  r.memory.pcb_bytes_reserved = cs.bytes_reserved;
  r.memory.peer_slot_bytes = escort::Slab<escort::TcpPeer>::slot_bytes();
  r.memory.peer_live = tb.peer_slab->live();
  r.memory.peer_high_water = tb.peer_slab->high_water();
  r.memory.peer_bytes_reserved = tb.peer_slab->bytes_reserved();
  EventQueue::TimerWheelStats ts = tb.eq.timer_stats();
  r.memory.timers_armed = ts.armed;
  r.memory.timer_high_water = ts.high_water;
  r.memory.timer_capacity = ts.capacity;
  r.memory.timer_bytes_reserved = ts.bytes_reserved;
}

}  // namespace

const char* SpanLayerName(SpanLayer layer) {
  switch (layer) {
    case kServer: return "server";
    case kWorkload: return "workload";
    case kLink: return "link";
    case kSampler: return "sampler";
    case kSpanLayers: break;
  }
  return "?";
}

uint64_t LayerTimes::total_spans() const {
  uint64_t n = 0;
  for (uint64_t c : spans) {
    n += c;
  }
  return n;
}

double LayerTimes::tracer_ns() const {
  return static_cast<double>(total_spans()) * (span_cost_in_ns + span_cost_out_ns);
}

double LayerTimes::layer_ns(SpanLayer layer) const {
  return self_ns[layer] - static_cast<double>(spans[layer]) * span_cost_in_ns;
}

double LayerTimes::queue_self_ns() const {
  return queue_gap_ns - static_cast<double>(total_spans()) * span_cost_out_ns;
}

double LayerTimes::sum_error() const {
  double parts = setup_ns + queue_gap_ns;
  for (double ns : self_ns) {
    parts += ns;
  }
  return wall_ns > 0 ? std::fabs(wall_ns - parts) / wall_ns : 0.0;
}

TracedRun RunTraced(const escort::ExperimentSpec& spec, escort::MetricsRegistry* registry,
                    const std::string& span_csv) {
  if (spec.shards != 1 || spec.linux_server || spec.tracer != nullptr ||
      spec.trace.enabled() || registry == nullptr) {
    throw std::invalid_argument("traced run needs one shard, the Escort server and metrics");
  }
  const double warmup_s = escort::EnvSeconds("ESCORT_WARMUP_S", spec.warmup_s);
  const double window_s = escort::EnvSeconds("ESCORT_WINDOW_S", spec.window_s);

  TracedRun out;
  const uint64_t t0 = NowNs();
  auto tb = BuildTestbed(spec, registry);
  TracedQueue& eq = tb->eq;
  // Calibration is the tracer's own work: it is left out of the wall time.
  const uint64_t t_calibrate = NowNs();
  eq.CalibrateSpanCost();
  const uint64_t t_calibrated = NowNs();

  escort::HealthConfig hc = spec.health;
  if (hc.total_pages == 0) {
    hc.total_pages = tb->server->kernel().pages().total_pages();
  }
  auto health = std::make_unique<escort::HealthMonitor>(registry, hc);
  const Cycles run_end = escort::CyclesFromSeconds(warmup_s) + escort::CyclesFromSeconds(window_s);
  const Cycles interval = registry->config().sample_interval > 0
                              ? registry->config().sample_interval
                              : escort::CyclesFromMillis(5.0);
  ScheduleMetricsSampler(&eq, registry, health.get(), &tb->server->kernel(), 0, interval, run_end);

  const uint64_t t_built = NowNs();
  eq.RunUntil(escort::CyclesFromSeconds(warmup_s));
  const Cycles window_start = eq.now();
  tb->completions.OpenWindow(window_start);
  health->OpenWindow(window_start);
  if (tb->qos_receiver != nullptr) {
    tb->qos_receiver->meter().OpenWindow(window_start);
  }
  tb->server->kernel().ResetAccounting();
  eq.RunUntil(window_start + escort::CyclesFromSeconds(window_s));
  const Cycles window_end = eq.now();
  const uint64_t t_ran = NowNs();

  escort::ExperimentResult& r = out.result;
  r.sim_wall_ms = static_cast<double>(t_ran - t_built) / 1e6;
  r.window_cycles = window_end - window_start;
  Collect(spec, *tb, window_end, &r);
  r.incidents = health->incidents();
  escort::Kernel& kernel = tb->server->kernel();
  out.conservation_drift = static_cast<int64_t>(r.ledger.Total()) +
                           (kernel.UnsettledBusyCycles() - kernel.unsettled_at_reset()) -
                           static_cast<int64_t>(kernel.now() - kernel.start_time());
  const uint64_t t_collected = NowNs();

  // Writing the span file is the tracer's own output: it is left out of
  // the wall time.
  if (!span_csv.empty()) {
    eq.WriteSpans(span_csv);
  }
  LayerTimes times = eq.times();
  const uint64_t t_teardown = NowNs();
  health.reset();
  tb.reset();
  const uint64_t t_end = NowNs();

  // The parts are timed separately; whatever falls between them (opening
  // the window between the two RunUntil calls) shows up as sum_error().
  const uint64_t untimed = (t_teardown - t_collected) + (t_calibrated - t_calibrate);
  times.wall_ns = static_cast<double>((t_end - t0) - untimed);
  times.setup_ns = static_cast<double>((t_calibrate - t0) + (t_built - t_calibrated) +
                                       (t_collected - t_ran) + (t_end - t_teardown));
  out.times = times;
  return out;
}

}  // namespace escortbench

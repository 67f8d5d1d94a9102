#include "src/workload/experiment.h"

#include <cstdlib>
#include <map>

#include "src/kernel/audit.h"
#include "src/server/policy.h"
#include "src/sim/parallel.h"

namespace escort {

double EnvSeconds(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) {
    return fallback;
  }
  double parsed = std::atof(v);
  return parsed > 0 ? parsed : fallback;
}

namespace {

// Fixed testbed addressing (Figure 7).
const Ip4Addr kServerIp = Ip4Addr::FromOctets(10, 0, 0, 1);
const MacAddr kServerMac = MacAddr::FromIndex(1);
const Ip4Addr kQosIp = Ip4Addr::FromOctets(10, 0, 2, 1);
const Ip4Addr kSynAttackerIp = Ip4Addr::FromOctets(192, 168, 9, 9);

// Client i's address. The first 254 stay on the historical 10.0.1/24 (the
// bench JSON goldens and every small-testbed test pin those bytes); larger
// cells spill into 10.8.0.0/13 and beyond, which the trusted 10/8 listener
// still covers. Good for ~16M clients before colliding with other subnets.
Ip4Addr ClientIp(int i) {
  if (i < 254) {
    return Ip4Addr::FromOctets(10, 0, 1, static_cast<uint8_t>(1 + i));
  }
  int j = i - 254;
  return Ip4Addr::FromOctets(10, static_cast<uint8_t>(8 + j / 65536),
                             static_cast<uint8_t>((j / 256) % 256),
                             static_cast<uint8_t>(j % 256));
}

// Client i's MAC index. The first 100 keep the historical 100+i; beyond
// that, jump past the CGI-attacker (200+i) and untrusted-test (300+i)
// ranges so a million clients never collide with another actor family.
uint64_t ClientMacIndex(int i) {
  return i < 100 ? 100 + static_cast<uint64_t>(i) : 1000 + static_cast<uint64_t>(i);
}
Ip4Addr CgiAttackerIp(int i) {
  return Ip4Addr::FromOctets(10, 0, 3, static_cast<uint8_t>(1 + i));
}

struct Testbed {
  // The sharded queue IS the serial queue at shards=1 — and bit-identical
  // to it at any other shard count (ordering keys are assigned per stream,
  // independent of the shard partition). The lookahead window is the
  // minimum link delivery latency: the only cross-stream interaction is
  // the wire.
  Testbed(int shards, bool adaptive)
      : eq(shards, SharedLink::MinDeliveryLatency(NetworkModel::Calibrated()), adaptive) {}

  ShardedEventQueue eq;
  std::unique_ptr<SharedLink> link;
  std::unique_ptr<EscortWebServer> server;
  std::unique_ptr<MonolithicServer> linux_server;
  // Declared after `server` so the end-of-run audit checks run while the
  // kernel is still alive (members are destroyed in reverse order).
  std::unique_ptr<AuditScope> audit;
  // Online detection (spec.detect.mode != kOff): the blacklist does the
  // containment, the detector feeds it. Declared after `server` so both
  // are destroyed first — the detector's destructor cancels its kernel
  // scan event and unhooks the path manager.
  std::unique_ptr<BlacklistPolicy> blacklist;
  std::unique_ptr<DetectionPolicy> detector;
  // One TcpPeer slab per shard, shared by every machine homed there (the
  // flyweight connection pool). Declared before `machines` so the slabs
  // outlive them: a machine's destructor releases its slots.
  std::vector<std::unique_ptr<Slab<TcpPeer>>> peer_slabs;
  std::vector<std::unique_ptr<ClientMachine>> machines;
  std::vector<std::unique_ptr<HttpClient>> clients;
  std::vector<std::unique_ptr<CgiAttacker>> cgi_attackers;
  std::unique_ptr<SynAttacker> syn_attacker;
  std::unique_ptr<ClientMachine> qos_machine;
  std::unique_ptr<QosReceiver> qos_receiver;
  RateMeter completions;
};

std::unique_ptr<Testbed> BuildTestbed(const ExperimentSpec& spec, Tracer* tracer = nullptr,
                                      MetricsRegistry* metrics = nullptr) {
  auto tb = std::make_unique<Testbed>(spec.shards, spec.adaptive_lookahead);
  // Must precede any construction that arms a timer (the server's master
  // event, client retransmits): heap-fallback mode is a whole-run choice.
  tb->eq.set_timer_wheel(spec.timer_wheel);
  // Attach at the serial point, before any timer is armed, so the
  // occupancy series covers every arm/fire/cancel of the run.
  tb->eq.AttachMetrics(metrics);
  tb->peer_slabs.resize(static_cast<size_t>(spec.shards));
  for (auto& slab : tb->peer_slabs) {
    slab = std::make_unique<Slab<TcpPeer>>();
  }
  tb->link = std::make_unique<SharedLink>(&tb->eq, NetworkModel::Calibrated());

  if (spec.linux_server) {
    tb->linux_server =
        std::make_unique<MonolithicServer>(&tb->eq, tb->link.get(), kServerMac, kServerIp,
                                           spec.server_options.costs);
    for (const auto& doc : spec.server_options.documents) {
      tb->linux_server->AddDocument(doc.name, doc.size);
    }
  } else {
    WebServerOptions opts = spec.server_options;
    opts.config = spec.config;
    opts.mac = kServerMac;
    opts.ip = kServerIp;
    opts.tracer = tracer;
    opts.metrics = metrics;
    tb->server = std::make_unique<EscortWebServer>(&tb->eq, tb->link.get(), opts);
    // Every experiment run doubles as a resource-conservation audit
    // (enforced — i.e. violations abort — under ESCORT_AUDIT builds).
    tb->audit = std::make_unique<AuditScope>(&tb->server->kernel());
    if (spec.detect.mode != DetectMode::kOff) {
      // Detections chain into the §4.4.4 blacklist: one confirmed
      // detection is one strike, and the baseline learns from the
      // env-resolved warmup window (same clock RunExperiment uses).
      BlacklistPolicy::Options bl;
      bl.strikes = 1;
      // The blacklist is fed ONLY by the detector: static-policy kills do
      // not record strikes in detection cells, so the measured containment
      // (and every false positive) is attributable to the detector.
      bl.chain_violation_hook = false;
      tb->blacklist = std::make_unique<BlacklistPolicy>(tb->server.get(), bl);
      tb->detector =
          MakeDetector(tb->server.get(), tb->blacklist.get(), spec.detect,
                       CyclesFromSeconds(EnvSeconds("ESCORT_WARMUP_S", spec.warmup_s)));
    }
  }

  // Every machine (client, attacker, QoS endpoint) is its own event
  // stream, homed per the placement map over shards 1..N-1 (the server/
  // kernel stay on shard 0). Stream ids depend only on construction order
  // — never on the shard count or the map — which is what keeps results
  // bit-identical at any N and under any placement.
  std::vector<int> placement = spec.placement_map;
  if (placement.empty()) {
    placement = ComputePlacement(spec);
  }
  int next_actor = 0;
  int actor_shard = 0;  // home shard of the most recent actor_stream()
  auto actor_stream = [&]() -> EventQueue::StreamId {
    size_t idx = static_cast<size_t>(next_actor++);
    actor_shard = idx < placement.size() ? placement[idx] : 0;
    return tb->eq.NewStream(actor_shard);
  };

  // Machines file their connections in the slab of the shard they were
  // just homed on (actor_stream() runs first, via the StreamScope).
  auto add_machine = [&](Ip4Addr ip, uint64_t mac_index, uint64_t seed) {
    auto machine = std::make_unique<ClientMachine>(
        &tb->eq, tb->link.get(), MacAddr::FromIndex(mac_index), ip,
        NetworkModel::Calibrated(), seed,
        tb->peer_slabs[static_cast<size_t>(actor_shard)].get());
    machine->AddArpEntry(kServerIp, kServerMac);
    if (tb->server != nullptr) {
      tb->server->AddArpEntry(ip, machine->mac());
    }
    tb->machines.push_back(std::move(machine));
    return tb->machines.back().get();
  };

  // Regular clients.
  for (int i = 0; i < spec.clients; ++i) {
    EventQueue::StreamScope scope(&tb->eq, actor_stream());
    ClientMachine* m =
        add_machine(ClientIp(i), ClientMacIndex(i), 0xc11e47 + static_cast<uint64_t>(i));
    auto client = std::make_unique<HttpClient>(m, kServerIp, spec.doc);
    client->set_meter(&tb->completions);
    client->Start(CyclesFromMillis(static_cast<double>(i % 37) * 0.9));
    tb->clients.push_back(std::move(client));
  }

  // CGI attackers (trusted subnet, like regular clients).
  for (int i = 0; i < spec.cgi_attackers; ++i) {
    EventQueue::StreamScope scope(&tb->eq, actor_stream());
    ClientMachine* m = add_machine(CgiAttackerIp(i), 200 + static_cast<uint64_t>(i),
                                   0xa77acc + static_cast<uint64_t>(i));
    auto attacker = std::make_unique<CgiAttacker>(m, kServerIp);
    attacker->Start(CyclesFromMillis(5.0 + static_cast<double>(i % 50) * 19.0));
    tb->cgi_attackers.push_back(std::move(attacker));
  }

  // QoS stream.
  if (spec.qos_stream) {
    EventQueue::StreamScope scope(&tb->eq, actor_stream());
    tb->qos_machine = std::make_unique<ClientMachine>(
        &tb->eq, tb->link.get(), MacAddr::FromIndex(50), kQosIp, NetworkModel::Calibrated(),
        0x9075ULL, tb->peer_slabs[static_cast<size_t>(actor_shard)].get());
    tb->qos_machine->AddArpEntry(kServerIp, kServerMac);
    if (tb->server != nullptr) {
      tb->server->AddArpEntry(kQosIp, tb->qos_machine->mac());
    }
    tb->qos_receiver = std::make_unique<QosReceiver>(tb->qos_machine.get(), kServerIp);
    tb->qos_receiver->Start(CyclesFromMillis(3.0));
  }

  // SYN attacker (untrusted subnet).
  if (spec.syn_attack_rate > 0) {
    EventQueue::StreamScope scope(&tb->eq, actor_stream());
    MacAddr amac = MacAddr::FromIndex(60);
    tb->syn_attacker = std::make_unique<SynAttacker>(&tb->eq, tb->link.get(), amac,
                                                     kSynAttackerIp, kServerIp, kServerMac,
                                                     spec.syn_attack_rate);
    // The attacker is not attached to the link: SYN-ACKs to it vanish,
    // exactly like replies to a spoofed source.
    tb->syn_attacker->Start(CyclesFromMillis(1.0));
  }

  return tb;
}

// One ledger-family sample: cycle balances per account label (from the
// kernel snapshot, a sorted map) plus live pages/threads/IOBuffer locks
// aggregated per label. account_labels() iterates in owner-id (creation)
// order; the aggregation still goes through a string-keyed map so series
// emission is sorted by label.
void SampleLedger(Tracer* tracer, Kernel& kernel, Cycles now) {
  CycleLedger snapshot = kernel.Snapshot();
  for (const auto& [label, cycles] : snapshot.totals()) {
    tracer->Counter(now, "cycles/" + label, {{"cycles", Tracer::Num(cycles)}});
  }

  struct Balances {
    uint64_t pages = 0;
    uint64_t threads = 0;
    uint64_t iobuffer_locks = 0;
  };
  std::map<std::string, Balances> balances;
  for (const auto& [id, rec] : kernel.account_labels()) {
    Balances& b = balances[rec.label];
    const ResourceUsage& u = rec.owner->usage();
    b.pages += u.pages;
    b.threads += u.threads;
    b.iobuffer_locks += u.iobuffer_locks;
  }
  for (const auto& [label, b] : balances) {
    tracer->Counter(now, "pages/" + label, {{"pages", Tracer::Num(b.pages)}});
    tracer->Counter(now, "threads/" + label, {{"threads", Tracer::Num(b.threads)}});
    tracer->Counter(now, "iobufs/" + label, {{"locks", Tracer::Num(b.iobuffer_locks)}});
  }
}

// Self-rescheduling stream-0 sampler, bounded by `end` so RunUntil always
// drains. Scheduled from the main context (stream 0) and rescheduled from
// its own execution context (also stream 0), so emission order is part of
// the queue's deterministic total order.
void ScheduleLedgerSampler(EventQueue* eq, Kernel* kernel, Tracer* tracer, Cycles at,
                           Cycles interval, Cycles end) {
  if (at > end) {
    return;
  }
  eq->ScheduleAt(at, [eq, kernel, tracer, at, interval, end] {
    SampleLedger(tracer, *kernel, eq->now());
    ScheduleLedgerSampler(eq, kernel, tracer, at + interval, interval, end);
  });
}

// One metrics-plane tick: refresh the per-account cycle gauges from the
// kernel ledger, snapshot every counter/gauge into its sim-time series,
// then let the health monitor evaluate its SLO rules. Same stream-0
// contract as SampleLedger, so the sampled series — and every incident
// decision — are part of the queue's deterministic total order.
void SampleMetrics(MetricsRegistry* registry, HealthMonitor* health, Kernel* kernel,
                   Cycles now) {
  CycleLedger snapshot = kernel->Snapshot();
  for (const auto& [label, cycles] : snapshot.totals()) {
    MetricSet(ESCORT_METRIC_GAUGE(registry, "kernel.cycles." + label,
                                  "cycles charged to this ledger account"),
              static_cast<int64_t>(cycles));
  }
  registry->Sample(now);
  if (health != nullptr) {
    health->Sample(now);
  }
}

// The metrics sampler's fixed inputs, owned by RunExperiment for the whole
// run, so that each tick's self-rescheduling closure carries only
// {sampler, at} and lives in its event slot rather than on the heap.
struct MetricsSampler {
  EventQueue* eq;
  MetricsRegistry* registry;
  HealthMonitor* health;
  Kernel* kernel;
  Cycles interval;
  Cycles end;
};

void ScheduleMetricsSampler(const MetricsSampler* sampler, Cycles at) {
  if (at > sampler->end) {
    return;
  }
  auto tick = [sampler, at] {
    SampleMetrics(sampler->registry, sampler->health, sampler->kernel, sampler->eq->now());
    ScheduleMetricsSampler(sampler, at + sampler->interval);
  };
  static_assert(sizeof(tick) <= InlineFn<void()>::kCapacity,
                "the sampler tick fits the event slot's inline storage");
  sampler->eq->ScheduleAt(at, std::move(tick));
}

}  // namespace

ExperimentResult RunExperiment(const ExperimentSpec& spec) {
  double warmup_s = EnvSeconds("ESCORT_WARMUP_S", spec.warmup_s);
  double window_s = EnvSeconds("ESCORT_WINDOW_S", spec.window_s);

  // Tracing: use the caller's sink (sweep cells) or own one for the run.
  std::unique_ptr<Tracer> owned_tracer;
  Tracer* tracer = spec.tracer;
  if (tracer == nullptr && spec.trace.enabled()) {
    owned_tracer = std::make_unique<Tracer>(spec.trace);
    tracer = owned_tracer.get();
  }

  // Metrics: use the caller's registry (sweep cells) or own one for the
  // run. On by default — the health monitor needs the registry, and the
  // zero-perturbation test pins that collection never changes results.
  std::unique_ptr<MetricsRegistry> owned_metrics;
  MetricsRegistry* metrics = spec.metrics_registry;
  if (metrics == nullptr && spec.collect_metrics) {
    owned_metrics = std::make_unique<MetricsRegistry>(spec.metrics);
    metrics = owned_metrics.get();
  }

  auto tb = BuildTestbed(spec, tracer, metrics);
  EventQueue& eq = tb->eq;

  std::unique_ptr<HealthMonitor> health;
  if (metrics != nullptr && tb->server != nullptr) {
    HealthConfig hc = spec.health;
    if (hc.total_pages == 0) {
      hc.total_pages = tb->server->kernel().pages().total_pages();
    }
    health = std::make_unique<HealthMonitor>(metrics, hc);
    health->set_tracer(tracer);
  }

  Cycles run_end = CyclesFromSeconds(warmup_s) + CyclesFromSeconds(window_s);
  if (tracer != nullptr && tracer->ledger_enabled() && tb->server != nullptr) {
    Cycles interval = tracer->config().sample_interval > 0
                          ? tracer->config().sample_interval
                          : CyclesFromMillis(5.0);
    ScheduleLedgerSampler(&eq, &tb->server->kernel(), tracer, 0, interval, run_end);
  }
  MetricsSampler sampler{&eq, metrics, health.get(), nullptr, 0, run_end};
  if (metrics != nullptr && tb->server != nullptr) {
    sampler.kernel = &tb->server->kernel();
    sampler.interval = metrics->config().sample_interval > 0
                           ? metrics->config().sample_interval
                           : CyclesFromMillis(5.0);
    ScheduleMetricsSampler(&sampler, 0);
  }

  double sim_start_ms = MonotonicMillis();
  eq.RunUntil(CyclesFromSeconds(warmup_s));

  Cycles window_start = eq.now();
  tb->completions.OpenWindow(window_start);
  if (health != nullptr) {
    health->OpenWindow(window_start);
  }
  if (tb->qos_receiver != nullptr) {
    tb->qos_receiver->meter().OpenWindow(window_start);
  }
  if (tb->server != nullptr) {
    tb->server->kernel().ResetAccounting();
  }

  eq.RunUntil(window_start + CyclesFromSeconds(window_s));
  Cycles window_end = eq.now();
  double sim_wall_ms = MonotonicMillis() - sim_start_ms;

  ExperimentResult r;
  r.sim_wall_ms = sim_wall_ms;
  r.conns_per_sec = tb->completions.CloseWindow(window_end);
  r.completions_total = tb->completions.total();
  r.window_cycles = window_end - window_start;
  if (tb->qos_receiver != nullptr) {
    r.qos_bytes_per_sec = tb->qos_receiver->meter().CloseWindowBytesPerSec(window_end);
  }
  for (const auto& c : tb->clients) {
    r.client_failures += c->failed();
  }
  if (tb->syn_attacker != nullptr) {
    r.syns_sent = tb->syn_attacker->syns_sent();
  }
  if (tb->server != nullptr) {
    EscortWebServer& s = *tb->server;
    r.paths_killed = s.paths_killed();
    r.runaway_detections = s.kernel().runaway_detections();
    r.kill_cost_mean = s.kill_cost_cycles().Mean();
    r.ledger = s.kernel().Snapshot();
    r.pd_crossings = s.kernel().pd_crossings();
    r.accounting_overhead = s.kernel().accounting_overhead_cycles();
    for (const auto& l : s.tcp()->listeners()) {
      r.syns_dropped_at_demux += l->syns_dropped_at_demux;
    }
  }
  if (tb->detector != nullptr) {
    // Classify against the testbed's ground truth: the SYN attacker's
    // address and the CGI attacker subnet are fixed by construction, so
    // every detection is decidable. Latency is measured from the named
    // attacker family's start time.
    const Ip4Addr cgi_net = CgiAttackerIp(0);
    Cycles syn_start = CyclesFromMillis(1.0);
    Cycles cgi_start = CyclesFromMillis(5.0);
    DetectionStats& d = r.detection;
    d.detections = tb->detector->detections().size();
    for (const DetectionEvent& e : tb->detector->detections()) {
      bool is_syn_attacker = spec.syn_attack_rate > 0 && e.addr.value == kSynAttackerIp.value;
      bool is_cgi_attacker =
          spec.cgi_attackers > 0 && (e.addr.value >> 8) == (cgi_net.value >> 8);
      if (is_syn_attacker || is_cgi_attacker) {
        d.true_positives += 1;
        if (d.first_detection_ms == 0.0) {
          Cycles start = is_syn_attacker ? syn_start : cgi_start;
          d.first_detection_ms = MillisFromCycles(e.when > start ? e.when - start : 0);
        }
      } else {
        d.false_positives += 1;
      }
    }
    d.decision_digest = tb->detector->DecisionDigest();
    if (tb->blacklist != nullptr) {
      d.blacklist_size = tb->blacklist->size();
    }
    if (auto* baseline = dynamic_cast<BaselineDetector*>(tb->detector.get());
        baseline != nullptr) {
      d.paths_killed_by_detector = baseline->paths_killed();
    }
  }
  r.shard_profile = tb->eq.Profile();

  // Memory footprint (bench JSON `memory` block): slab occupancy at the
  // window end plus high-water marks over the whole run.
  if (tb->server != nullptr) {
    EscortWebServer::ConnSlabStats cs = tb->server->conn_slab_stats();
    r.memory.pcb_slot_bytes = cs.slot_bytes;
    r.memory.pcb_live = cs.live;
    r.memory.pcb_high_water = cs.high_water;
    r.memory.pcb_bytes_reserved = cs.bytes_reserved;
  }
  for (const auto& slab : tb->peer_slabs) {
    r.memory.peer_slot_bytes = Slab<TcpPeer>::slot_bytes();
    r.memory.peer_live += slab->live();
    r.memory.peer_high_water += slab->high_water();
    r.memory.peer_bytes_reserved += slab->bytes_reserved();
  }
  EventQueue::TimerWheelStats ts = tb->eq.timer_stats();
  r.memory.timers_armed = ts.armed;
  r.memory.timer_high_water = ts.high_water;
  r.memory.timer_capacity = ts.capacity;
  r.memory.timer_bytes_reserved = ts.bytes_reserved;

  if (tracer != nullptr) {
    if (tracer->shard_profile_enabled()) {
      // Shard-family events are per-partition by nature; they only appear
      // when explicitly requested (TraceConfig.shard_profile) because they
      // break cross-shard byte-identity of the trace.
      const ShardProfile& p = r.shard_profile;
      for (size_t i = 0; i < p.per_shard.size(); ++i) {
        tracer->Counter(window_end, "shard/" + std::to_string(i),
                        {{"events_fired", Tracer::Num(p.per_shard[i].events_fired)},
                         {"windows_woken", Tracer::Num(p.per_shard[i].windows_woken)},
                         {"windows_active", Tracer::Num(p.per_shard[i].windows_active)}});
      }
    }
    tracer->Finalize(window_end);
    // Detach before teardown: the trace is finalized; teardown-time
    // pathKill events (for paths surviving the window) are bookkeeping,
    // not part of the deterministic trace stream.
    if (tb->server != nullptr) {
      tb->server->kernel().set_tracer(nullptr);
    }
    if (owned_tracer != nullptr) {
      owned_tracer->WriteStandalone();
    }
  }
  if (health != nullptr) {
    r.incidents = health->incidents();
  }
  if (owned_metrics != nullptr && !spec.metrics.path.empty()) {
    // Tear the testbed down first so the document includes teardown-time
    // bookkeeping exactly like a sweep-merged cell does (the sweep
    // serializes after RunExperiment returns). Teardown order is serial
    // and partition-independent, so this stays byte-stable.
    health.reset();
    tb.reset();
    MetricsRegistry::WriteFile(
        spec.metrics.path,
        MetricsRegistry::WrapDocument({owned_metrics->SerializeCell("run")}));
  }
  return r;
}

AccuracyResult RunAccountingAccuracy(ServerConfig config, uint64_t requests) {
  ExperimentSpec spec;
  spec.config = config;
  spec.clients = 0;

  auto tb = BuildTestbed(spec);
  EventQueue& eq = tb->eq;

  // One serial client, driven manually so we can bracket exactly N
  // requests. The serial-measurement client is fast (the paper's
  // micro-measurement host), so idle time reflects the wire, not a slow
  // client.
  NetworkModel fast_client = NetworkModel::Calibrated();
  fast_client.client_processing = CyclesFromMicros(250);
  auto machine = std::make_unique<ClientMachine>(&eq, tb->link.get(), MacAddr::FromIndex(100),
                                                 ClientIp(0), fast_client, 0x7ab1e1);
  machine->AddArpEntry(kServerIp, kServerMac);
  tb->server->AddArpEntry(ClientIp(0), machine->mac());
  HttpClient client(machine.get(), kServerIp, "/doc1b");

  // Warm caches with a handful of requests first.
  client.max_requests = 5;
  client.Start();
  while (client.completed() < 5 && eq.Step()) {
  }
  // Let in-flight teardown settle.
  eq.RunUntil(eq.now() + CyclesFromMillis(50));

  tb->server->kernel().ResetAccounting();
  Cycles start = eq.now();
  client.max_requests = 5 + requests;
  client.Start();
  while (client.completed() < 5 + requests && eq.Step()) {
  }
  Cycles end = client.last_completion() != 0 ? client.last_completion() : eq.now();

  AccuracyResult res;
  res.requests = requests;
  res.ledger = tb->server->kernel().Snapshot();
  res.total_measured = end - start;
  return res;
}

KillCostResult RunKillCost(ServerConfig config, int attacks) {
  ExperimentSpec spec;
  spec.config = config;
  spec.clients = 0;
  spec.cgi_attackers = 1;

  auto tb = BuildTestbed(spec);
  EventQueue& eq = tb->eq;
  Cycles deadline = CyclesFromSeconds(static_cast<double>(attacks) + 2.0);
  while (tb->server->paths_killed() < static_cast<uint64_t>(attacks) && eq.now() < deadline) {
    if (!eq.Step()) {
      break;
    }
  }
  KillCostResult res;
  res.kills = tb->server->paths_killed();
  res.mean_cycles = tb->server->kill_cost_cycles().Mean();
  res.min_cycles = tb->server->kill_cost_cycles().Min();
  res.max_cycles = tb->server->kill_cost_cycles().Max();
  return res;
}

}  // namespace escort

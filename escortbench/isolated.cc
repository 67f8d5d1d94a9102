#include "escortbench/isolated.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "src/elib/byte_io.h"
#include "src/kernel/kernel.h"
#include "src/net/headers.h"
#include "src/workload/wire.h"

namespace escortbench {
namespace {

using Clock = std::chrono::steady_clock;

// Keeps the checksum loop's result observable.
volatile uint32_t g_sink = 0;

constexpr int kBatches = 9;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Median over kBatches of the nanoseconds per op of `batch`, which runs
// `ops` operations.
template <typename Fn>
double NsPerOp(uint64_t ops, Fn batch) {
  batch();  // warm caches and lazy state
  std::vector<double> per_op;
  for (int i = 0; i < kBatches; ++i) {
    auto start = Clock::now();
    batch();
    double ns = std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    per_op.push_back(ns / static_cast<double>(ops));
  }
  return Median(per_op);
}

uint64_t DocBytes(const std::string& doc) {
  if (doc == "/doc10k") return 10240;
  if (doc == "/doc1k") return 1024;
  return 1;
}

double TimeChecksum(const Workload& w) {
  const size_t len = static_cast<size_t>(std::min<uint64_t>(DocBytes(w.spec.doc), 1460)) + 20;
  std::vector<uint8_t> segment(len);
  for (size_t i = 0; i < len; ++i) {
    segment[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  // About 4 MB of input per batch.
  const uint64_t ops = std::max<uint64_t>(1, (uint64_t{4} << 20) / len);
  double ns = NsPerOp(ops, [&] {
    uint32_t acc = 0;
    for (uint64_t i = 0; i < ops; ++i) {
      segment[0] = static_cast<uint8_t>(i);
      acc += escort::ChecksumPartial(segment.data(), segment.size());
    }
    g_sink = acc;
  });
  return ns * 1024.0 / static_cast<double>(len);
}

double TimeScheduler(const Workload& w) {
  const int threads =
      std::min(256, w.spec.clients + w.spec.cgi_attackers + (w.spec.qos_stream ? 1 : 0));
  escort::EventQueue eq;
  escort::KernelConfig kc;
  kc.scheduler = escort::SchedulerKind::kProportionalShare;
  kc.start_softclock = false;
  escort::Kernel kernel(&eq, kc);
  std::vector<std::unique_ptr<escort::Owner>> owners;
  std::vector<escort::Thread*> ready;
  for (int i = 0; i < threads; ++i) {
    owners.push_back(std::make_unique<escort::Owner>(escort::OwnerType::kKernel,
                                                     kernel.NextOwnerId(), "bench"));
    kernel.RegisterOwner(owners.back().get(), "bench");
    // The QoS path holds the large ticket allocation.
    owners.back()->sched().tickets = (w.spec.qos_stream && i == 0) ? 12'000 : 100;
    ready.push_back(kernel.CreateThread(owners.back().get(), "bench"));
  }
  escort::ProportionalShareScheduler sched;
  for (escort::Thread* t : ready) {
    sched.Enqueue(t);
  }
  const uint64_t ops = 20'000;
  return NsPerOp(ops, [&] {
    for (uint64_t i = 0; i < ops; ++i) {
      escort::Thread* t = sched.Dequeue();
      sched.AccountRun(t, 20'000);
      sched.Enqueue(t);
    }
  });
}

double TimeDemux(const Workload& w, uint64_t live_conns) {
  escort::EventQueue eq;
  escort::SharedLink link(&eq, escort::NetworkModel::Calibrated());
  escort::WebServerOptions opts;
  opts.config = w.spec.config;
  escort::EscortWebServer server(&eq, &link, opts);
  escort::Kernel& kernel = server.kernel();
  escort::TcpModule* tcp = server.tcp();
  escort::Module* eth = server.eth();
  std::vector<escort::PdId> read_domains;
  for (const auto& pd : kernel.domains()) {
    read_domains.push_back(pd->pd_id());
  }
  escort::Owner* owner = kernel.domain(eth->pd());

  constexpr int kFrames = 64;  // frames per round; the work they queue is drained after it
  auto frame_of = [&](escort::Ip4Addr src, const escort::TcpHeader& hdr) {
    std::vector<uint8_t> frame =
        escort::BuildTcpFrame(escort::MacAddr::FromIndex(9), opts.mac, src, opts.ip, hdr, {});
    escort::Message msg = escort::Message::Alloc(&kernel, owner, eth->pd(), read_domains,
                                                 frame.size(), escort::kFullHeadroom);
    msg.Append(eth->pd(), frame.data(), frame.size());
    return msg;
  };
  auto drain = [&] { eq.RunUntil(eq.now() + escort::CyclesFromMillis(5.0)); };
  std::vector<escort::ConnKey> known;
  // With protection domains a segment takes a few hundred microseconds of
  // simulated time: drain until no known connection has input queued, so
  // that timed frames are not dropped for backlog.
  auto drain_known = [&] {
    for (int tries = 0; tries < 100; ++tries) {
      drain();
      size_t pending = 0;
      for (const escort::ConnKey& key : known) {
        if (const escort::TcpPcb* pcb = tcp->FindConn(key); pcb != nullptr) {
          pending += pcb->path->PendingItems();
        }
      }
      if (pending == 0) {
        return;
      }
    }
  };

  // Fill the connection table to the workload's live-connection count:
  // a handshake from each of the workload's clients in turn (another port
  // of the same client once every client has one).
  const int clients = std::max(1, w.spec.clients);
  for (uint64_t first = 0; first < live_conns; first += kFrames) {
    const uint64_t last = std::min<uint64_t>(live_conns, first + kFrames);
    std::vector<escort::ConnKey> keys;
    for (uint64_t i = first; i < last; ++i) {
      escort::TcpHeader syn;
      syn.src_port = static_cast<uint16_t>(1024 + i / clients);
      syn.dst_port = 80;
      syn.seq = 1000;
      syn.flags = escort::kTcpSyn;
      escort::Ip4Addr src = ClientIp(static_cast<int>(i % clients));
      keys.push_back(escort::ConnKey{opts.ip, 80, src, syn.src_port});
      server.paths().DemuxAndDeliver(eth, frame_of(src, syn));
    }
    // Path creation is slow in simulated time: drain until every SYN has
    // its connection, or the passive path gave up on some.
    for (int tries = 0; tries < 40 && tcp->FindConn(keys.back()) == nullptr; ++tries) {
      drain();
    }
    for (const escort::ConnKey& key : keys) {
      if (const escort::TcpPcb* pcb = tcp->FindConn(key); pcb != nullptr) {
        escort::TcpHeader ack;
        ack.src_port = key.remote_port;
        ack.dst_port = 80;
        ack.seq = pcb->irs + 1;
        ack.ack = pcb->iss + 1;
        ack.flags = escort::kTcpAck;
        server.paths().DemuxAndDeliver(eth, frame_of(key.remote_addr, ack));
        known.push_back(key);
      }
    }
    drain_known();
  }

  // The timed frame: under a SYN flood, a SYN from the untrusted subnet;
  // otherwise a bare segment (no flags, no payload) for a known connection,
  // which the connection's path receives and TCP then ignores. Without
  // known connections, the segment is for a connection the server does not
  // know.
  const bool flood = w.spec.syn_attack_rate > 0;
  escort::TcpHeader hdr;
  hdr.dst_port = 80;
  hdr.flags = flood ? escort::kTcpSyn : 0;
  const escort::Ip4Addr attacker = escort::Ip4Addr::FromOctets(192, 168, 9, 9);
  constexpr int kRounds = 40;
  uint16_t port = 1024;
  size_t next_conn = 0;
  std::vector<escort::Message> msgs;
  double total_ns = 0;
  auto batch = [&] {
    total_ns = 0;
    for (int round = 0; round < kRounds; ++round) {
      msgs.clear();
      for (int i = 0; i < kFrames; ++i) {
        escort::Ip4Addr src = attacker;
        hdr.src_port = port++;
        if (!flood && !known.empty()) {
          const escort::ConnKey& key = known[next_conn++ % known.size()];
          src = key.remote_addr;
          hdr.src_port = key.remote_port;
        } else if (!flood) {
          src = ClientIp(0);
        }
        msgs.push_back(frame_of(src, hdr));
      }
      auto start = Clock::now();
      for (escort::Message& msg : msgs) {
        server.paths().DemuxAndDeliver(eth, std::move(msg));
      }
      total_ns += std::chrono::duration<double, std::nano>(Clock::now() - start).count();
      drain_known();
    }
  };
  batch();
  std::vector<double> per_frame;
  for (int i = 0; i < kBatches; ++i) {
    batch();
    per_frame.push_back(total_ns / (kFrames * kRounds));
  }
  return Median(per_frame);
}

}  // namespace

IsolatedTimes TimeIsolated(const Workload& w, uint64_t live_conns) {
  IsolatedTimes t;
  t.checksum_ns_per_kb = TimeChecksum(w);
  t.sched_ns_per_op = TimeScheduler(w);
  t.demux_ns_per_frame = TimeDemux(w, live_conns);
  return t;
}

}  // namespace escortbench

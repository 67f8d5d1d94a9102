// Workload-layer tests: the shared link, bounded queues, the experiment
// harness itself, and the elib bounded queue.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "src/elib/bounded_queue.h"
#include "src/workload/client_machine.h"
#include "src/workload/experiment.h"
#include "src/workload/wire.h"

namespace escort {
namespace {

TEST(BoundedQueue, FifoAndCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_FALSE(q.Push(3));  // full: dropped
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.high_water(), 2u);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

class NullEndpoint : public NetEndpoint {
 public:
  void DeliverFrame(const std::vector<uint8_t>& frame) override {
    ++frames;
    last_size = frame.size();
    times.push_back(now ? *now : 0);
  }
  uint64_t frames = 0;
  size_t last_size = 0;
  const Cycles* now = nullptr;
  std::vector<Cycles> times;
};

TEST(SharedLink, DeliversUnicastToOwnerOfDestinationMac) {
  EventQueue eq;
  SharedLink link(&eq, NetworkModel::Calibrated());
  NullEndpoint a;
  NullEndpoint b;
  a.now = &eq.now_ref();
  b.now = &eq.now_ref();
  link.Attach(MacAddr::FromIndex(1), &a);
  link.Attach(MacAddr::FromIndex(2), &b);

  std::vector<uint8_t> frame(100, 0);
  std::copy_n(MacAddr::FromIndex(2).bytes.begin(), 6, frame.begin());
  link.Send(MacAddr::FromIndex(1), frame);
  eq.RunToCompletion();
  EXPECT_EQ(a.frames, 0u);
  EXPECT_EQ(b.frames, 1u);
  EXPECT_EQ(b.last_size, 100u);
}

TEST(SharedLink, BroadcastReachesEveryoneButSender) {
  EventQueue eq;
  SharedLink link(&eq, NetworkModel::Calibrated());
  NullEndpoint a, b, c;
  link.Attach(MacAddr::FromIndex(1), &a);
  link.Attach(MacAddr::FromIndex(2), &b);
  link.Attach(MacAddr::FromIndex(3), &c);
  std::vector<uint8_t> frame(64, 0);
  std::copy_n(MacAddr::Broadcast().bytes.begin(), 6, frame.begin());
  link.Send(MacAddr::FromIndex(1), frame);
  eq.RunToCompletion();
  EXPECT_EQ(a.frames, 0u);
  EXPECT_EQ(b.frames, 1u);
  EXPECT_EQ(c.frames, 1u);
}

// Records which endpoint received each frame, and where the bytes lived.
struct Delivery {
  int endpoint;
  const uint8_t* buffer;
  std::vector<uint8_t> bytes;
};

class RecordingEndpoint : public NetEndpoint {
 public:
  RecordingEndpoint(int id, std::vector<Delivery>* log) : id_(id), log_(log) {}
  void DeliverFrame(const std::vector<uint8_t>& frame) override {
    log_->push_back(Delivery{id_, frame.data(), frame});
  }

 private:
  int id_;
  std::vector<Delivery>* log_;
};

MacAddr MacOf(uint64_t v) {
  MacAddr mac;
  for (int i = 5; i >= 0; --i) {
    mac.bytes[static_cast<size_t>(i)] = static_cast<uint8_t>(v & 0xff);
    v >>= 8;
  }
  return mac;
}

std::vector<uint8_t> FrameTo(const MacAddr& dst, size_t size, uint8_t fill) {
  std::vector<uint8_t> frame(size, fill);
  std::copy_n(dst.bytes.begin(), 6, frame.begin());
  return frame;
}

// One broadcast: every port but the sender receives it, in ascending MAC
// (byte-wise) order, and all of them read the same buffer.
TEST(SharedLink, BroadcastSharesOneBufferInAscendingMacOrder) {
  EventQueue eq;
  SharedLink link(&eq, NetworkModel::Calibrated());
  std::vector<Delivery> log;
  // MACs attached out of order, differing in high and low bytes; enough
  // ports to grow the port table several times.
  std::vector<uint64_t> macs;
  for (uint64_t i = 0; i < 300; ++i) {
    macs.push_back(((i * 7919) % 300) << ((i % 3) * 16) | 1);
  }
  std::sort(macs.begin(), macs.end());
  macs.erase(std::unique(macs.begin(), macs.end()), macs.end());
  std::vector<uint64_t> attach_order = macs;
  std::reverse(attach_order.begin(), attach_order.begin() + attach_order.size() / 2);
  std::vector<std::unique_ptr<RecordingEndpoint>> endpoints;
  for (uint64_t mac : attach_order) {
    endpoints.push_back(std::make_unique<RecordingEndpoint>(static_cast<int>(mac), &log));
    link.Attach(MacOf(mac), endpoints.back().get());
  }
  const uint64_t sender = macs[macs.size() / 3];
  const std::vector<uint8_t> frame = FrameTo(MacAddr::Broadcast(), 60, 0xab);
  link.Send(MacOf(sender), frame);
  eq.RunToCompletion();

  ASSERT_EQ(log.size(), macs.size() - 1);
  size_t next = 0;
  for (uint64_t mac : macs) {
    if (mac == sender) {
      continue;
    }
    EXPECT_EQ(log[next].endpoint, static_cast<int>(mac)) << "delivery " << next;
    EXPECT_EQ(log[next].buffer, log[0].buffer) << "delivery " << next << " got its own copy";
    EXPECT_EQ(log[next].bytes, frame);
    ++next;
  }
}

// Unicast lookups stay exact through Detach (which moves later entries of
// a probe run into the hole), re-Attach of a detached MAC, and re-Attach
// over a live one; broadcasts before and after each change reach exactly
// the live ports, in MAC order. Pseudo-random MACs make probe runs collide.
TEST(SharedLink, UnicastAfterDetachAndReattach) {
  EventQueue eq;
  SharedLink link(&eq, NetworkModel::Calibrated());
  std::vector<Delivery> log;
  constexpr int kPorts = 400;
  std::vector<uint64_t> macs;
  uint64_t x = 0x2545f4914f6cdd1dULL;
  for (int i = 0; i < kPorts; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    macs.push_back(x & 0xffffffffffffULL);
  }
  std::vector<uint64_t> distinct = macs;
  std::sort(distinct.begin(), distinct.end());
  ASSERT_EQ(std::unique(distinct.begin(), distinct.end()), distinct.end());
  std::vector<std::unique_ptr<RecordingEndpoint>> endpoints;
  for (int i = 0; i < kPorts; ++i) {
    endpoints.push_back(std::make_unique<RecordingEndpoint>(i, &log));
    link.Attach(MacOf(macs[static_cast<size_t>(i)]), endpoints.back().get());
  }
  std::vector<int> owner(kPorts);
  for (int i = 0; i < kPorts; ++i) {
    owner[static_cast<size_t>(i)] = i;
  }
  const MacAddr sender = MacOf(1);
  // A broadcast must reach exactly the ports `owner` names, in MAC order.
  auto expect_broadcast = [&] {
    std::vector<std::pair<uint64_t, int>> live;
    for (int i = 0; i < kPorts; ++i) {
      if (owner[static_cast<size_t>(i)] >= 0) {
        live.emplace_back(macs[static_cast<size_t>(i)], owner[static_cast<size_t>(i)]);
      }
    }
    std::sort(live.begin(), live.end());
    link.Send(sender, FrameTo(MacAddr::Broadcast(), 60, 0));
    eq.RunToCompletion();
    ASSERT_EQ(log.size(), live.size());
    for (size_t k = 0; k < live.size(); ++k) {
      EXPECT_EQ(log[k].endpoint, live[k].second) << "broadcast delivery " << k;
    }
    log.clear();
  };
  expect_broadcast();
  for (int i = 0; i < kPorts; i += 3) {
    owner[static_cast<size_t>(i)] = -1;
    link.Detach(MacOf(macs[static_cast<size_t>(i)]));
  }
  expect_broadcast();
  link.Detach(MacOf(1));  // never attached: no-op
  RecordingEndpoint replacement(1000, &log);
  link.Attach(MacOf(macs[0]), &replacement);  // port 0 was detached
  owner[0] = 1000;
  RecordingEndpoint override_ep(2000, &log);
  link.Attach(MacOf(macs[2]), &override_ep);  // port 2 is live
  owner[2] = 2000;

  for (int i = 0; i < kPorts; ++i) {
    link.Send(sender, FrameTo(MacOf(macs[static_cast<size_t>(i)]), 64, static_cast<uint8_t>(i)));
    eq.RunToCompletion();
    if (owner[static_cast<size_t>(i)] < 0) {
      EXPECT_TRUE(log.empty()) << "detached port " << i << " received a frame";
    } else {
      ASSERT_EQ(log.size(), 1u) << "port " << i;
      EXPECT_EQ(log[0].endpoint, owner[static_cast<size_t>(i)]);
      EXPECT_EQ(log[0].bytes[6], static_cast<uint8_t>(i));
    }
    log.clear();
  }
  expect_broadcast();
}

TEST(SharedLink, MediumSerializesTransmissions) {
  EventQueue eq;
  NetworkModel model = NetworkModel::Calibrated();
  SharedLink link(&eq, model);
  NullEndpoint sink;
  sink.now = &eq.now_ref();
  link.Attach(MacAddr::FromIndex(2), &sink, 0);

  // Two back-to-back 1500-byte frames: the second arrives one
  // serialization time after the first.
  std::vector<uint8_t> frame(1500, 0);
  std::copy_n(MacAddr::FromIndex(2).bytes.begin(), 6, frame.begin());
  link.Send(MacAddr::FromIndex(1), frame);
  link.Send(MacAddr::FromIndex(1), frame);
  eq.RunToCompletion();
  ASSERT_EQ(sink.times.size(), 2u);
  Cycles gap = sink.times[1] - sink.times[0];
  double expected_secs = (1500 + 24) * 8 / model.link_bandwidth_bps;
  EXPECT_NEAR(SecondsFromCycles(gap), expected_secs, expected_secs * 0.05);
}

TEST(SharedLink, DropEveryNDropsDeterministically) {
  EventQueue eq;
  SharedLink link(&eq, NetworkModel::Calibrated());
  NullEndpoint sink;
  link.Attach(MacAddr::FromIndex(2), &sink);
  link.set_drop_every(3);
  std::vector<uint8_t> frame(64, 0);
  std::copy_n(MacAddr::FromIndex(2).bytes.begin(), 6, frame.begin());
  for (int i = 0; i < 9; ++i) {
    link.Send(MacAddr::FromIndex(1), frame);
  }
  eq.RunToCompletion();
  EXPECT_EQ(link.frames_dropped(), 3u);
  EXPECT_EQ(sink.frames, 6u);
}

// Keeps every frame it receives.
class FrameRecorder : public NetEndpoint {
 public:
  void DeliverFrame(const std::vector<uint8_t>& frame) override { frames.push_back(frame); }
  std::vector<std::vector<uint8_t>> frames;
};

TEST(ClientMachineArp, LearnsEverySenderAndAnswersOnlyRequestsForItsOwnIp) {
  EventQueue eq;
  SharedLink link(&eq, NetworkModel::Calibrated());
  const MacAddr client_mac = MacAddr::FromIndex(1);
  const Ip4Addr client_ip = Ip4Addr::FromOctets(10, 1, 0, 1);
  ClientMachine client(&eq, &link, client_mac, client_ip, NetworkModel::Calibrated(), 7);
  FrameRecorder peer;
  const MacAddr peer_mac = MacAddr::FromIndex(2);
  link.Attach(peer_mac, &peer);

  auto send_arp = [&](uint16_t opcode, Ip4Addr sender_ip, Ip4Addr target_ip) {
    ArpPacket arp;
    arp.opcode = opcode;
    arp.sender_mac = peer_mac;
    arp.sender_ip = sender_ip;
    arp.target_ip = target_ip;
    link.Send(peer_mac, BuildArpFrame(peer_mac, MacAddr::Broadcast(), arp));
    eq.RunToCompletion();
  };
  // A SYN to `ip` leaves the machine only if it has learned a MAC for it;
  // every frame the peer receives is a SYN or an ARP reply.
  auto learned = [&](Ip4Addr ip) {
    peer.frames.clear();
    TcpPeer* conn = client.OpenConnection(ip, 80, nullptr);
    conn->Connect();
    conn->Abort();
    eq.RunToCompletion();
    FrameView f;
    return peer.frames.size() == 1 && ParseFrame(peer.frames[0], &f) && f.is_tcp() &&
           f.ip.dst == ip;
  };
  auto replies = [&] {
    int n = 0;
    for (const std::vector<uint8_t>& frame : peer.frames) {
      FrameView f;
      n += ParseFrame(frame, &f) && f.is_arp() ? 1 : 0;
    }
    return n;
  };

  // A request for someone else's address: learned, not answered.
  const Ip4Addr a = Ip4Addr::FromOctets(10, 0, 0, 1);
  ASSERT_FALSE(learned(a));
  peer.frames.clear();
  send_arp(1, a, Ip4Addr::FromOctets(192, 168, 7, 7));
  EXPECT_EQ(replies(), 0);
  EXPECT_TRUE(learned(a));

  // A reply, even one addressed to this machine: learned, never answered.
  const Ip4Addr b = Ip4Addr::FromOctets(10, 0, 0, 2);
  peer.frames.clear();
  send_arp(2, b, client_ip);
  EXPECT_EQ(replies(), 0);
  EXPECT_TRUE(learned(b));
  EXPECT_TRUE(learned(a));

  // A request for this machine's address: learned and answered once, to
  // the requester, with this machine's MAC.
  const Ip4Addr c = Ip4Addr::FromOctets(10, 0, 0, 3);
  peer.frames.clear();
  send_arp(1, c, client_ip);
  ASSERT_EQ(peer.frames.size(), 1u);
  FrameView reply;
  ASSERT_TRUE(ParseFrame(peer.frames[0], &reply));
  ASSERT_TRUE(reply.is_arp());
  EXPECT_EQ(reply.eth.dst, peer_mac);
  EXPECT_EQ(reply.arp.opcode, 2);
  EXPECT_EQ(reply.arp.sender_mac, client_mac);
  EXPECT_EQ(reply.arp.sender_ip, client_ip);
  EXPECT_EQ(reply.arp.target_mac, peer_mac);
  EXPECT_EQ(reply.arp.target_ip, c);
  EXPECT_TRUE(learned(c));
  EXPECT_EQ(client.frames_received(), 3u);

  // A later mapping replaces an earlier one (the first entry and a later
  // one): the SYN then goes to a MAC nobody holds.
  for (Ip4Addr ip : {a, c}) {
    client.AddArpEntry(ip, MacAddr::FromIndex(3));
    EXPECT_FALSE(learned(ip));
    client.AddArpEntry(ip, peer_mac);
    EXPECT_TRUE(learned(ip));
  }
}

TEST(ExperimentHarness, BasicRunProducesThroughput) {
  ExperimentSpec spec;
  spec.clients = 4;
  spec.warmup_s = 0.2;
  spec.window_s = 0.4;
  ExperimentResult r = RunExperiment(spec);
  EXPECT_GT(r.conns_per_sec, 100.0);
  EXPECT_EQ(r.client_failures, 0u);
  EXPECT_GT(r.ledger.Get("Main Active Path"), 0u);
  // Conservation over the measurement window.
  double drift = std::abs(static_cast<double>(r.ledger.Total()) -
                          static_cast<double>(r.window_cycles));
  EXPECT_LT(drift / static_cast<double>(r.window_cycles), 0.001);
}

TEST(ExperimentHarness, LinuxComparatorRuns) {
  ExperimentSpec spec;
  spec.linux_server = true;
  spec.clients = 4;
  spec.warmup_s = 0.2;
  spec.window_s = 0.4;
  ExperimentResult r = RunExperiment(spec);
  EXPECT_GT(r.conns_per_sec, 100.0);
}

TEST(ExperimentHarness, DeterministicAcrossRuns) {
  ExperimentSpec spec;
  spec.clients = 2;
  spec.warmup_s = 0.1;
  spec.window_s = 0.2;
  ExperimentResult a = RunExperiment(spec);
  ExperimentResult b = RunExperiment(spec);
  EXPECT_EQ(a.conns_per_sec, b.conns_per_sec);
  EXPECT_EQ(a.completions_total, b.completions_total);
  EXPECT_EQ(a.ledger.Total(), b.ledger.Total());
}

TEST(ExperimentHarness, EnvOverridesRespected) {
  ::setenv("ESCORT_TEST_SECONDS", "1.5", 1);
  EXPECT_DOUBLE_EQ(EnvSeconds("ESCORT_TEST_SECONDS", 9.9), 1.5);
  ::setenv("ESCORT_TEST_SECONDS", "garbage", 1);
  EXPECT_DOUBLE_EQ(EnvSeconds("ESCORT_TEST_SECONDS", 9.9), 9.9);
  ::unsetenv("ESCORT_TEST_SECONDS");
  EXPECT_DOUBLE_EQ(EnvSeconds("ESCORT_TEST_SECONDS", 9.9), 9.9);
}

TEST(ExperimentHarness, AccuracyRunBalancesExactly) {
  AccuracyResult r = RunAccountingAccuracy(ServerConfig::kAccounting, 10);
  EXPECT_EQ(r.requests, 10u);
  EXPECT_EQ(r.ledger.Total(), r.total_measured);
  EXPECT_GT(r.ledger.Get("Main Active Path"), 0u);
  EXPECT_GT(r.ledger.Get("Passive SYN Path"), 0u);
}

TEST(ExperimentHarness, KillCostMatchesTable2Band) {
  KillCostResult r = RunKillCost(ServerConfig::kAccounting, 3);
  EXPECT_EQ(r.kills, 3u);
  // Calibrated near the paper's 17,951 cycles.
  EXPECT_GT(r.mean_cycles, 10'000.0);
  EXPECT_LT(r.mean_cycles, 30'000.0);

  KillCostResult pd = RunKillCost(ServerConfig::kAccountingPd, 3);
  // Full separation costs several times more (paper: 111,568 vs 17,951).
  EXPECT_GT(pd.mean_cycles, 3 * r.mean_cycles);
}

}  // namespace
}  // namespace escort

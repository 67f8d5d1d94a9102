// Statistical attack detection tests (src/server/detect.h): SPRT decision
// boundaries against hand-computed log-likelihood ratios, the learned
// ledger baseline on a scripted sample stream, and sharded equivalence of
// the detection decision sequence.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/server/detect.h"
#include "src/server/policy.h"
#include "src/sim/rng.h"
#include "src/workload/experiment.h"
#include "tests/testbed.h"

namespace escort {
namespace {

DetectSpec SprtSpec() {
  DetectSpec spec;
  spec.mode = DetectMode::kSprt;
  return spec;  // defaults: alpha 0.01, beta 0.02, lambda0 0.33, lambda1 0.60
}

TEST(SprtDetector, ThresholdsMatchHandComputedWald) {
  Testbed tb(ServerConfig::kAccounting);
  SprtDetector det(tb.server.get(), nullptr, SprtSpec());

  // Wald's boundaries and increments in nats, by hand:
  //   inc_bad  = ln(0.60 / 0.33)        =  0.59784
  //   inc_good = ln(0.40 / 0.67)        = -0.51583
  //   A        = ln((1-0.02) / 0.01)    =  4.58497  (decide attack)
  //   B        = ln(0.02 / (1-0.01))    = -3.90202  (decide benign)
  // The detector stores micro-nats: value * 2^20, rounded once.
  const double scale = 1048576.0;
  EXPECT_EQ(det.bad_increment(), std::llround(std::log(0.60 / 0.33) * scale));
  EXPECT_EQ(det.good_increment(), std::llround(std::log(0.40 / 0.67) * scale));
  EXPECT_EQ(det.accept_attack_threshold(), std::llround(std::log(0.98 / 0.01) * scale));
  EXPECT_EQ(det.accept_benign_threshold(), std::llround(std::log(0.02 / 0.99) * scale));
  // Sanity against the hand values (micro-nat rounding is < 1e-6 nats).
  EXPECT_NEAR(static_cast<double>(det.bad_increment()) / scale, 0.59784, 1e-4);
  EXPECT_NEAR(static_cast<double>(det.accept_attack_threshold()) / scale, 4.58497, 1e-4);
}

TEST(SprtDetector, DecidesAttackAtTheEighthBadOutcome) {
  // ceil(A / inc_bad) = ceil(4.58497 / 0.59784) = 8: seven bad outcomes
  // leave the test undecided, the eighth crosses the attack boundary.
  Testbed tb(ServerConfig::kAccounting);
  BlacklistPolicy::Options popts;
  popts.strikes = 1;
  BlacklistPolicy blacklist(tb.server.get(), popts);
  SprtDetector det(tb.server.get(), &blacklist, SprtSpec());

  Ip4Addr attacker = Ip4Addr::FromOctets(10, 9, 9, 1);
  for (int i = 0; i < 7; ++i) {
    det.Observe(attacker, TcpConnOutcome::kSynDropped);
    EXPECT_TRUE(det.detections().empty()) << "decided after " << i + 1 << " outcomes";
    EXPECT_GT(det.SubnetLlr(attacker), 0);
  }
  det.Observe(attacker, TcpConnOutcome::kHalfOpenExpired);  // any bad outcome
  ASSERT_EQ(det.detections().size(), 1u);
  EXPECT_EQ(det.detections()[0].addr.value, attacker.value);
  EXPECT_STREQ(det.detections()[0].source, "sprt");
  // The decision chained into the blacklist and reset the accumulator.
  EXPECT_TRUE(blacklist.IsBlacklisted(attacker, tb.eq.now()));
  EXPECT_EQ(det.SubnetLlr(attacker), 0);
}

TEST(SprtDetector, AcceptsBenignAndRestarts) {
  // ceil(|B| / |inc_good|) = ceil(3.90202 / 0.51583) = 8 completions to
  // accept H0; the accumulator restarts at zero and never reports.
  Testbed tb(ServerConfig::kAccounting);
  SprtDetector det(tb.server.get(), nullptr, SprtSpec());
  Ip4Addr good = Ip4Addr::FromOctets(10, 1, 1, 1);
  for (int i = 0; i < 7; ++i) {
    det.Observe(good, TcpConnOutcome::kCompleted);
    EXPECT_LT(det.SubnetLlr(good), 0);
  }
  det.Observe(good, TcpConnOutcome::kCompleted);
  EXPECT_EQ(det.SubnetLlr(good), 0);
  EXPECT_TRUE(det.detections().empty());
}

TEST(SprtDetector, MixedTrafficInOneSubnetNeedsMoreEvidence) {
  // Alternating good/bad drifts by inc_bad + inc_good = +0.082 nats per
  // pair — far from both boundaries, so no decision for a long while.
  Testbed tb(ServerConfig::kAccounting);
  SprtDetector det(tb.server.get(), nullptr, SprtSpec());
  Ip4Addr mixed = Ip4Addr::FromOctets(10, 2, 2, 2);
  for (int i = 0; i < 20; ++i) {
    det.Observe(mixed, TcpConnOutcome::kAborted);
    det.Observe(mixed, TcpConnOutcome::kCompleted);
  }
  EXPECT_TRUE(det.detections().empty());
  EXPECT_GT(det.SubnetLlr(mixed), 0);
}

TEST(SprtDetector, HoldoffSuppressesImmediateReReport) {
  // After a decision, outcomes from the subnet are ignored until the
  // holdoff deadline — the penalty path needs time to take effect.
  Testbed tb(ServerConfig::kAccounting);
  SprtDetector det(tb.server.get(), nullptr, SprtSpec());
  Ip4Addr attacker = Ip4Addr::FromOctets(10, 9, 9, 2);
  for (int i = 0; i < 16; ++i) {
    det.Observe(attacker, TcpConnOutcome::kSynDropped);
  }
  EXPECT_EQ(det.detections().size(), 1u);  // not two, despite 2x8 outcomes
}

TEST(SprtDetector, SubnetAggregationPoolsRotatingAddresses) {
  // Four bad outcomes each from two addresses of one /24 cross the
  // boundary together at the eighth observation.
  Testbed tb(ServerConfig::kAccounting);
  SprtDetector det(tb.server.get(), nullptr, SprtSpec());
  Ip4Addr a = Ip4Addr::FromOctets(10, 9, 9, 10);
  Ip4Addr b = Ip4Addr::FromOctets(10, 9, 9, 20);
  for (int i = 0; i < 4; ++i) {
    det.Observe(a, TcpConnOutcome::kSynDropped);
    det.Observe(b, TcpConnOutcome::kSynDropped);
  }
  EXPECT_EQ(det.detections().size(), 1u);
  EXPECT_EQ(det.detections()[0].subnet, a.value >> 8);
}

TEST(BaselineDetector, ScriptedLedgerFlagsOutliers) {
  Testbed tb(ServerConfig::kAccounting);
  DetectSpec spec;
  spec.mode = DetectMode::kBaseline;  // k_sigma 3, min_samples 16, floor 0.25
  BaselineDetector det(tb.server.get(), nullptr, spec, CyclesFromSeconds(10.0));

  // Identical samples: sigma is exactly 0, so the floor governs. With
  // mean 100 the effective sigma is 0.25 * 100 + 1 = 26, and the threshold
  // is 100 + 3 * 26 = 178.
  for (int i = 0; i < 16; ++i) {
    det.LearnSample("cgi", 100, 4, 2);
  }
  det.Freeze();
  ASSERT_TRUE(det.frozen());
  EXPECT_EQ(det.samples_learned("cgi"), 16u);
  EXPECT_FALSE(det.IsOutlier("cgi", 100, 4, 2));
  EXPECT_FALSE(det.IsOutlier("cgi", 178, 4, 2));  // exactly at the boundary
  EXPECT_TRUE(det.IsOutlier("cgi", 179, 4, 2));
  // Any single dimension over its threshold flags. Pages: 4 + 3*(1+1) = 10.
  EXPECT_FALSE(det.IsOutlier("cgi", 100, 10, 2));
  EXPECT_TRUE(det.IsOutlier("cgi", 100, 11, 2));
}

TEST(BaselineDetector, UnlearnedClassNeverFlags) {
  Testbed tb(ServerConfig::kAccounting);
  DetectSpec spec;
  spec.mode = DetectMode::kBaseline;
  BaselineDetector det(tb.server.get(), nullptr, spec, CyclesFromSeconds(10.0));
  for (int i = 0; i < 15; ++i) {  // one short of min_samples
    det.LearnSample("cgi", 100, 4, 2);
  }
  det.Freeze();
  EXPECT_FALSE(det.IsOutlier("cgi", 1000000, 1000, 1000));
  EXPECT_FALSE(det.IsOutlier("never-seen", 1000000, 1000, 1000));
}

TEST(BaselineDetector, FrozenStopsLearning) {
  Testbed tb(ServerConfig::kAccounting);
  DetectSpec spec;
  spec.mode = DetectMode::kBaseline;
  BaselineDetector det(tb.server.get(), nullptr, spec, CyclesFromSeconds(10.0));
  for (int i = 0; i < 16; ++i) {
    det.LearnSample("cgi", 100, 4, 2);
  }
  det.Freeze();
  det.LearnSample("cgi", 100000, 4, 2);  // must not poison the baseline
  EXPECT_EQ(det.samples_learned("cgi"), 16u);
  EXPECT_TRUE(det.IsOutlier("cgi", 179, 4, 2));
}

// --- the watch cache ----------------------------------------------------

// A server without the testbed's conservation audit: the differential
// below scripts path ledgers directly, which no real charge produced.
struct BareServer {
  BareServer() {
    link = std::make_unique<SharedLink>(&eq, NetworkModel::Calibrated());
    WebServerOptions opts;
    opts.config = ServerConfig::kAccounting;
    server = std::make_unique<EscortWebServer>(&eq, link.get(), opts);
  }
  EventQueue eq;
  std::unique_ptr<SharedLink> link;
  std::unique_ptr<EscortWebServer> server;
};

struct WatchedPath {
  Path* path = nullptr;
  std::string cls;
  bool has_raddr = false;
  uint32_t raddr = 0;
};

// The cached per-item watch must decide exactly as the uncached,
// string-keyed IsOutlier on the path's class — over randomized baselines
// and ledgers, including values at each learned limit, and across path
// teardown (clean and killed) and replacement.
TEST(BaselineDetector, WatchCacheMatchesUncachedIsOutlier) {
  BareServer bare;
  DetectSpec spec;
  spec.mode = DetectMode::kBaseline;
  BaselineDetector det(bare.server.get(), nullptr, spec, CyclesFromSeconds(10.0));
  PathManager& paths = bare.server->paths();
  Rng rng(2024);

  // c0..c3 learn between min_samples - 3 and min_samples + 28 samples
  // (some stay unlearned); c4 never learns; c5 learns identical samples,
  // so its thresholds are whole numbers (178 kilocycles, 10 pages).
  const std::vector<std::string> classes = {"c0", "c1", "c2", "c3", "c4", "c5"};
  for (uint64_t i = 0; i < spec.baseline_min_samples; ++i) {
    det.LearnSample("c5", 100, 4, 2);
  }
  for (size_t c = 0; c < 4; ++c) {
    const uint64_t n = spec.baseline_min_samples - 3 + rng.NextBelow(32);
    const uint64_t kc = 50 + rng.NextBelow(400);
    for (uint64_t i = 0; i < n; ++i) {
      det.LearnSample(classes[c], kc + rng.NextBelow(kc / 2 + 1), rng.NextBelow(8),
                      rng.NextBelow(3));
    }
  }
  det.Freeze();

  uint32_t next_addr = 1;
  auto create_as = [&](const std::string& cls, bool has_raddr) {
    WatchedPath w;
    w.cls = cls;
    Attributes attrs;
    if (has_raddr) {
      w.has_raddr = true;
      w.raddr = Ip4Addr::FromOctets(10, 0, 9, 0).value + next_addr++;
      attrs.SetInt("raddr", w.raddr);
    }
    w.path = paths.Create(bare.server->arp(), attrs, w.cls, 0);
    return w;
  };
  auto create = [&] {
    const std::string& cls = classes[rng.NextBelow(classes.size())];
    return create_as(cls, rng.NextBelow(4) != 0);
  };
  auto expect_same = [&](const WatchedPath& w, const char* ctx) {
    const ResourceUsage& u = w.path->usage();
    const bool want =
        w.has_raddr && det.IsOutlier(w.cls, u.cycles >> 10, u.pages, u.iobuffer_locks);
    const size_t before = det.detections().size();
    ASSERT_EQ(det.WatchThread(w.path, nullptr), want)
        << ctx << " " << w.cls << " kc=" << (u.cycles >> 10) << " pages=" << u.pages
        << " locks=" << u.iobuffer_locks;
    ASSERT_EQ(det.detections().size(), before + (want ? 1 : 0));
    if (want) {
      EXPECT_EQ(det.detections().back().addr.value, w.raddr);
    }
  };

  std::vector<WatchedPath> live;
  for (int i = 0; i < 24; ++i) {
    live.push_back(create());
  }
  for (int round = 0; round < 60; ++round) {
    for (const WatchedPath& w : live) {
      ResourceUsage& u = w.path->usage();
      u.cycles = rng.NextBelow(uint64_t{1200} << 10);
      u.pages = rng.NextBelow(24);
      u.iobuffer_locks = rng.NextBelow(8);
      expect_same(w, "random");
    }
    EXPECT_EQ(det.watched_paths(), live.size());
    // Tear down a few paths, clean or killed, and replace them: each
    // teardown drops its cache entry, and a replacement is not yet cached.
    size_t replaced = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      if (rng.NextBelow(6) != 0) continue;
      if (rng.NextBelow(2) == 0) {
        paths.Kill(live[i].path);
      } else {
        paths.Destroy(live[i].path);
      }
      live[i] = create();
      ++replaced;
    }
    EXPECT_EQ(det.watched_paths(), live.size() - replaced) << "round " << round;
  }

  // Each learned class at its exact kilocycle and page limits: the
  // smallest flagged value (IsOutlier is monotone in it) and its
  // neighbours, with the low ten cycle bits both clear and set.
  EXPECT_GT(det.detections().size(), 100u);  // both answers were exercised
  live.push_back(create_as("c5", true));
  int at_limit = 0;
  for (WatchedPath& w : live) {
    if (!w.has_raddr || !det.IsOutlier(w.cls, uint64_t{1} << 40, 0, 0)) continue;
    ++at_limit;
    auto least_flagged = [&](auto flags) {
      uint64_t lo = 0, hi = uint64_t{1} << 40;
      while (lo < hi) {
        const uint64_t mid = lo + (hi - lo) / 2;
        if (flags(mid)) hi = mid; else lo = mid + 1;
      }
      return lo;
    };
    const uint64_t kc_limit =
        least_flagged([&](uint64_t v) { return det.IsOutlier(w.cls, v, 0, 0); });
    const uint64_t page_limit =
        least_flagged([&](uint64_t v) { return det.IsOutlier(w.cls, 0, v, 0); });
    ResourceUsage& u = w.path->usage();
    u.iobuffer_locks = 0;
    for (uint64_t kc : {kc_limit - 1, kc_limit, kc_limit + 1}) {
      for (uint64_t low_bits : {uint64_t{0}, uint64_t{1023}}) {
        u.cycles = (kc << 10) | low_bits;
        u.pages = 0;
        expect_same(w, "kilocycle limit");
      }
    }
    u.cycles = 0;
    for (uint64_t pages : {page_limit - 1, page_limit, page_limit + 1}) {
      u.pages = pages;
      expect_same(w, "page limit");
    }
  }
  EXPECT_GT(at_limit, 1);
}

// End-to-end sharded equivalence: the detection sequence — and therefore
// the decision digest — must be bit-identical at shards 1 and 4.
void ExpectDetectionEquivalent(DetectMode mode, int cgi_attackers, double syn_rate) {
  ExperimentSpec spec;
  spec.config = ServerConfig::kAccounting;
  spec.clients = 8;
  spec.doc = "/doc1b";
  spec.cgi_attackers = cgi_attackers;
  spec.syn_attack_rate = syn_rate;
  spec.detect.mode = mode;
  spec.warmup_s = 0.1;
  spec.window_s = 0.3;

  spec.shards = 1;
  ExperimentResult single = RunExperiment(spec);
  spec.shards = 4;
  ExperimentResult sharded = RunExperiment(spec);

  EXPECT_EQ(single.detection.decision_digest, sharded.detection.decision_digest)
      << DetectModeName(mode);
  EXPECT_EQ(single.detection.detections, sharded.detection.detections);
  EXPECT_EQ(single.detection.true_positives, sharded.detection.true_positives);
  EXPECT_EQ(single.detection.false_positives, sharded.detection.false_positives);
  EXPECT_EQ(single.detection.blacklist_size, sharded.detection.blacklist_size);
  EXPECT_EQ(single.detection.first_detection_ms, sharded.detection.first_detection_ms);
  // The detector must actually have decided something, or the equivalence
  // check is vacuous.
  EXPECT_GT(single.detection.detections, 0u) << DetectModeName(mode);
}

TEST(DetectionShardedEquivalence, SprtOnSynFlood) {
  ExpectDetectionEquivalent(DetectMode::kSprt, 0, 1000.0);
}

TEST(DetectionShardedEquivalence, BaselineOnRunawayCgi) {
  ExpectDetectionEquivalent(DetectMode::kBaseline, 10, 0.0);
}

}  // namespace
}  // namespace escort

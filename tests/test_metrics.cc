// Metrics-plane core tests: log2 histogram bucket math, the cross-shard
// ShardedSeries merge (differential against a naive serial reference),
// the pinned metrics-JSON schema, byte-identity of the --metrics document
// across --jobs/--shards, and zero perturbation of simulation results
// when metrics collection is toggled.

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/metrics.h"
#include "src/sim/rng.h"
#include "src/workload/sweep.h"

namespace escort {
namespace {

// --- histogram bucket boundaries ---------------------------------------

TEST(MetricHistogramTest, BucketOfEdges) {
  const uint32_t kBuckets = 40;
  EXPECT_EQ(MetricHistogram::BucketOf(0, kBuckets), 0u);
  EXPECT_EQ(MetricHistogram::BucketOf(1, kBuckets), 1u);
  // Bucket k > 0 holds [2^(k-1), 2^k): both edges of several powers.
  for (uint32_t k = 1; k < 20; ++k) {
    const uint64_t lo = 1ull << (k - 1);
    const uint64_t hi = (1ull << k) - 1;
    EXPECT_EQ(MetricHistogram::BucketOf(lo, kBuckets), k) << "lo of bucket " << k;
    EXPECT_EQ(MetricHistogram::BucketOf(hi, kBuckets), k) << "hi of bucket " << k;
  }
  // Values past the range clamp into the last bucket.
  EXPECT_EQ(MetricHistogram::BucketOf(~0ull, kBuckets), kBuckets - 1);
  EXPECT_EQ(MetricHistogram::BucketOf(1ull << 50, 8), 7u);
}

TEST(MetricHistogramTest, BucketUpperBounds) {
  EXPECT_EQ(MetricHistogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(MetricHistogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(MetricHistogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(MetricHistogram::BucketUpperBound(10), 1023u);
  EXPECT_EQ(MetricHistogram::BucketUpperBound(64), ~0ull);
  // Consistency: a value's bucket upper bound is >= the value.
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 100ull, 65535ull, 65536ull}) {
    const uint32_t b = MetricHistogram::BucketOf(v, 40);
    EXPECT_GE(MetricHistogram::BucketUpperBound(b), v) << "v=" << v;
  }
}

TEST(MetricHistogramTest, ObserveAndPercentiles) {
  MetricHistogram h(16);
  EXPECT_EQ(h.Percentile(0.5), 0u);  // empty
  for (int i = 0; i < 90; ++i) h.Observe(3);    // bucket 2, ub 3
  for (int i = 0; i < 10; ++i) h.Observe(200);  // bucket 8, ub 255
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 90u * 3 + 10u * 200);
  EXPECT_EQ(h.Percentile(0.50), 3u);
  EXPECT_EQ(h.Percentile(0.90), 3u);
  EXPECT_EQ(h.Percentile(0.99), 255u);
  EXPECT_EQ(h.Percentile(0.0), 3u);   // clamped to rank 1
  EXPECT_EQ(h.Percentile(1.0), 255u);
}

// --- cross-shard merge: differential vs a naive serial reference --------

// The merged series must be a pure function of the (when, delta) event
// multiset — independent of how events are partitioned across lanes.
TEST(ShardedSeriesTest, MergeMatchesSerialReferenceAtAnyLaneCount) {
  const Cycles kInterval = 1000;
  const int kEvents = 5000;
  Rng rng(0xE5C0A7u);

  // One global event sequence with non-decreasing times (as produced by
  // a forward-running simulation).
  std::vector<std::pair<Cycles, int64_t>> events;
  events.reserve(kEvents);
  Cycles when = 0;
  for (int i = 0; i < kEvents; ++i) {
    when += rng.NextBelow(300);
    const int64_t delta = static_cast<int64_t>(rng.NextBelow(7)) - 3;
    events.emplace_back(when, delta);
  }

  // Naive serial reference: sum per bin, then prefix-sum.
  std::map<uint64_t, int64_t> by_bin;
  for (const auto& [t, d] : events) by_bin[t / kInterval] += d;
  std::vector<std::pair<Cycles, int64_t>> want;
  int64_t running = 0;
  for (const auto& [bin, d] : by_bin) {
    running += d;
    want.emplace_back(bin * kInterval, running);
  }

  for (uint32_t lanes : {1u, 2u, 4u, 8u}) {
    ShardedSeries s(lanes, kInterval);
    // Partition by a seeded hash so every lane count sees a different
    // partition of the same events.
    Rng part(0xBADCAFEu + lanes);
    for (const auto& [t, d] : events) {
      s.Record(static_cast<uint32_t>(part.NextBelow(lanes)), t, d);
    }
    EXPECT_EQ(s.Merged(), want) << "lanes=" << lanes;
  }
}

TEST(ShardedSeriesTest, CoalescesWithinBinAndClampsLane) {
  ShardedSeries s(2, 100);
  s.Record(0, 10, 1);
  s.Record(0, 20, 2);   // same bin, coalesces
  s.Record(7, 150, 5);  // out-of-range lane clamps to the last lane
  auto merged = s.Merged();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0], (std::pair<Cycles, int64_t>{0, 3}));
  EXPECT_EQ(merged[1], (std::pair<Cycles, int64_t>{100, 8}));
}

// --- golden JSON schema --------------------------------------------------

// Pins the exact serialized form. A diff here is a schema change: update
// the golden string AND tools/ consumers (check_bench_json.py renderers,
// DESIGN.md §6.11) together.
TEST(MetricsRegistryTest, GoldenDocument) {
  MetricsConfig mc;
  mc.sample_interval = 100;
  mc.histogram_buckets = 8;
  MetricsRegistry reg(mc);

  ESCORT_METRIC_COUNTER(&reg, "a.count", "alpha")->Add(3);
  ESCORT_METRIC_GAUGE(&reg, "g", "gee")->Set(-2);
  MetricHistogram* h = ESCORT_METRIC_HISTOGRAM(&reg, "h", "aitch");
  h->Observe(0);
  h->Observe(1);
  h->Observe(5);
  ShardedSeries* s = ESCORT_METRIC_SHARDED(&reg, "s", "ess", 2);
  s->Record(0, 0, 1);
  s->Record(1, 50, 5);
  s->Record(0, 150, 2);
  reg.Sample(100);

  const std::string cell = reg.SerializeCell("golden");
  const std::string want_cell =
      "{\"cell\": \"golden\", \"sample_interval\": 100,\n"
      "\"counters\": [\n"
      "{\"name\": \"a.count\", \"help\": \"alpha\", \"value\": 3, "
      "\"series\": [[100,3]]}],\n"
      "\"gauges\": [\n"
      "{\"name\": \"g\", \"help\": \"gee\", \"value\": -2, "
      "\"series\": [[100,-2]]}],\n"
      "\"histograms\": [\n"
      "{\"name\": \"h\", \"help\": \"aitch\", \"count\": 3, \"sum\": 6, "
      "\"p50\": 0, \"p90\": 1, \"p99\": 1, \"buckets\": [1,1,0,1]}],\n"
      "\"sharded\": [\n"
      "{\"name\": \"s\", \"help\": \"ess\", \"series\": [[0,6],[100,8]]}]}";
  EXPECT_EQ(cell, want_cell);

  const std::string doc = MetricsRegistry::WrapDocument({cell});
  const std::string want_doc = "{\n\"escort_metrics_schema\": 1,\n\"cpu_hz\": " +
                               std::to_string(kCpuHz) + ",\n\"cells\": [\n" +
                               want_cell + "\n]\n}\n";
  EXPECT_EQ(doc, want_doc);
}

TEST(MetricsRegistryTest, SampleCoalescesRepeatedValues) {
  MetricsRegistry reg;
  MetricCounter* c = ESCORT_METRIC_COUNTER(&reg, "c", "c");
  c->Increment();
  reg.Sample(10);
  reg.Sample(20);  // unchanged value: no new point
  c->Increment();
  reg.Sample(30);
  const std::string cell = reg.SerializeCell("x");
  EXPECT_NE(cell.find("\"series\": [[10,1],[30,2]]"), std::string::npos) << cell;
}

TEST(MetricsRegistryTest, NullSafeHelpersNoOp) {
  MetricAdd(static_cast<MetricCounter*>(nullptr));
  MetricAdd(static_cast<MetricGauge*>(nullptr), 3);
  MetricSet(nullptr, 5);
  MetricObserve(nullptr, 9);
  MetricRecord(nullptr, 0, 100, 1);  // all must be safe no-ops
}

// --- byte-identity across --jobs/--shards --------------------------------

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<SweepCell> SmallGrid() {
  Sweep proto("metrics_identity");
  ExperimentSpec benign;
  benign.config = ServerConfig::kAccountingPd;
  benign.clients = 4;
  benign.doc = "/doc1k";
  benign.warmup_s = 0.05;
  benign.window_s = 0.2;
  proto.Add("benign", benign);
  ExperimentSpec attack = benign;
  attack.syn_attack_rate = 800.0;
  proto.Add("attack", attack);
  return proto.cells();
}

TEST(MetricsDeterminismTest, DocumentByteIdenticalAcrossJobsAndShards) {
  std::vector<SweepCell> grid = SmallGrid();
  std::string reference;
  for (int jobs : {1, 4}) {
    for (int shards : {1, 4}) {
      const std::string path = testing::TempDir() + "metrics_j" +
                               std::to_string(jobs) + "_s" +
                               std::to_string(shards) + ".json";
      Sweep sweep("metrics_identity");
      for (const SweepCell& cell : grid) sweep.Add(cell.id, cell.spec);
      SweepOptions opts;
      opts.jobs = jobs;
      opts.shards = shards;
      opts.metrics_path = path;
      sweep.Run(opts);
      ASSERT_EQ(sweep.failed_count(), 0);
      const std::string doc = Slurp(path);
      ASSERT_FALSE(doc.empty());
      if (reference.empty()) {
        reference = doc;
      } else {
        EXPECT_EQ(doc, reference)
            << "metrics document differs at jobs=" << jobs
            << " shards=" << shards;
      }
    }
  }
}

// --- zero perturbation ---------------------------------------------------

// Metrics collection is observation only: toggling it must not change a
// single bit of the simulation results. The sampler runs as scheduled
// events, so this is a real property, not a tautology.
TEST(MetricsDeterminismTest, CollectionDoesNotPerturbResults) {
  for (bool attack : {false, true}) {
    ExperimentSpec spec;
    spec.config = ServerConfig::kAccountingPd;
    spec.clients = 4;
    spec.doc = "/doc1k";
    spec.warmup_s = 0.05;
    spec.window_s = 0.2;
    if (attack) spec.syn_attack_rate = 800.0;

    ExperimentSpec with = spec;
    with.collect_metrics = true;
    ExperimentSpec without = spec;
    without.collect_metrics = false;
    const ExperimentResult a = RunExperiment(with);
    const ExperimentResult b = RunExperiment(without);

    const std::string ctx = attack ? "attack" : "benign";
    EXPECT_EQ(a.conns_per_sec, b.conns_per_sec) << ctx;
    EXPECT_EQ(a.completions_total, b.completions_total) << ctx;
    EXPECT_EQ(a.client_failures, b.client_failures) << ctx;
    EXPECT_EQ(a.paths_killed, b.paths_killed) << ctx;
    EXPECT_EQ(a.syns_dropped_at_demux, b.syns_dropped_at_demux) << ctx;
    EXPECT_EQ(a.syns_sent, b.syns_sent) << ctx;
    EXPECT_EQ(a.runaway_detections, b.runaway_detections) << ctx;
    EXPECT_EQ(a.window_cycles, b.window_cycles) << ctx;
    EXPECT_EQ(a.ledger.totals(), b.ledger.totals()) << ctx;
    // With collection on, the monitor reports; off, it cannot.
    EXPECT_TRUE(b.incidents.empty()) << ctx;
    if (attack) {
      EXPECT_FALSE(a.incidents.empty()) << ctx;
    }
  }
}

}  // namespace
}  // namespace escort

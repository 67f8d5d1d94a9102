#include "escortbench/workloads.h"

#include <cctype>
#include <cmath>
#include <cstring>

namespace escortbench {
namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Fnv {
 public:
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Multiplies `nominal` by a factor in [0.98, 1.02] drawn from (seed, name,
// field). Seed 0 is the nominal workload.
double Jitter(double nominal, uint64_t seed, const std::string& name, uint64_t field) {
  if (seed == 0) {
    return nominal;
  }
  Fnv key;
  key.Str(name);
  key.U64(field);
  uint64_t r = SplitMix64(seed ^ SplitMix64(key.value()));
  double u = static_cast<double>(r >> 11) / static_cast<double>(uint64_t{1} << 53);
  return nominal * (1.0 + 0.04 * (u - 0.5));
}

int JitterCount(int nominal, uint64_t seed, const std::string& name, uint64_t field) {
  return static_cast<int>(std::lround(Jitter(nominal, seed, name, field)));
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  using escort::DetectMode;
  using escort::ServerConfig;
  escort::ExperimentSpec s;
  if (name == "serve_10k") {
    s.config = ServerConfig::kAccounting;
    s.clients = JitterCount(64, seed, name, 0);
    s.doc = "/doc10k";
  } else if (name == "synflood_pd") {
    s.config = ServerConfig::kAccountingPd;
    s.clients = JitterCount(2000, seed, name, 0);
    s.doc = "/doc1b";
    s.syn_attack_rate = Jitter(10000.0, seed, name, 1);
    s.detect.mode = DetectMode::kSprt;
  } else if (name == "cgi_qos_pd") {
    s.config = ServerConfig::kAccountingPd;
    s.clients = JitterCount(32, seed, name, 0);
    s.doc = "/doc1k";
    s.qos_stream = true;
    s.cgi_attackers = JitterCount(8, seed, name, 2);
    s.detect.mode = DetectMode::kBaseline;
  } else if (name == "crowd_100k") {
    s.config = ServerConfig::kAccounting;
    s.clients = JitterCount(100000, seed, name, 0);
    s.doc = "/doc1b";
  } else {
    return false;
  }
  out->name = name;
  out->spec = s;
  return true;
}

uint64_t EventsFired(const escort::ExperimentResult& r) {
  uint64_t n = 0;
  for (const auto& s : r.shard_profile.per_shard) {
    n += s.events_fired;
  }
  return n;
}

escort::Ip4Addr ClientIp(int i) {
  if (i < 254) {
    return escort::Ip4Addr::FromOctets(10, 0, 1, static_cast<uint8_t>(1 + i));
  }
  int j = i - 254;
  return escort::Ip4Addr::FromOctets(10, static_cast<uint8_t>(8 + j / 65536),
                                     static_cast<uint8_t>((j / 256) % 256),
                                     static_cast<uint8_t>(j % 256));
}

SimSummary Summarize(const escort::ExperimentResult& r) {
  SimSummary s;
  s.events_fired = EventsFired(r);
  s.completions = r.completions_total;
  s.failures = r.client_failures;
  s.ledger = r.ledger.totals();
  s.window_cycles = r.window_cycles;
  s.pd_crossings = r.pd_crossings;
  s.syns_dropped_at_demux = r.syns_dropped_at_demux;
  s.qos_bytes_per_s = r.qos_bytes_per_sec;
  s.decision_digest = r.detection.decision_digest;
  s.incidents = r.incidents;
  return s;
}

uint64_t SimSummary::Digest() const {
  Fnv h;
  h.U64(events_fired);
  h.U64(completions);
  h.U64(failures);
  h.U64(ledger.size());
  for (const auto& [label, cycles] : ledger) {
    h.Str(label);
    h.U64(cycles);
  }
  h.U64(window_cycles);
  h.U64(pd_crossings);
  h.U64(syns_dropped_at_demux);
  h.F64(qos_bytes_per_s);
  h.U64(decision_digest);
  h.U64(incidents.size());
  for (const auto& inc : incidents) {
    h.Str(inc.trigger);
    h.U64(inc.onset);
    h.U64(inc.detected);
    h.U64(inc.contained);
    h.U64(inc.recovered);
    h.U64(inc.pressure_breaches);
    h.U64(inc.detection_signals);
    h.U64(inc.containment_actions);
  }
  return h.value();
}

std::string SimSummary::ConservationError(escort::Cycles tolerance) const {
  escort::Cycles sum = 0;
  for (const auto& [label, cycles] : ledger) {
    sum += cycles;
  }
  escort::Cycles drift = sum > window_cycles ? sum - window_cycles : window_cycles - sum;
  if (drift <= tolerance) {
    return "";
  }
  return "ledger accounts sum to " + std::to_string(sum) + " cycles, window has " +
         std::to_string(window_cycles);
}

std::string AccountKey(const std::string& label) {
  std::string key;
  bool gap = false;
  for (char c : label) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      if (gap && !key.empty()) {
        key += '_';
      }
      key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      gap = false;
    } else {
      gap = true;
    }
  }
  return key;
}

}  // namespace escortbench

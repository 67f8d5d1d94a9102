#include "src/workload/network.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace escort {

uint64_t SharedLink::MacKey(const MacAddr& mac) {
  uint64_t key = 0;
  for (uint8_t b : mac.bytes) {
    key = (key << 8) | b;
  }
  return key;
}

size_t SharedLink::HomeSlot(uint64_t key) const {
  // Fibonacci hashing: testbed MACs differ only in their low bytes.
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) & (table_.size() - 1);
}

size_t SharedLink::FindSlot(uint64_t key) const {
  const size_t mask = table_.size() - 1;
  size_t i = HomeSlot(key);
  while (table_[i].mac != key && table_[i].mac != kNoPort) {
    i = (i + 1) & mask;
  }
  return i;
}

void SharedLink::Grow() {
  std::vector<Port> old = std::move(table_);
  table_.assign(old.size() * 2, Port{});
  for (const Port& port : old) {
    if (port.mac != kNoPort) {
      table_[FindSlot(port.mac)] = port;
    }
  }
}

void SharedLink::Attach(const MacAddr& mac, NetEndpoint* endpoint, Cycles extra_latency) {
  if (2 * (port_count_ + 1) > table_.size()) {
    Grow();
  }
  const uint64_t key = MacKey(mac);
  Port& port = table_[FindSlot(key)];
  if (port.mac == kNoPort) {
    ++port_count_;
  }
  port = Port{key, endpoint, extra_latency, eq_->current_stream()};
  by_mac_stale_ = true;
}

void SharedLink::Detach(const MacAddr& mac) {
  size_t hole = FindSlot(MacKey(mac));
  if (table_[hole].mac == kNoPort) {
    return;
  }
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole when their home slot allows it, so lookups never need tombstones.
  const size_t mask = table_.size() - 1;
  for (size_t j = (hole + 1) & mask; table_[j].mac != kNoPort; j = (j + 1) & mask) {
    if (((j - HomeSlot(table_[j].mac)) & mask) >= ((j - hole) & mask)) {
      table_[hole] = table_[j];
      hole = j;
    }
  }
  table_[hole] = Port{};
  --port_count_;
  by_mac_stale_ = true;
}

const std::vector<uint32_t>& SharedLink::BroadcastOrder() {
  if (by_mac_stale_) {
    by_mac_.clear();
    for (size_t i = 0; i < table_.size(); ++i) {
      if (table_[i].mac != kNoPort) {
        by_mac_.push_back(static_cast<uint32_t>(i));
      }
    }
    std::sort(by_mac_.begin(), by_mac_.end(),
              [this](uint32_t a, uint32_t b) { return table_[a].mac < table_[b].mac; });
    by_mac_stale_ = false;
  }
  return by_mac_;
}

Cycles SharedLink::SerializationTime(size_t frame_bytes) const {
  // Preamble + IFG + CRC overhead on the wire; 64-byte minimum frame.
  size_t wire_bytes = std::max<size_t>(frame_bytes + 24, 84);
  double secs = static_cast<double>(wire_bytes * 8) / model_.link_bandwidth_bps;
  return CyclesFromSeconds(secs);
}

Cycles SharedLink::MinDeliveryLatency(const NetworkModel& model) {
  double secs = static_cast<double>(84 * 8) / model.link_bandwidth_bps;
  return CyclesFromSeconds(secs);
}

void SharedLink::Send(const MacAddr& src, std::vector<uint8_t> frame) {
  if (frame.size() < 14) {
    return;
  }
  MacAddr dst;
  std::copy_n(frame.begin(), 6, dst.bytes.begin());
  eq_->PostSequenced([this, src, dst, f = std::move(frame)](Cycles send_time) mutable {
    TransmitSequenced(src, dst, std::move(f), send_time);
  });
}

void SharedLink::TransmitSequenced(const MacAddr& src, const MacAddr& dst,
                                   std::vector<uint8_t> frame, Cycles send_time) {
  // All shared medium state (arbitration, counters, the drop hook) is
  // touched only here, in deterministic transaction order.
  if (drop_every_ != 0 && (frames_ + 1) % drop_every_ == 0) {
    ++frames_;
    ++dropped_;
    return;
  }
  Cycles tx = SerializationTime(frame.size());
  Cycles start = std::max(send_time, medium_free_);
  medium_free_ = start + tx;
  busy_cycles_ += tx;
  ++frames_;
  bytes_ += frame.size();

  Cycles at = medium_free_;
  if (dst.IsBroadcast()) {
    // One immutable buffer for all receivers: each delivery holds a
    // reference to it, not a copy.
    auto shared = std::make_shared<const std::vector<uint8_t>>(std::move(frame));
    const uint64_t src_key = MacKey(src);
    for (uint32_t slot : BroadcastOrder()) {
      const Port& port = table_[slot];
      if (port.mac == src_key) {
        continue;
      }
      NetEndpoint* ep = port.endpoint;
      eq_->ScheduleAtFrom(port.stream, at + port.extra_latency,
                          [ep, shared] { ep->DeliverFrame(*shared); });
    }
    return;
  }
  const Port& port = table_[FindSlot(MacKey(dst))];
  if (port.mac == kNoPort) {
    return;
  }
  NetEndpoint* ep = port.endpoint;
  eq_->ScheduleAtFrom(port.stream, at + port.extra_latency,
                      [ep, frame = std::move(frame)] { ep->DeliverFrame(frame); });
}

double SharedLink::utilization(Cycles window_start, Cycles window_end) const {
  if (window_end <= window_start) {
    return 0.0;
  }
  return static_cast<double>(busy_cycles_) / static_cast<double>(window_end - window_start);
}

}  // namespace escort

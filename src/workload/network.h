// The simulated testbed network (paper Figure 7).
//
// One shared 100 Mbps Ethernet segment connects the server, the QoS
// receiver, the SYN attacker, and (through the switch + hub, which we fold
// into per-endpoint latency) the client/attacker machines. The segment
// serializes transmissions (a busy medium delays later frames) so the QoS
// stream competes with client traffic for wire capacity exactly as in the
// paper's topology.

#ifndef SRC_WORKLOAD_NETWORK_H_
#define SRC_WORKLOAD_NETWORK_H_

#include <cstdint>
#include <vector>

#include "src/elib/address.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_queue.h"

namespace escort {

class NetEndpoint {
 public:
  virtual ~NetEndpoint() = default;
  virtual void DeliverFrame(const std::vector<uint8_t>& frame) = 0;
};

class SharedLink {
 public:
  SharedLink(EventQueue* eq, NetworkModel model) : eq_(eq), model_(model) {}

  SharedLink(const SharedLink&) = delete;
  SharedLink& operator=(const SharedLink&) = delete;

  // Attaches an endpoint. The port remembers the event queue's current
  // stream: deliveries to this endpoint execute in that stream's context
  // (testbeds construct each machine inside an EventQueue::StreamScope).
  void Attach(const MacAddr& mac, NetEndpoint* endpoint, Cycles extra_latency = 0);
  void Detach(const MacAddr& mac);

  // Transmits a frame. Unicast goes to the owner of the destination MAC;
  // broadcast goes to everyone except the sender, in ascending MAC order.
  // Delivery happens after the medium frees up + serialization + latency.
  // A unicast delivery carries the frame itself; a broadcast wraps it once
  // in an immutable shared buffer that every receiver reads (the same
  // bytes at the same address; the refcount is atomic because deliveries
  // on different shards run in parallel windows).
  //
  // The medium is the one piece of state shared between streams, so the
  // send runs as a sequenced transaction (EventQueue::PostSequenced). In
  // RunUntil windows on a sharded queue it is deposited and drained in
  // deterministic key order, so arbitration is identical at any shard
  // count. That order is not the post order: a Step-driven run (and the
  // serial queue) runs each body inline as it is posted, so its
  // arbitration can differ from a RunUntil-driven run of the same events.
  // Safe to call from any stream (EA002 barrier).
  // ESCORT_SHARD_SAFE
  void Send(const MacAddr& src, std::vector<uint8_t> frame);

  // Lower bound on the wire time of any frame (the 84-byte minimum wire
  // frame at link bandwidth). Every delivery happens at least this long
  // after its send, which makes it the conservative lookahead for
  // ShardedEventQueue.
  static Cycles MinDeliveryLatency(const NetworkModel& model);

  // Test hook: drop every n-th frame (0 = no loss).
  void set_drop_every(uint64_t n) { drop_every_ = n; }

  uint64_t frames_sent() const { return frames_; }
  uint64_t bytes_sent() const { return bytes_; }
  uint64_t frames_dropped() const { return dropped_; }
  double utilization(Cycles window_start, Cycles window_end) const;

 private:
  // The 48-bit MAC as a big-endian integer: integer order is byte-wise
  // MAC order.
  static uint64_t MacKey(const MacAddr& mac);
  static constexpr uint64_t kNoPort = ~uint64_t{0};  // empty table slot

  struct Port {
    uint64_t mac = kNoPort;
    NetEndpoint* endpoint = nullptr;
    Cycles extra_latency = 0;
    EventQueue::StreamId stream = 0;  // deliveries run in this stream
  };

  Cycles SerializationTime(size_t frame_bytes) const;
  // Body of Send: runs at a serial point in sequenced-transaction order.
  void TransmitSequenced(const MacAddr& src, const MacAddr& dst, std::vector<uint8_t> frame,
                         Cycles send_time);
  // Port table: open addressing with linear probing, capacity a power of
  // two at most half full. Returns the slot holding `key`, or the empty
  // slot where it would go.
  size_t FindSlot(uint64_t key) const;
  size_t HomeSlot(uint64_t key) const;
  void Grow();
  // Table slots of the ports in ascending MAC order, rebuilt on the first
  // broadcast after an Attach/Detach.
  const std::vector<uint32_t>& BroadcastOrder();

  EventQueue* const eq_;
  const NetworkModel model_;
  std::vector<Port> table_ = std::vector<Port>(16);
  size_t port_count_ = 0;
  std::vector<uint32_t> by_mac_;
  bool by_mac_stale_ = false;
  Cycles medium_free_ = 0;
  uint64_t frames_ = 0;
  uint64_t bytes_ = 0;
  uint64_t dropped_ = 0;
  uint64_t drop_every_ = 0;
  Cycles busy_cycles_ = 0;
};

}  // namespace escort

#endif  // SRC_WORKLOAD_NETWORK_H_

// Client machines: the PentiumPro workstations of the testbed.
//
// Each machine owns a MAC/IP, answers ARP, and multiplexes TCP connections
// by local port. The client-side TCP (TcpPeer) is a deliberately small,
// independent implementation — it interoperates with the server's TCP
// module over real frames, which cross-checks both codecs and state
// machines. Client-side compute is modelled as fixed delays; client
// machines are never the bottleneck (one logical client per machine, as in
// the paper).
//
// Flyweight connections: TcpPeers live by value in a generation-tagged
// Slab<TcpPeer> (see src/elib/slab.h) that the testbed shares across every
// machine of a shard, so a million concurrent clients cost
// slab-slot bytes per connection instead of a heap allocation plus a
// callback web of std::function captures. Deferred work (retransmit timers,
// delayed ACKs, dispatch delays) captures the peer's ConnHandle and
// revalidates through the slab at fire time — a released (or re-issued)
// slot resolves to nothing, which a port-number capture cannot guarantee
// once next_port_ wraps.

#ifndef SRC_WORKLOAD_CLIENT_MACHINE_H_
#define SRC_WORKLOAD_CLIENT_MACHINE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/elib/slab.h"
#include "src/sim/rng.h"
#include "src/workload/network.h"
#include "src/workload/wire.h"

namespace escort {

class ClientMachine;
class TcpPeer;

// Connection-event receiver: the workload driver (HttpClient, QosReceiver,
// ...) implements this instead of handing four std::function callbacks to
// every connection. The peer passes itself to each hook, so one long-lived
// owner serves any number of consecutive connections without per-connection
// capture state. Hooks run on the machine's stream (shard context); default
// implementations ignore the event.
class ConnOwner {
 public:
  virtual ~ConnOwner() = default;
  virtual void OnConnected(TcpPeer*) {}
  // The bytes point into the segment being processed: copy what must
  // outlive the call.
  virtual void OnData(TcpPeer*, std::span<const uint8_t>) {}
  virtual void OnClosed(TcpPeer*) {}   // graceful close completed
  virtual void OnFailed(TcpPeer*) {}   // gave up (retransmit limit / RST)
};

// Runs on per-client-machine streams, i.e. on shard workers under
// --shards > 1: methods of this class must not call ESCORT_SERIAL_ONLY
// APIs (EA002) — only ESCORT_SHARD_SAFE meters and PostSequenced.
// ESCORT_SHARD_CONTEXT
// ESCORT_KERNEL_LIFETIME
// ESCORT_SLAB_SLOT: stored by value in the testbed's Slab<TcpPeer>;
// reclaimed when the connection closes (ReleaseConnection bumps the slot
// generation). Deferred closures capture the ConnHandle and revalidate via
// ClientMachine::ResolvePeer at fire time (the EA001 idiom).
class TcpPeer {
 public:
  enum class State { kClosed, kSynSent, kEstablished, kCloseWait, kLastAck, kFinWait1, kFinWait2, kTimeWait, kFailed };

  TcpPeer() = default;

  State state() const { return state_; }
  uint16_t local_port() const { return local_port_; }
  uint64_t bytes_received() const { return bytes_received_; }
  int retransmits() const { return retransmits_; }
  ConnHandle handle() const { return self_; }

  void Connect();
  void SendData(const std::vector<uint8_t>& bytes);  // one segment worth
  void Close();                                      // active close
  void Abort();                                      // silent abandon

  // ACK coalescing: acknowledge every n-th data segment (plus a delayed
  // ACK for the tail). Streaming receivers set this above 1.
  int ack_every = 1;
  Cycles delayed_ack = CyclesFromMillis(2.0);

 private:
  friend class ClientMachine;

  // `segment` is the TCP header and payload as received.
  void OnSegment(std::span<const uint8_t> segment);
  void SendFlags(uint8_t flags, uint32_t seq, const std::vector<uint8_t>& payload);
  void ArmTimer();
  void CancelTimer();
  void OnTimer();
  void Fail();

  // Set by ClientMachine::OpenConnection (slab slots are default-initialized
  // and re-initialized in place on reuse).
  ClientMachine* machine_ = nullptr;
  ConnOwner* owner_ = nullptr;
  ConnHandle self_;
  uint16_t local_port_ = 0;
  Ip4Addr remote_{};
  uint16_t remote_port_ = 0;
  uint32_t iss_ = 0;

  State state_ = State::kClosed;
  uint32_t snd_nxt_ = 0;
  uint32_t snd_una_ = 0;
  uint32_t rcv_nxt_ = 0;
  bool fin_sent_ = false;
  uint32_t fin_seq_ = 0;
  uint64_t bytes_received_ = 0;
  int retransmits_ = 0;

  // Last thing we sent, for the (simple) client retransmit.
  uint8_t last_flags_ = 0;
  uint32_t last_seq_ = 0;
  std::vector<uint8_t> last_payload_;

  EventQueue::TimerId timer_id_ = 0;
  bool timer_armed_ = false;
  int unacked_segments_ = 0;
  bool delack_pending_ = false;
};

// ESCORT_SHARD_CONTEXT
class ClientMachine : public NetEndpoint {
 public:
  // `peer_slab` is the connection table this machine files its TcpPeers in;
  // the testbed passes one slab per shard (machines on a shard share it).
  // nullptr gives the machine a private table (unit tests, examples).
  ClientMachine(EventQueue* eq, SharedLink* link, MacAddr mac, Ip4Addr ip, NetworkModel model,
                uint64_t seed, Slab<TcpPeer>* peer_slab = nullptr);
  ~ClientMachine() override;

  EventQueue* eq() { return eq_; }
  MacAddr mac() const { return mac_; }
  Ip4Addr ip() const { return ip_; }
  Rng& rng() { return rng_; }
  const NetworkModel& model() const { return model_; }

  // Inserts or replaces the mapping for `ip`.
  void AddArpEntry(Ip4Addr ip, MacAddr mac);

  // Opens a connection (does not send the SYN; call Connect()). The owner
  // must outlive the connection; it may be null (fire-and-forget senders).
  TcpPeer* OpenConnection(Ip4Addr remote, uint16_t remote_port, ConnOwner* owner);
  void ReleaseConnection(TcpPeer* peer);

  // Handle revalidation against the shared slab (EA001): nullptr once the
  // connection was released or its slot re-issued.
  TcpPeer* ResolvePeer(ConnHandle h) { return slab_->Find(h); }

  // Live connections on this machine.
  size_t conn_count() const { return conns_.size(); }

  // Forces the next local port (tests drive the 16-bit wrap).
  void set_next_port_for_test(uint16_t port) { next_port_ = port; }

  // NetEndpoint
  void DeliverFrame(const std::vector<uint8_t>& frame) override;

  // Sends a raw frame onto the wire (also used by the SYN attacker).
  void Transmit(std::vector<uint8_t> frame) { link_->Send(mac_, std::move(frame)); }

  // Client-side TCP knobs.
  Cycles retransmit_timeout = CyclesFromMillis(1000);
  int max_retransmits = 4;

  uint64_t frames_received() const { return frames_rx_; }

 private:
  friend class TcpPeer;

  void SendTcp(TcpPeer* peer, uint8_t flags, uint32_t seq, uint32_t ack,
               const std::vector<uint8_t>& payload);
  TcpPeer* FindPeer(uint16_t local_port);
  MacAddr* FindArpEntry(Ip4Addr ip);

  EventQueue* const eq_;
  SharedLink* const link_;
  const MacAddr mac_;
  const Ip4Addr ip_;
  // ARP table, flat, in insertion order. In practice every machine holds
  // one entry (the server), read by each SendTcp and rewritten by each
  // broadcast: the first entry lives in the machine itself, beside ip_,
  // and only later ones go to the heap.
  bool has_arp_ = false;
  std::pair<Ip4Addr, MacAddr> arp_first_{};
  std::vector<std::pair<Ip4Addr, MacAddr>> arp_;
  const NetworkModel model_;
  Rng rng_;
  // Fallback table for slab-less construction; slab_ points at it then.
  Slab<TcpPeer> own_slab_;
  Slab<TcpPeer>* slab_ = nullptr;
  // Port demux. A machine has a handful of live connections (one logical
  // client per machine): a flat vector beats a node-based map at a million
  // machines — no per-connection heap allocation at all.
  std::vector<std::pair<uint16_t, ConnHandle>> conns_;
  uint16_t next_port_ = 4096;
  uint64_t frames_rx_ = 0;
};

}  // namespace escort

#endif  // SRC_WORKLOAD_CLIENT_MACHINE_H_

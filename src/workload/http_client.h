// Workload drivers (paper §4.1.2):
//
//   HttpClient  — a regular client: serial requests for the same document.
//   CgiAttacker — one GET /cgi-bin/loop per second (runaway CGI script).
//   SynAttacker — raw SYNs at a fixed rate from the untrusted subnet,
//                 never completing the handshake.
//   QosReceiver — the endpoint of the 1 MB/s guaranteed TCP stream.

#ifndef SRC_WORKLOAD_HTTP_CLIENT_H_
#define SRC_WORKLOAD_HTTP_CLIENT_H_

#include <memory>
#include <string>

#include "src/sim/stats.h"
#include "src/workload/client_machine.h"

namespace escort {

// The workload drivers run on their machine's stream — a shard-worker
// context under --shards > 1. EA002: no ESCORT_SERIAL_ONLY calls here;
// completions go through ESCORT_SHARD_SAFE meters only.
//
// Each driver is a ConnOwner: one long-lived object receives the events of
// every connection it opens, instead of wiring four std::function callbacks
// (and a shared_ptr self-slot) into each TcpPeer — at a million clients
// that web of captures was most of the per-connection footprint.
// ESCORT_SHARD_CONTEXT
class HttpClient : public ConnOwner {
 public:
  HttpClient(ClientMachine* machine, Ip4Addr server, std::string target);

  void Start(Cycles initial_delay = 0);
  void Stop() { stopped_ = true; }

  // Completions are recorded here (shared across clients by the harness).
  void set_meter(RateMeter* meter) { meter_ = meter; }

  // Optional cap: stop after this many completed requests (0 = unlimited).
  uint64_t max_requests = 0;
  Cycles think_time = 0;            // delay between requests
  Cycles retry_backoff = CyclesFromMillis(200);

  uint64_t completed() const { return completed_; }
  uint64_t failed() const { return failed_; }
  uint64_t bytes_received() const { return bytes_; }
  Cycles last_completion() const { return last_completion_; }

 private:
  void StartRequest();
  void ScheduleNext(Cycles delay);

  void OnConnected(TcpPeer* peer) override;
  void OnData(TcpPeer* peer, std::span<const uint8_t> bytes) override;
  void OnClosed(TcpPeer* peer) override;
  void OnFailed(TcpPeer* peer) override;

  ClientMachine* const machine_;
  const Ip4Addr server_;
  const std::string target_;
  RateMeter* meter_ = nullptr;
  bool stopped_ = false;
  bool in_flight_ = false;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t bytes_ = 0;
  uint64_t req_bytes_this_conn_ = 0;
  Cycles last_completion_ = 0;
};

// ESCORT_SHARD_CONTEXT
class CgiAttacker : public ConnOwner {
 public:
  CgiAttacker(ClientMachine* machine, Ip4Addr server, Cycles period = CyclesFromSeconds(1.0));

  void Start(Cycles initial_delay = 0);
  void Stop() { stopped_ = true; }

  uint64_t attacks_launched() const { return attacks_; }

 private:
  void LaunchAttack();
  void OnConnected(TcpPeer* peer) override;

  ClientMachine* const machine_;
  const Ip4Addr server_;
  const Cycles period_;
  bool stopped_ = false;
  uint64_t attacks_ = 0;
};

// ESCORT_SHARD_CONTEXT
class SynAttacker {
 public:
  SynAttacker(EventQueue* eq, SharedLink* link, MacAddr mac, Ip4Addr src_ip, Ip4Addr server_ip,
              MacAddr server_mac, double syns_per_sec);

  void Start(Cycles initial_delay = 0);
  void Stop() { stopped_ = true; }

  uint64_t syns_sent() const { return sent_; }

 private:
  void SendOne();

  EventQueue* const eq_;
  SharedLink* const link_;
  const MacAddr mac_;
  const Ip4Addr src_ip_;
  const Ip4Addr server_ip_;
  const MacAddr server_mac_;
  const Cycles period_;
  bool stopped_ = false;
  uint64_t sent_ = 0;
  uint16_t next_port_ = 1;
  uint32_t next_seq_ = 7;
};

// ESCORT_SHARD_CONTEXT
class QosReceiver : public ConnOwner {
 public:
  QosReceiver(ClientMachine* machine, Ip4Addr server);

  void Start(Cycles initial_delay = 0);

  ThroughputMeter& meter() { return meter_; }
  bool connected() const { return connected_; }
  uint64_t bytes_received() const { return bytes_; }

 private:
  void Connect();
  void OnConnected(TcpPeer* peer) override;
  void OnData(TcpPeer* peer, std::span<const uint8_t> bytes) override;
  void OnClosed(TcpPeer* peer) override;
  void OnFailed(TcpPeer* peer) override;

  ClientMachine* const machine_;
  const Ip4Addr server_;
  ThroughputMeter meter_;
  bool connected_ = false;
  uint64_t bytes_ = 0;
};

}  // namespace escort

#endif  // SRC_WORKLOAD_HTTP_CLIENT_H_

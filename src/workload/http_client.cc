#include "src/workload/http_client.h"

namespace escort {

// --- HttpClient -----------------------------------------------------------------

HttpClient::HttpClient(ClientMachine* machine, Ip4Addr server, std::string target)
    : machine_(machine), server_(server), target_(std::move(target)) {}

void HttpClient::Start(Cycles initial_delay) {
  machine_->eq()->ScheduleTimerAfter(initial_delay, [this] { StartRequest(); });
}

void HttpClient::ScheduleNext(Cycles delay) {
  if (stopped_ || (max_requests != 0 && completed_ >= max_requests)) {
    return;
  }
  machine_->eq()->ScheduleTimerAfter(delay, [this] { StartRequest(); });
}

void HttpClient::StartRequest() {
  if (stopped_ || in_flight_) {
    return;
  }
  in_flight_ = true;
  req_bytes_this_conn_ = 0;
  TcpPeer* peer = machine_->OpenConnection(server_, 80, this);
  peer->Connect();
}

void HttpClient::OnConnected(TcpPeer* peer) {
  std::string req = "GET " + target_ + " HTTP/1.0\r\nHost: server\r\n\r\n";
  peer->SendData(std::vector<uint8_t>(req.begin(), req.end()));
}

void HttpClient::OnData(TcpPeer*, std::span<const uint8_t> bytes) {
  bytes_ += bytes.size();
  req_bytes_this_conn_ += bytes.size();
}

void HttpClient::OnClosed(TcpPeer*) {
  in_flight_ = false;
  ++completed_;
  last_completion_ = machine_->eq()->now();
  if (meter_ != nullptr) {
    meter_->Record(last_completion_);
  }
  ScheduleNext(think_time + machine_->model().client_processing / 2);
}

void HttpClient::OnFailed(TcpPeer*) {
  in_flight_ = false;
  ++failed_;
  ScheduleNext(retry_backoff);
}

// --- CgiAttacker -----------------------------------------------------------------

CgiAttacker::CgiAttacker(ClientMachine* machine, Ip4Addr server, Cycles period)
    : machine_(machine), server_(server), period_(period) {}

void CgiAttacker::Start(Cycles initial_delay) {
  machine_->eq()->ScheduleTimerAfter(initial_delay, [this] { LaunchAttack(); });
}

void CgiAttacker::LaunchAttack() {
  if (stopped_) {
    return;
  }
  ++attacks_;
  // No response will ever come: the server kills the path. The client TCP
  // gives up after its retransmit budget and releases the connection.
  TcpPeer* peer = machine_->OpenConnection(server_, 80, this);
  peer->Connect();
  machine_->eq()->ScheduleTimerAfter(period_, [this] { LaunchAttack(); });
}

void CgiAttacker::OnConnected(TcpPeer* peer) {
  std::string req = "GET /cgi-bin/loop HTTP/1.0\r\n\r\n";
  peer->SendData(std::vector<uint8_t>(req.begin(), req.end()));
}

// --- SynAttacker ------------------------------------------------------------------

SynAttacker::SynAttacker(EventQueue* eq, SharedLink* link, MacAddr mac, Ip4Addr src_ip,
                         Ip4Addr server_ip, MacAddr server_mac, double syns_per_sec)
    : eq_(eq),
      link_(link),
      mac_(mac),
      src_ip_(src_ip),
      server_ip_(server_ip),
      server_mac_(server_mac),
      period_(CyclesFromSeconds(1.0 / syns_per_sec)) {}

void SynAttacker::Start(Cycles initial_delay) {
  eq_->ScheduleTimerAfter(initial_delay, [this] { SendOne(); });
}

void SynAttacker::SendOne() {
  if (stopped_) {
    return;
  }
  ++sent_;
  TcpHeader hdr;
  hdr.src_port = next_port_;
  next_port_ = static_cast<uint16_t>(next_port_ + 13);  // rotate source ports
  if (next_port_ == 0) {
    next_port_ = 1;
  }
  hdr.dst_port = 80;
  hdr.seq = next_seq_;
  next_seq_ += 104729;
  hdr.flags = kTcpSyn;
  link_->Send(mac_, BuildTcpFrame(mac_, server_mac_, src_ip_, server_ip_, hdr, {}));
  eq_->ScheduleTimerAfter(period_, [this] { SendOne(); });
}

// --- QosReceiver -------------------------------------------------------------------

QosReceiver::QosReceiver(ClientMachine* machine, Ip4Addr server)
    : machine_(machine), server_(server) {}

void QosReceiver::Start(Cycles initial_delay) {
  machine_->eq()->ScheduleTimerAfter(initial_delay, [this] { Connect(); });
}

void QosReceiver::Connect() {
  TcpPeer* peer = machine_->OpenConnection(server_, 80, this);
  // A streaming receiver never times out the transfer and coalesces ACKs.
  machine_->max_retransmits = 1000000;
  peer->ack_every = 4;
  peer->Connect();
}

void QosReceiver::OnConnected(TcpPeer* peer) {
  connected_ = true;
  std::string req = "GET /stream HTTP/1.0\r\n\r\n";
  peer->SendData(std::vector<uint8_t>(req.begin(), req.end()));
}

void QosReceiver::OnData(TcpPeer*, std::span<const uint8_t> bytes) {
  bytes_ += bytes.size();
  meter_.Record(machine_->eq()->now(), bytes.size());
}

void QosReceiver::OnClosed(TcpPeer*) { connected_ = false; }

void QosReceiver::OnFailed(TcpPeer*) {
  connected_ = false;
  // The stream must stay up: reconnect.
  machine_->eq()->ScheduleTimerAfter(CyclesFromMillis(100), [this] { Connect(); });
}

}  // namespace escort

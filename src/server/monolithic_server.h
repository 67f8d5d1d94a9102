// MonolithicServer: the Linux 2.0.34 + Apache 1.2.6 comparator.
//
// A calibrated *model*, not a Linux reproduction (see DESIGN.md §2): a
// monolithic kernel with a single CPU timeline, a global listen backlog
// (no pre-dispatch accounting — the classic SYN-flood weakness the paper's
// introduction describes), a process-per-connection cost for each request,
// and the measured 11,003-cycle kill+waitpid for Table 2. Its TCP speaks
// the same wire format as everything else in the testbed.

#ifndef SRC_SERVER_MONOLITHIC_SERVER_H_
#define SRC_SERVER_MONOLITHIC_SERVER_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/sim/cost_model.h"
#include "src/workload/network.h"
#include "src/workload/wire.h"

namespace escort {

class MonolithicServer : public NetEndpoint {
 public:
  MonolithicServer(EventQueue* eq, SharedLink* link, MacAddr mac, Ip4Addr ip,
                   CostModel costs = CostModel::Calibrated());
  ~MonolithicServer() override;

  void AddDocument(const std::string& name, uint64_t size);

  void DeliverFrame(const std::vector<uint8_t>& frame) override;

  // Table 2 reference: cycles from kill(2) to waitpid(2) returning.
  Cycles KillProcessCost() const { return costs_.linux_kill_process; }

  uint64_t connections_served() const { return served_; }
  uint64_t syn_drops() const { return syn_drops_; }
  size_t half_open() const { return half_open_; }
  double cpu_utilization(Cycles window) const;

 private:
  struct Conn {
    ConnKey key;
    enum class State { kSynRecvd, kEstablished, kFinWait1, kFinWait2, kClosed } state =
        State::kSynRecvd;
    uint32_t iss = 0;
    uint32_t snd_nxt = 0;
    uint32_t snd_una = 0;
    uint32_t rcv_nxt = 0;
    std::string reqbuf;
    std::vector<uint8_t> sendbuf;
    uint32_t send_base = 0;  // seq of sendbuf[0]
    uint32_t cwnd_segments = 2;
    bool fin_sent = false;
    uint32_t fin_seq = 0;
    bool responded = false;
  };

  // Serializes work on the single CPU; runs `fn` when the CPU gets to it.
  void CpuRun(Cycles cost, EventQueue::Callback fn);
  void SendSegment(const ConnKey& key, uint8_t flags, uint32_t seq, uint32_t ack,
                   const std::vector<uint8_t>& payload);
  // `segment` is the TCP header and payload of a frame from `src`.
  void HandleTcp(Ip4Addr src, std::span<const uint8_t> segment);
  void PumpSend(Conn& c);
  void HandleRequest(Conn& c);

  EventQueue* const eq_;
  SharedLink* const link_;
  const MacAddr mac_;
  const Ip4Addr ip_;
  const CostModel costs_;

  std::map<ConnKey, Conn> conns_;
  std::map<std::string, std::vector<uint8_t>> docs_;
  std::map<Ip4Addr, MacAddr> arp_;
  size_t half_open_ = 0;
  uint64_t served_ = 0;
  uint64_t syn_drops_ = 0;
  uint32_t next_iss_ = 99'000;
  Cycles cpu_free_ = 0;
  Cycles cpu_busy_total_ = 0;
};

}  // namespace escort

#endif  // SRC_SERVER_MONOLITHIC_SERVER_H_

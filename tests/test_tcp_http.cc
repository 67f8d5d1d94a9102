// Protocol-level tests for the TCP and HTTP modules, driven end-to-end
// through the testbed (the client side is the independent TcpPeer
// implementation, so these cross-check both state machines).

#include <gtest/gtest.h>

#include <memory>

#include "src/server/monolithic_server.h"
#include "tests/testbed.h"

namespace escort {
namespace {

TEST(TcpModule, HandshakeCreatesActivePathAndEstablishes) {
  Testbed tb(ServerConfig::kAccounting);
  ClientMachine* m = tb.AddClient(0);

  bool connected = false;
  FnConnOwner owner;
  owner.on_connected = [&](TcpPeer*) { connected = true; };
  TcpPeer* peer = m->OpenConnection(tb.server->options().ip, 80, &owner);
  peer->Connect();
  tb.RunFor(0.05);

  EXPECT_TRUE(connected);
  EXPECT_EQ(peer->state(), TcpPeer::State::kEstablished);
  EXPECT_EQ(tb.server->tcp()->conn_count(), 1u);
  EXPECT_EQ(tb.server->tcp()->total_established(), 1u);
  EXPECT_EQ(tb.server->trusted_listener()->conns_established, 1u);
  // Established connections no longer hold SYN_RECVD slots.
  EXPECT_EQ(tb.server->trusted_listener()->syn_recvd, 0u);
  peer->Abort();
}

TEST(TcpModule, SynToClosedPortIsDropped) {
  Testbed tb(ServerConfig::kAccounting);
  ClientMachine* m = tb.AddClient(0);
  FnConnOwner owner;
  bool failed = false;
  owner.on_failed = [&](TcpPeer*) { failed = true; };
  TcpPeer* peer = m->OpenConnection(tb.server->options().ip, 81, &owner);
  m->max_retransmits = 1;
  peer->Connect();
  tb.RunFor(3.0);
  EXPECT_TRUE(failed);
  EXPECT_GT(tb.server->paths().drop_reasons().at("tcp-noport"), 0u);
}

TEST(TcpModule, ChecksumFailureDropsSegment) {
  Testbed tb(ServerConfig::kAccounting);
  ClientMachine* m = tb.AddClient(0);
  // Deliver a SYN with a corrupted checksum directly.
  TcpHeader syn;
  syn.src_port = 5000;
  syn.dst_port = 80;
  syn.seq = 1;
  syn.flags = kTcpSyn;
  std::vector<uint8_t> frame = BuildTcpFrame(m->mac(), tb.server->options().mac, m->ip(),
                                             tb.server->options().ip, syn, {});
  frame[frame.size() - 1] ^= 0;  // frame intact...
  frame[kEthHeaderLen + kIpHeaderLen + 4] ^= 0x40;  // ...but the TCP seq corrupted
  m->Transmit(frame);
  tb.RunFor(0.05);
  EXPECT_EQ(tb.server->tcp()->checksum_failures(), 1u);
  EXPECT_EQ(tb.server->tcp()->conn_count(), 0u);
}

TEST(TcpModule, ListenerSubnetSelectionPrefersMostSpecific) {
  Testbed tb(ServerConfig::kAccounting);
  // Trusted listener covers 10/8, untrusted covers everything.
  ClientMachine* trusted = tb.AddClient(0);
  ClientMachine* untrusted = tb.AddUntrustedClient(0);

  HttpClient c1(trusted, tb.server->options().ip, "/doc1b");
  c1.max_requests = 1;
  c1.Start();
  HttpClient c2(untrusted, tb.server->options().ip, "/doc1b");
  c2.max_requests = 1;
  c2.Start();
  tb.RunFor(0.5);

  EXPECT_EQ(c1.completed(), 1u);
  EXPECT_EQ(c2.completed(), 1u);
  EXPECT_EQ(tb.server->trusted_listener()->syns_accepted, 1u);
  EXPECT_EQ(tb.server->untrusted_listener()->syns_accepted, 1u);
}

TEST(TcpModule, DemuxTimeSynLimitEnforced) {
  WebServerOptions opts;
  opts.untrusted_syn_limit = 2;
  Testbed tb(ServerConfig::kAccounting, opts);
  // Raw SYNs from the untrusted subnet, never completing.
  MacAddr amac = MacAddr::FromIndex(61);
  SynAttacker attacker(&tb.eq, tb.link.get(), amac, Ip4Addr::FromOctets(192, 168, 7, 7),
                       tb.server->options().ip, tb.server->options().mac, 500.0);
  attacker.Start();
  tb.RunFor(0.2);
  TcpListener* l = tb.server->untrusted_listener();
  EXPECT_EQ(l->syn_recvd, 2u);  // pinned at the budget
  EXPECT_GT(l->syns_dropped_at_demux, 50u);
}

TEST(TcpModule, TimeWaitPathsAreReapedByMasterEvent) {
  Testbed tb(ServerConfig::kAccounting);
  ClientMachine* m = tb.AddClient(0);
  HttpClient client(m, tb.server->options().ip, "/doc1b");
  client.max_requests = 1;
  client.Start();
  tb.RunFor(0.05);
  EXPECT_EQ(client.completed(), 1u);
  // Let TIME_WAIT expire and the master event reap the connection.
  tb.RunFor(0.2);
  EXPECT_EQ(tb.server->tcp()->conn_count(), 0u);
  EXPECT_GT(tb.server->tcp()->master_event_fires(), 0u);
}

TEST(TcpModule, LargeTransferSegmentsAtMss) {
  Testbed tb(ServerConfig::kAccounting);
  ClientMachine* m = tb.AddClient(0);
  HttpClient client(m, tb.server->options().ip, "/doc10k");
  client.max_requests = 1;
  client.Start();
  tb.RunFor(1.0);
  EXPECT_EQ(client.completed(), 1u);
  // Header + 10240 bytes: at least 8 data segments of <= 1460 bytes.
  EXPECT_GT(client.bytes_received(), 10240u);
}

TEST(HttpModule, ParseRequestLineVariants) {
  HttpRequest ok = ParseRequestLine("GET /index.html HTTP/1.0\r\nHost: x\r\n\r\n");
  EXPECT_TRUE(ok.valid);
  EXPECT_EQ(ok.method, "GET");
  EXPECT_EQ(ok.target, "/index.html");
  EXPECT_EQ(ok.version, "HTTP/1.0");

  EXPECT_FALSE(ParseRequestLine("").valid);
  EXPECT_FALSE(ParseRequestLine("\r\n").valid);
  EXPECT_FALSE(ParseRequestLine("GARBAGE\r\n").valid);
  EXPECT_FALSE(ParseRequestLine("GET /\r\n").valid);          // missing version
  EXPECT_FALSE(ParseRequestLine("GET / FTP/1.0\r\n").valid);  // wrong protocol
  EXPECT_TRUE(ParseRequestLine("POST /x HTTP/1.1\r\n\r\n").valid);
}

TEST(HttpModule, NonGetMethodRejected) {
  Testbed tb(ServerConfig::kAccounting);
  ClientMachine* m = tb.AddClient(0);
  uint64_t bytes = 0;
  bool closed = false;
  FnConnOwner owner;
  owner.on_connected = [](TcpPeer* p) {
    std::string req = "DELETE /doc1b HTTP/1.0\r\n\r\n";
    p->SendData(std::vector<uint8_t>(req.begin(), req.end()));
  };
  owner.on_data = [&](TcpPeer*, std::span<const uint8_t> b) { bytes += b.size(); };
  owner.on_closed = [&](TcpPeer*) { closed = true; };
  TcpPeer* peer = m->OpenConnection(tb.server->options().ip, 80, &owner);
  peer->Connect();
  tb.RunFor(0.5);
  EXPECT_TRUE(closed);
  EXPECT_GT(bytes, 0u);  // a 400 response
  EXPECT_EQ(tb.server->http()->errors_sent(), 1u);
}

TEST(HttpModule, RequestSplitAcrossSegmentsIsReassembled) {
  Testbed tb(ServerConfig::kAccounting);
  ClientMachine* m = tb.AddClient(0);
  bool closed = false;
  uint64_t bytes = 0;
  FnConnOwner owner;
  owner.on_connected = [&](TcpPeer* p) {
    std::string part1 = "GET /doc1b HT";
    p->SendData(std::vector<uint8_t>(part1.begin(), part1.end()));
    // Second half after a delay; the handle goes stale if the connection
    // dies first (EA001 revalidation, no nulled shared slot needed).
    ConnHandle h = p->handle();
    tb.eq.ScheduleAfter(CyclesFromMillis(5), [&, h] {
      if (TcpPeer* later = m->ResolvePeer(h); later != nullptr) {
        std::string part2 = "TP/1.0\r\n\r\n";
        later->SendData(std::vector<uint8_t>(part2.begin(), part2.end()));
      }
    });
  };
  owner.on_data = [&](TcpPeer*, std::span<const uint8_t> b) { bytes += b.size(); };
  owner.on_closed = [&](TcpPeer*) { closed = true; };
  TcpPeer* peer = m->OpenConnection(tb.server->options().ip, 80, &owner);
  peer->Connect();
  tb.RunFor(0.5);
  EXPECT_TRUE(closed);
  EXPECT_GT(bytes, 1u);
  EXPECT_EQ(tb.server->http()->responses_sent(), 1u);
}

TEST(MonolithicServerTest, ServesRequestsLikeApache) {
  EventQueue eq;
  SharedLink link(&eq, NetworkModel::Calibrated());
  MonolithicServer server(&eq, &link, MacAddr::FromIndex(1), Ip4Addr::FromOctets(10, 0, 0, 1));
  server.AddDocument("/doc1k", 1024);

  ClientMachine m(&eq, &link, MacAddr::FromIndex(100), Ip4Addr::FromOctets(10, 0, 1, 1),
                  NetworkModel::Calibrated(), 5);
  m.AddArpEntry(Ip4Addr::FromOctets(10, 0, 0, 1), MacAddr::FromIndex(1));
  HttpClient client(&m, Ip4Addr::FromOctets(10, 0, 0, 1), "/doc1k");
  client.max_requests = 5;
  client.Start();
  eq.RunUntil(CyclesFromSeconds(1.0));

  EXPECT_EQ(client.completed(), 5u);
  EXPECT_EQ(server.connections_served(), 5u);
  EXPECT_GT(client.bytes_received(), 5 * 1024u);
}

TEST(MonolithicServerTest, GlobalSynBacklogOverflows) {
  // The classic weakness: the kernel cannot tell attackers from clients
  // before dispatch; a flood fills the global listen queue.
  EventQueue eq;
  SharedLink link(&eq, NetworkModel::Calibrated());
  MonolithicServer server(&eq, &link, MacAddr::FromIndex(1), Ip4Addr::FromOctets(10, 0, 0, 1));
  server.AddDocument("/doc1b", 1);

  SynAttacker attacker(&eq, &link, MacAddr::FromIndex(60), Ip4Addr::FromOctets(192, 168, 9, 9),
                       Ip4Addr::FromOctets(10, 0, 0, 1), MacAddr::FromIndex(1), 1000.0);
  attacker.Start();
  eq.RunUntil(CyclesFromSeconds(0.5));
  EXPECT_EQ(server.half_open(), CostModel::Calibrated().linux_syn_backlog);
  EXPECT_GT(server.syn_drops(), 100u);
}

}  // namespace
}  // namespace escort

// Header codec tests: roundtrips, checksum verification, corruption
// detection, and interop between the server-side codecs (src/net/headers)
// and the independent client-side raw builders (src/workload/wire).

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/elib/byte_io.h"
#include "src/net/headers.h"
#include "src/sim/rng.h"
#include "src/workload/wire.h"

namespace escort {
namespace {

class HeaderTest : public ::testing::Test {
 protected:
  HeaderTest() {
    KernelConfig kc;
    kc.start_softclock = false;
    kernel_ = std::make_unique<Kernel>(&eq_, kc);
  }

  Message NewMessage(uint64_t cap = 2048, uint64_t headroom = kFullHeadroom) {
    return Message::Alloc(kernel_.get(), kernel_->domain(0), kKernelDomain, {kKernelDomain},
                          cap, headroom);
  }

  EventQueue eq_;
  std::unique_ptr<Kernel> kernel_;
};

TEST_F(HeaderTest, EthRoundtrip) {
  Message msg = NewMessage();
  EthHeader hdr;
  hdr.dst = MacAddr::FromIndex(7);
  hdr.src = MacAddr::FromIndex(9);
  hdr.ethertype = kEtherTypeIp;
  ASSERT_TRUE(WriteEthHeader(msg, kKernelDomain, hdr));
  auto parsed = ParseEthHeader(msg, kKernelDomain);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dst, hdr.dst);
  EXPECT_EQ(parsed->src, hdr.src);
  EXPECT_EQ(parsed->ethertype, kEtherTypeIp);
}

TEST_F(HeaderTest, ArpRoundtrip) {
  Message msg = NewMessage();
  ArpPacket pkt;
  pkt.opcode = 1;
  pkt.sender_mac = MacAddr::FromIndex(3);
  pkt.sender_ip = Ip4Addr::FromOctets(10, 0, 0, 3);
  pkt.target_mac = MacAddr{};
  pkt.target_ip = Ip4Addr::FromOctets(10, 0, 0, 1);
  ASSERT_TRUE(WriteArpPacket(msg, kKernelDomain, pkt));
  auto parsed = ParseArpPacket(msg, kKernelDomain);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->opcode, 1);
  EXPECT_EQ(parsed->sender_ip, pkt.sender_ip);
  EXPECT_EQ(parsed->target_ip, pkt.target_ip);
  EXPECT_EQ(parsed->sender_mac, pkt.sender_mac);
}

TEST_F(HeaderTest, IpRoundtripWithValidChecksum) {
  Message msg = NewMessage();
  msg.Append(kKernelDomain, "payload!", 8);
  Ip4Header hdr;
  hdr.src = Ip4Addr::FromOctets(10, 0, 1, 1);
  hdr.dst = Ip4Addr::FromOctets(10, 0, 0, 1);
  hdr.protocol = kIpProtoTcp;
  hdr.id = 42;
  ASSERT_TRUE(WriteIpHeader(msg, kKernelDomain, hdr));
  auto parsed = ParseIpHeader(msg, kKernelDomain);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->checksum_ok);
  EXPECT_EQ(parsed->src, hdr.src);
  EXPECT_EQ(parsed->dst, hdr.dst);
  EXPECT_EQ(parsed->total_length, kIpHeaderLen + 8);
  EXPECT_EQ(parsed->id, 42);
}

TEST_F(HeaderTest, IpChecksumDetectsCorruption) {
  Message msg = NewMessage();
  Ip4Header hdr;
  hdr.src = Ip4Addr::FromOctets(1, 2, 3, 4);
  hdr.dst = Ip4Addr::FromOctets(5, 6, 7, 8);
  hdr.protocol = kIpProtoTcp;
  ASSERT_TRUE(WriteIpHeader(msg, kKernelDomain, hdr));
  // Flip a bit in the TTL field.
  msg.MutableData(kKernelDomain)[8] ^= 0x01;
  auto parsed = ParseIpHeader(msg, kKernelDomain);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->checksum_ok);
}

class TcpHeaderSizes : public HeaderTest, public ::testing::WithParamInterface<uint64_t> {};

TEST_P(TcpHeaderSizes, TcpRoundtripWithPayload) {
  uint64_t payload_len = GetParam();
  Message msg = NewMessage(payload_len + 64);
  std::vector<uint8_t> payload(payload_len);
  for (uint64_t i = 0; i < payload_len; ++i) {
    payload[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  msg.Append(kKernelDomain, payload.data(), payload.size());

  Ip4Addr src = Ip4Addr::FromOctets(10, 0, 1, 1);
  Ip4Addr dst = Ip4Addr::FromOctets(10, 0, 0, 1);
  TcpHeader hdr;
  hdr.src_port = 5555;
  hdr.dst_port = 80;
  hdr.seq = 123456;
  hdr.ack = 654321;
  hdr.flags = kTcpAck | kTcpPsh;
  ASSERT_TRUE(WriteTcpHeader(msg, kKernelDomain, hdr, src, dst));

  auto parsed = ParseTcpHeader(msg, kKernelDomain, src, dst);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->checksum_ok);
  EXPECT_EQ(parsed->src_port, 5555);
  EXPECT_EQ(parsed->seq, 123456u);
  EXPECT_EQ(parsed->flags, kTcpAck | kTcpPsh);
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, TcpHeaderSizes,
                         ::testing::Values(0, 1, 2, 3, 63, 64, 128, 1024, 1460));

TEST_F(HeaderTest, TcpChecksumDetectsPayloadCorruption) {
  Message msg = NewMessage();
  msg.Append(kKernelDomain, "GET / HTTP/1.0\r\n\r\n", 18);
  Ip4Addr src = Ip4Addr::FromOctets(10, 0, 1, 1);
  Ip4Addr dst = Ip4Addr::FromOctets(10, 0, 0, 1);
  TcpHeader hdr;
  hdr.src_port = 1;
  hdr.dst_port = 80;
  ASSERT_TRUE(WriteTcpHeader(msg, kKernelDomain, hdr, src, dst));
  msg.MutableData(kKernelDomain)[kTcpHeaderLen + 4] ^= 0xff;
  auto parsed = ParseTcpHeader(msg, kKernelDomain, src, dst);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->checksum_ok);
}

TEST_F(HeaderTest, TcpChecksumBoundToPseudoHeader) {
  Message msg = NewMessage();
  Ip4Addr src = Ip4Addr::FromOctets(10, 0, 1, 1);
  Ip4Addr dst = Ip4Addr::FromOctets(10, 0, 0, 1);
  TcpHeader hdr;
  hdr.src_port = 1;
  hdr.dst_port = 80;
  ASSERT_TRUE(WriteTcpHeader(msg, kKernelDomain, hdr, src, dst));
  // Same bytes against a different pseudo-header (spoofed source).
  auto parsed = ParseTcpHeader(msg, kKernelDomain, Ip4Addr::FromOctets(9, 9, 9, 9), dst);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->checksum_ok);
}

// Interop: frames built by the client-side wire codec must parse with the
// server-side codecs and vice versa.
TEST_F(HeaderTest, WireBuilderInteropsWithServerCodecs) {
  MacAddr cm = MacAddr::FromIndex(100);
  MacAddr sm = MacAddr::FromIndex(1);
  Ip4Addr ci = Ip4Addr::FromOctets(10, 0, 1, 1);
  Ip4Addr si = Ip4Addr::FromOctets(10, 0, 0, 1);
  TcpHeader tcp;
  tcp.src_port = 4242;
  tcp.dst_port = 80;
  tcp.seq = 77;
  tcp.flags = kTcpSyn;
  std::vector<uint8_t> frame = BuildTcpFrame(cm, sm, ci, si, tcp, {'h', 'i'});

  Message msg = NewMessage(frame.size(), 0);
  msg.Append(kKernelDomain, frame.data(), frame.size());

  auto eth = ParseEthHeader(msg, kKernelDomain);
  ASSERT_TRUE(eth.has_value());
  EXPECT_EQ(eth->dst, sm);
  ASSERT_TRUE(msg.Strip(kEthHeaderLen));

  auto ip = ParseIpHeader(msg, kKernelDomain);
  ASSERT_TRUE(ip.has_value());
  EXPECT_TRUE(ip->checksum_ok);
  EXPECT_EQ(ip->src, ci);
  ASSERT_TRUE(msg.Strip(kIpHeaderLen));

  auto parsed = ParseTcpHeader(msg, kKernelDomain, ci, si);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->checksum_ok);
  EXPECT_EQ(parsed->src_port, 4242);
  EXPECT_EQ(parsed->flags, kTcpSyn);
}

TEST_F(HeaderTest, ServerFramesParseWithWireParser) {
  // Build a server-side frame: TCP + IP + ETH via the Message codecs.
  Message msg = NewMessage();
  msg.Append(kKernelDomain, "response", 8);
  Ip4Addr src = Ip4Addr::FromOctets(10, 0, 0, 1);
  Ip4Addr dst = Ip4Addr::FromOctets(10, 0, 1, 1);
  TcpHeader tcp;
  tcp.src_port = 80;
  tcp.dst_port = 4242;
  tcp.seq = 99;
  tcp.flags = kTcpAck | kTcpPsh;
  ASSERT_TRUE(WriteTcpHeader(msg, kKernelDomain, tcp, src, dst));
  Ip4Header ip;
  ip.src = src;
  ip.dst = dst;
  ip.protocol = kIpProtoTcp;
  ASSERT_TRUE(WriteIpHeader(msg, kKernelDomain, ip));
  EthHeader eth;
  eth.dst = MacAddr::FromIndex(100);
  eth.src = MacAddr::FromIndex(1);
  eth.ethertype = kEtherTypeIp;
  ASSERT_TRUE(WriteEthHeader(msg, kKernelDomain, eth));

  const std::vector<uint8_t> bytes = msg.CopyOut(kKernelDomain);
  FrameView frame;
  ASSERT_TRUE(ParseFrame(bytes, &frame));
  ASSERT_TRUE(frame.is_tcp());
  EXPECT_TRUE(frame.IpChecksumOk());
  EXPECT_TRUE(frame.TcpChecksumOk());
  EXPECT_EQ(frame.tcp.src_port, 80);
  EXPECT_EQ(std::string(frame.payload().begin(), frame.payload().end()), "response");
}

// --- The frame view against an owning parser ----------------------------------
//
// The oracle is the owning parser the receive path used before the view: it
// copies every header and the payload out of the frame and verifies both
// checksums eagerly. The view must accept and reject the same frames and
// report the same fields, checksum verdicts and payload bytes.

struct OracleFrame {
  EthHeader eth;
  Ip4Header ip;
  TcpHeader tcp;
  std::vector<uint8_t> payload;
  bool is_tcp = false;
  bool is_arp = false;
  ArpPacket arp;
};

uint32_t OraclePseudoSum(Ip4Addr src, Ip4Addr dst, uint16_t tcp_len) {
  uint8_t pseudo[12];
  PutU32(pseudo, src.value);
  PutU32(pseudo + 4, dst.value);
  pseudo[8] = 0;
  pseudo[9] = kIpProtoTcp;
  PutU16(pseudo + 10, tcp_len);
  return ChecksumPartial(pseudo, sizeof(pseudo));
}

std::optional<OracleFrame> OracleParseFrame(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < kEthHeaderLen) {
    return std::nullopt;
  }
  OracleFrame f;
  const uint8_t* p = bytes.data();
  std::memcpy(f.eth.dst.bytes.data(), p, 6);
  std::memcpy(f.eth.src.bytes.data(), p + 6, 6);
  f.eth.ethertype = GetU16(p + 12);

  if (f.eth.ethertype == kEtherTypeArp) {
    if (bytes.size() < kEthHeaderLen + kArpPacketLen) {
      return std::nullopt;
    }
    const uint8_t* a = p + kEthHeaderLen;
    f.is_arp = true;
    f.arp.opcode = GetU16(a + 6);
    std::memcpy(f.arp.sender_mac.bytes.data(), a + 8, 6);
    f.arp.sender_ip.value = GetU32(a + 14);
    std::memcpy(f.arp.target_mac.bytes.data(), a + 18, 6);
    f.arp.target_ip.value = GetU32(a + 24);
    return f;
  }

  if (f.eth.ethertype != kEtherTypeIp || bytes.size() < kEthHeaderLen + kIpHeaderLen) {
    return std::nullopt;
  }
  const uint8_t* ip = p + kEthHeaderLen;
  if ((ip[0] >> 4) != 4 || (ip[0] & 0xf) != 5) {
    return std::nullopt;
  }
  f.ip.total_length = GetU16(ip + 2);
  f.ip.ttl = ip[8];
  f.ip.protocol = ip[9];
  f.ip.src.value = GetU32(ip + 12);
  f.ip.dst.value = GetU32(ip + 16);
  f.ip.checksum_ok = InternetChecksum(ip, kIpHeaderLen) == 0;
  if (f.ip.protocol != kIpProtoTcp) {
    return f;
  }
  if (bytes.size() < kEthHeaderLen + kIpHeaderLen + kTcpHeaderLen ||
      f.ip.total_length < kIpHeaderLen + kTcpHeaderLen) {
    return std::nullopt;
  }
  const uint8_t* t = ip + kIpHeaderLen;
  f.is_tcp = true;
  f.tcp.src_port = GetU16(t);
  f.tcp.dst_port = GetU16(t + 2);
  f.tcp.seq = GetU32(t + 4);
  f.tcp.ack = GetU32(t + 8);
  f.tcp.flags = t[13];
  f.tcp.window = GetU16(t + 14);
  uint16_t tcp_len = static_cast<uint16_t>(f.ip.total_length - kIpHeaderLen);
  if (kEthHeaderLen + kIpHeaderLen + tcp_len > bytes.size()) {
    return std::nullopt;
  }
  uint32_t acc = OraclePseudoSum(f.ip.src, f.ip.dst, tcp_len);
  acc = ChecksumPartial(t, tcp_len, acc);
  while (acc >> 16) {
    acc = (acc & 0xffff) + (acc >> 16);
  }
  f.tcp.checksum_ok = static_cast<uint16_t>(~acc) == 0;
  f.payload.assign(t + kTcpHeaderLen, t + tcp_len);
  return f;
}

// Empty when the view and the oracle agree on `bytes`; else the first
// difference.
std::string CompareWithOracle(const std::vector<uint8_t>& bytes) {
  const std::optional<OracleFrame> want = OracleParseFrame(bytes);
  FrameView got;
  const bool ok = ParseFrame(bytes, &got);
  std::ostringstream diff;
  if (ok != want.has_value()) {
    diff << "accepted: view " << ok << ", oracle " << want.has_value();
    return diff.str();
  }
  if (!ok) {
    return "";
  }
  auto check = [&diff](bool same, const char* what) {
    if (!same && diff.tellp() == 0) {
      diff << what << " differs";
    }
  };
  check(got.eth.dst == want->eth.dst && got.eth.src == want->eth.src &&
            got.eth.ethertype == want->eth.ethertype,
        "eth");
  check(got.is_arp() == want->is_arp, "is_arp");
  check(got.is_tcp() == want->is_tcp, "is_tcp");
  if (want->is_arp) {
    check(got.arp.opcode == want->arp.opcode && got.arp.sender_mac == want->arp.sender_mac &&
              got.arp.sender_ip == want->arp.sender_ip &&
              got.arp.target_mac == want->arp.target_mac &&
              got.arp.target_ip == want->arp.target_ip,
          "arp");
    return diff.str();
  }
  check(got.ip.total_length == want->ip.total_length && got.ip.ttl == want->ip.ttl &&
            got.ip.protocol == want->ip.protocol && got.ip.src == want->ip.src &&
            got.ip.dst == want->ip.dst,
        "ip");
  check(got.IpChecksumOk() == want->ip.checksum_ok, "ip checksum verdict");
  if (want->is_tcp) {
    check(got.tcp.src_port == want->tcp.src_port && got.tcp.dst_port == want->tcp.dst_port &&
              got.tcp.seq == want->tcp.seq && got.tcp.ack == want->tcp.ack &&
              got.tcp.flags == want->tcp.flags && got.tcp.window == want->tcp.window,
          "tcp");
    check(got.TcpChecksumOk() == want->tcp.checksum_ok, "tcp checksum verdict");
    check(std::vector<uint8_t>(got.payload().begin(), got.payload().end()) == want->payload,
          "payload");
  }
  return diff.str();
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  std::ostringstream out;
  out << std::hex;
  for (uint8_t b : bytes) {
    out << (b < 16 ? "0" : "") << static_cast<int>(b);
  }
  return out.str();
}

MacAddr RandomMac(Rng& rng) { return MacAddr::FromIndex(rng.NextBelow(1 << 20)); }
Ip4Addr RandomIp(Rng& rng) { return Ip4Addr{static_cast<uint32_t>(rng.Next())}; }

std::vector<uint8_t> RandomTcpFrame(Rng& rng) {
  TcpHeader tcp;
  tcp.src_port = static_cast<uint16_t>(rng.Next());
  tcp.dst_port = static_cast<uint16_t>(rng.Next());
  tcp.seq = static_cast<uint32_t>(rng.Next());
  tcp.ack = static_cast<uint32_t>(rng.Next());
  tcp.flags = static_cast<uint8_t>(rng.Next());
  tcp.window = static_cast<uint16_t>(rng.Next());
  std::vector<uint8_t> payload(rng.NextBelow(48));
  for (uint8_t& b : payload) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::vector<uint8_t> frame =
      BuildTcpFrame(RandomMac(rng), RandomMac(rng), RandomIp(rng), RandomIp(rng), tcp, payload);
  if (rng.NextBelow(4) == 0) {
    frame.resize(frame.size() + 1 + rng.NextBelow(8), 0);  // link-layer padding
  }
  return frame;
}

std::vector<uint8_t> RandomArpFrame(Rng& rng) {
  ArpPacket arp;
  arp.opcode = static_cast<uint16_t>(1 + rng.NextBelow(2));
  arp.sender_mac = RandomMac(rng);
  arp.sender_ip = RandomIp(rng);
  arp.target_mac = RandomMac(rng);
  arp.target_ip = RandomIp(rng);
  return BuildArpFrame(arp.sender_mac, MacAddr::Broadcast(), arp);
}

TEST(FrameView, AgreesWithTheOwningParserOnSeededFrames) {
  Rng rng(20240611);
  int frames = 0;
  int accepted = 0;
  int accepted_tcp = 0;
  int accepted_arp = 0;
  int accepted_other_ip = 0;
  auto run = [&](const std::vector<uint8_t>& bytes) {
    ++frames;
    const std::string diff = CompareWithOracle(bytes);
    EXPECT_EQ(diff, "") << Hex(bytes);
    FrameView v;
    if (diff.empty() && ParseFrame(bytes, &v)) {
      ++accepted;
      accepted_arp += v.is_arp() ? 1 : 0;
      accepted_tcp += v.is_tcp() ? 1 : 0;
      accepted_other_ip += !v.is_arp() && !v.is_tcp() ? 1 : 0;
    }
    return diff.empty();
  };
  // A random byte at `offset`.
  auto corrupt = [&rng](std::vector<uint8_t> bytes, size_t offset) {
    if (offset < bytes.size()) {
      bytes[offset] = static_cast<uint8_t>(rng.Next());
    }
    return bytes;
  };
  constexpr size_t kIp = kEthHeaderLen;
  constexpr size_t kTcp = kEthHeaderLen + kIpHeaderLen;
  for (int i = 0; i < 200; ++i) {
    const std::vector<uint8_t> frame = i % 4 == 3 ? RandomArpFrame(rng) : RandomTcpFrame(rng);
    if (!run(frame)) {
      return;
    }
    for (size_t len = 0; len < frame.size(); ++len) {
      run(std::vector<uint8_t>(frame.begin(), frame.begin() + static_cast<ptrdiff_t>(len)));
    }
    // Ethertype, version/IHL, protocol, the IP and TCP checksums, a
    // payload byte.
    for (size_t offset : {size_t{12}, size_t{13}, kIp, kIp + 9, kIp + 10, kIp + 11, kTcp + 16,
                          kTcp + 17, kTcp + kTcpHeaderLen}) {
      run(corrupt(frame, offset));
    }
    std::vector<uint8_t> udp = frame;
    if (udp.size() > kIp + 9) {
      udp[kIp + 9] = 17;
      run(udp);
    }
    for (uint16_t total_length :
         {uint16_t{0}, uint16_t{kIpHeaderLen + kTcpHeaderLen - 1},
          uint16_t{kIpHeaderLen + kTcpHeaderLen}, static_cast<uint16_t>(frame.size() - kIp),
          static_cast<uint16_t>(frame.size() - kIp + 1), uint16_t{0xffff},
          static_cast<uint16_t>(rng.Next())}) {
      std::vector<uint8_t> bytes = frame;
      if (bytes.size() >= kIp + 4) {
        PutU16(bytes.data() + kIp + 2, total_length);
        run(bytes);
      }
    }
  }
  EXPECT_GT(frames, 2000);
  EXPECT_GT(accepted_tcp, 100);
  EXPECT_GT(accepted_arp, 40);
  EXPECT_GT(accepted_other_ip, 100);
  EXPECT_GT(frames - accepted, 1000);
}

// --- ChecksumPartial against the byte-pair reference ---------------------

// RFC 1071 word by word: `acc` plus each big-endian 16-bit word, the last
// odd byte as a high byte, folded back to 32 bits.
uint32_t BytePairChecksumPartial(const uint8_t* data, size_t len, uint32_t acc) {
  uint64_t sum = acc;
  size_t i = 0;
  for (; i + 1 < len; i += 2) {
    sum += (static_cast<uint32_t>(data[i]) << 8) | data[i + 1];
  }
  if (i < len) {
    sum += static_cast<uint32_t>(data[i]) << 8;
  }
  while (sum >> 32) {
    sum = (sum & 0xffffffff) + (sum >> 32);
  }
  return static_cast<uint32_t>(sum);
}

uint16_t Fold16(uint32_t acc) {
  while (acc >> 16) {
    acc = (acc & 0xffff) + (acc >> 16);
  }
  return static_cast<uint16_t>(acc);
}

// Empty when the folded sums agree for `bytes` (at `offset`, to vary the
// alignment) under `acc`, alone and chained behind a pseudo-header sum.
std::string CompareChecksum(const std::vector<uint8_t>& bytes, size_t offset, uint32_t acc) {
  const uint8_t* data = bytes.data() + offset;
  const size_t len = bytes.size() - offset;
  std::ostringstream diff;
  const uint16_t want = Fold16(BytePairChecksumPartial(data, len, acc));
  const uint16_t got = Fold16(ChecksumPartial(data, len, acc));
  if (want != got) {
    diff << "len " << len << " offset " << offset << " acc " << acc << ": folded " << std::hex
         << got << " != " << want;
    return diff.str();
  }
  const uint8_t pseudo[12] = {10, 0, 0, 1, 10, 0, 0, 2, 0, kIpProtoTcp,
                              static_cast<uint8_t>(len >> 8), static_cast<uint8_t>(len)};
  const uint16_t chained_want =
      Fold16(BytePairChecksumPartial(data, len, BytePairChecksumPartial(pseudo, 12, acc)));
  const uint16_t chained_got = Fold16(ChecksumPartial(data, len, ChecksumPartial(pseudo, 12, acc)));
  if (chained_want != chained_got) {
    diff << "len " << len << " offset " << offset << " acc " << acc << ": chained " << std::hex
         << chained_got << " != " << chained_want;
  }
  return diff.str();
}

TEST(ChecksumPartial, FoldsLikeTheBytePairSumOnRandomInput) {
  Rng rng(1071);
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t len = rng.NextBelow(3001);
    const size_t offset = rng.NextBelow(8);
    std::vector<uint8_t> bytes(offset + len);
    for (uint8_t& b : bytes) {
      b = static_cast<uint8_t>(rng.Next());
    }
    // Plain, small, and full-width starting sums.
    const uint32_t accs[] = {0, static_cast<uint32_t>(rng.NextBelow(0x20000)),
                             static_cast<uint32_t>(rng.Next())};
    for (uint32_t acc : accs) {
      ASSERT_EQ(CompareChecksum(bytes, offset, acc), "") << "trial " << trial;
    }
  }
}

TEST(ChecksumPartial, FoldsLikeTheBytePairSumOnEdgeInput) {
  for (size_t len = 0; len <= 70; ++len) {  // every tail shape, odd and even
    for (uint8_t fill : {uint8_t{0x00}, uint8_t{0xff}, uint8_t{0x80}, uint8_t{0x01}}) {
      for (size_t offset = 0; offset < 4; ++offset) {
        std::vector<uint8_t> bytes(offset + len, fill);
        for (uint32_t acc : {0u, 1u, 0xffffu, 0x10000u, 0xfffeffffu, 0xffffffffu}) {
          ASSERT_EQ(CompareChecksum(bytes, offset, acc), "")
              << "fill " << static_cast<int>(fill);
        }
      }
    }
  }
  // Sums that are nonzero multiples of 0xffff fold to 0xffff, never to 0:
  // 0x8000 + 0x7fff, 0xffff words, and an acc that completes the multiple.
  const std::vector<uint8_t> half_and_half = {0x80, 0x00, 0x7f, 0xff};
  EXPECT_EQ(Fold16(ChecksumPartial(half_and_half.data(), half_and_half.size())), 0xffff);
  for (size_t words = 1; words <= 600; words += 37) {
    std::vector<uint8_t> ones(words * 2, 0xff);
    EXPECT_EQ(Fold16(ChecksumPartial(ones.data(), ones.size())), 0xffff) << words;
    EXPECT_EQ(CompareChecksum(ones, 0, 0), "");
  }
  const std::vector<uint8_t> word = {0x12, 0x34};
  EXPECT_EQ(Fold16(ChecksumPartial(word.data(), word.size(), 0xffff - 0x1234)), 0xffff);
  EXPECT_EQ(CompareChecksum(word, 0, 0xffff - 0x1234), "");
  // All zero with no starting sum is the one way to fold to 0.
  const std::vector<uint8_t> zeros(1500, 0);
  EXPECT_EQ(ChecksumPartial(zeros.data(), zeros.size()), 0u);
  EXPECT_EQ(InternetChecksum(zeros.data(), zeros.size()), 0xffff);
}

TEST(AddressTest, SubnetMatching) {
  Subnet trusted{Ip4Addr::FromOctets(10, 0, 0, 0), 8};
  EXPECT_TRUE(trusted.Contains(Ip4Addr::FromOctets(10, 200, 3, 4)));
  EXPECT_FALSE(trusted.Contains(Ip4Addr::FromOctets(192, 168, 1, 1)));
  Subnet all{Ip4Addr{0}, 0};
  EXPECT_TRUE(all.Contains(Ip4Addr::FromOctets(8, 8, 8, 8)));
  Subnet host{Ip4Addr::FromOctets(10, 0, 0, 1), 32};
  EXPECT_TRUE(host.Contains(Ip4Addr::FromOctets(10, 0, 0, 1)));
  EXPECT_FALSE(host.Contains(Ip4Addr::FromOctets(10, 0, 0, 2)));
}

TEST(AddressTest, Formatting) {
  EXPECT_EQ(Ip4Addr::FromOctets(10, 0, 0, 1).ToString(), "10.0.0.1");
  EXPECT_EQ((Subnet{Ip4Addr::FromOctets(10, 0, 0, 0), 8}).ToString(), "10.0.0.0/8");
  MacAddr mac = MacAddr::FromIndex(1);
  EXPECT_EQ(mac.ToString(), "02:00:00:00:00:01");
  EXPECT_TRUE(MacAddr::Broadcast().IsBroadcast());
}

TEST(AddressTest, ConnKeyOrderingAndEquality) {
  ConnKey a{Ip4Addr{1}, 80, Ip4Addr{2}, 4000};
  ConnKey b{Ip4Addr{1}, 80, Ip4Addr{2}, 4001};
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_FALSE(a == b);
  ConnKey c = a;
  EXPECT_TRUE(a == c);
}

}  // namespace
}  // namespace escort

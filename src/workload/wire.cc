#include "src/workload/wire.h"

#include <cstring>

#include "src/elib/byte_io.h"

namespace escort {

namespace {

// The TCP checksum over the pseudo-header and `segment`: the value to put in
// the checksum field (zero while summing), and zero when verifying a segment
// that carries a correct one.
uint16_t TcpChecksum(Ip4Addr src, Ip4Addr dst, std::span<const uint8_t> segment) {
  uint8_t pseudo[12];
  PutU32(pseudo, src.value);
  PutU32(pseudo + 4, dst.value);
  pseudo[8] = 0;
  pseudo[9] = kIpProtoTcp;
  PutU16(pseudo + 10, static_cast<uint16_t>(segment.size()));
  uint32_t acc = ChecksumPartial(pseudo, sizeof(pseudo));
  acc = ChecksumPartial(segment.data(), segment.size(), acc);
  while (acc >> 16) {
    acc = (acc & 0xffff) + (acc >> 16);
  }
  return static_cast<uint16_t>(~acc);
}

}  // namespace

std::vector<uint8_t> BuildTcpFrame(const MacAddr& src_mac, const MacAddr& dst_mac, Ip4Addr src_ip,
                                   Ip4Addr dst_ip, const TcpHeader& tcp,
                                   const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> f(kEthHeaderLen + kIpHeaderLen + kTcpHeaderLen + payload.size(), 0);
  uint8_t* p = f.data();

  // Ethernet
  std::memcpy(p, dst_mac.bytes.data(), 6);
  std::memcpy(p + 6, src_mac.bytes.data(), 6);
  PutU16(p + 12, kEtherTypeIp);

  // IPv4
  uint8_t* ip = p + kEthHeaderLen;
  ip[0] = 0x45;
  PutU16(ip + 2, static_cast<uint16_t>(kIpHeaderLen + kTcpHeaderLen + payload.size()));
  PutU16(ip + 4, 0);
  ip[8] = 64;
  ip[9] = kIpProtoTcp;
  PutU32(ip + 12, src_ip.value);
  PutU32(ip + 16, dst_ip.value);
  PutU16(ip + 10, InternetChecksum(ip, kIpHeaderLen));

  // TCP
  uint8_t* t = ip + kIpHeaderLen;
  PutU16(t, tcp.src_port);
  PutU16(t + 2, tcp.dst_port);
  PutU32(t + 4, tcp.seq);
  PutU32(t + 8, tcp.ack);
  t[12] = 5 << 4;
  t[13] = tcp.flags;
  PutU16(t + 14, tcp.window);
  if (!payload.empty()) {
    std::memcpy(t + kTcpHeaderLen, payload.data(), payload.size());
  }
  PutU16(t + 16, TcpChecksum(src_ip, dst_ip, {t, kTcpHeaderLen + payload.size()}));
  return f;
}

std::vector<uint8_t> BuildArpFrame(const MacAddr& src_mac, const MacAddr& dst_mac,
                                   const ArpPacket& arp) {
  std::vector<uint8_t> f(kEthHeaderLen + kArpPacketLen, 0);
  uint8_t* p = f.data();
  std::memcpy(p, dst_mac.bytes.data(), 6);
  std::memcpy(p + 6, src_mac.bytes.data(), 6);
  PutU16(p + 12, kEtherTypeArp);
  uint8_t* a = p + kEthHeaderLen;
  PutU16(a, 1);
  PutU16(a + 2, kEtherTypeIp);
  a[4] = 6;
  a[5] = 4;
  PutU16(a + 6, arp.opcode);
  std::memcpy(a + 8, arp.sender_mac.bytes.data(), 6);
  PutU32(a + 14, arp.sender_ip.value);
  std::memcpy(a + 18, arp.target_mac.bytes.data(), 6);
  PutU32(a + 24, arp.target_ip.value);
  return f;
}

bool ParseFrame(std::span<const uint8_t> bytes, FrameView* view) {
  if (bytes.size() < kEthHeaderLen) {
    return false;
  }
  FrameView& f = *view;
  f.frame = bytes;
  f.segment = {};
  const uint8_t* p = bytes.data();
  std::memcpy(f.eth.dst.bytes.data(), p, 6);
  std::memcpy(f.eth.src.bytes.data(), p + 6, 6);
  f.eth.ethertype = GetU16(p + 12);

  if (f.eth.ethertype == kEtherTypeArp) {
    if (bytes.size() < kEthHeaderLen + kArpPacketLen) {
      return false;
    }
    const uint8_t* a = p + kEthHeaderLen;
    f.arp.opcode = GetU16(a + 6);
    std::memcpy(f.arp.sender_mac.bytes.data(), a + 8, 6);
    f.arp.sender_ip.value = GetU32(a + 14);
    std::memcpy(f.arp.target_mac.bytes.data(), a + 18, 6);
    f.arp.target_ip.value = GetU32(a + 24);
    return true;
  }

  if (f.eth.ethertype != kEtherTypeIp || bytes.size() < kEthHeaderLen + kIpHeaderLen) {
    return false;
  }
  const uint8_t* ip = p + kEthHeaderLen;
  if ((ip[0] >> 4) != 4 || (ip[0] & 0xf) != 5) {
    return false;
  }
  f.ip.total_length = GetU16(ip + 2);
  f.ip.ttl = ip[8];
  f.ip.protocol = ip[9];
  f.ip.src.value = GetU32(ip + 12);
  f.ip.dst.value = GetU32(ip + 16);
  if (f.ip.protocol != kIpProtoTcp) {
    return true;
  }
  if (bytes.size() < kEthHeaderLen + kIpHeaderLen + kTcpHeaderLen ||
      f.ip.total_length < kIpHeaderLen + kTcpHeaderLen) {
    return false;
  }
  const size_t tcp_len = f.ip.total_length - kIpHeaderLen;
  if (kEthHeaderLen + kIpHeaderLen + tcp_len > bytes.size()) {
    return false;
  }
  f.segment = bytes.subspan(kEthHeaderLen + kIpHeaderLen, tcp_len);
  f.tcp = ReadTcpHeader(f.segment);
  return true;
}

bool FrameView::IpChecksumOk() const {
  return InternetChecksum(frame.data() + kEthHeaderLen, kIpHeaderLen) == 0;
}

bool FrameView::TcpChecksumOk() const { return TcpChecksum(ip.src, ip.dst, segment) == 0; }

TcpHeader ReadTcpHeader(std::span<const uint8_t> segment) {
  const uint8_t* t = segment.data();
  TcpHeader h;
  h.src_port = GetU16(t);
  h.dst_port = GetU16(t + 2);
  h.seq = GetU32(t + 4);
  h.ack = GetU32(t + 8);
  h.flags = t[13];
  h.window = GetU16(t + 14);
  return h;
}

}  // namespace escort

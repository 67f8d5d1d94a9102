// Raw-frame builders/parsers for the client machines.
//
// Client machines live outside the server under test, so they do not use
// kernel IOBuffers; they build frames as plain byte vectors and parse them
// in place. The implementation is deliberately independent of
// src/net/headers.cc — the two codecs cross-check each other in the interop
// tests.

#ifndef SRC_WORKLOAD_WIRE_H_
#define SRC_WORKLOAD_WIRE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/elib/address.h"
#include "src/net/headers.h"

namespace escort {

// A received frame parsed in place. The headers are held by value; the TCP
// segment (header and payload) is a span into the parsed bytes, so a view
// is valid only while those bytes are alive and unchanged. Parsing copies
// no payload and allocates nothing, and it reads only the headers the frame
// carries: an ARP frame fills `eth` and `arp`, an IPv4 frame `eth` and
// `ip`, and a TCP segment also `tcp` and a non-empty `segment`. The
// checksums are summed on request, so a receiver that drops the frame on a
// cheaper check never sums it; `ip.checksum_ok` and `tcp.checksum_ok` are
// not set.
struct FrameView {
  // Member-wise: the implicit constructor would clear the whole view as one
  // block before setting the headers' defaults, which GCC expands as a
  // `rep stos` on every received frame.
  FrameView() {}

  EthHeader eth;
  ArpPacket arp;
  Ip4Header ip;
  TcpHeader tcp;
  std::span<const uint8_t> frame;    // every parsed byte
  std::span<const uint8_t> segment;  // TCP header + payload; empty unless TCP

  bool is_arp() const { return eth.ethertype == kEtherTypeArp; }
  bool is_tcp() const { return !segment.empty(); }
  std::span<const uint8_t> payload() const { return segment.subspan(kTcpHeaderLen); }  // TCP

  bool IpChecksumOk() const;   // IPv4 frames
  bool TcpChecksumOk() const;  // TCP segments
};

// Parses `bytes` into `*view`; false on malformed input, in which case
// `*view` is partly filled and must not be used.
bool ParseFrame(std::span<const uint8_t> bytes, FrameView* view);

// Reads the fixed TCP header at the front of `segment` (at least
// kTcpHeaderLen bytes); checksum_ok is not set.
TcpHeader ReadTcpHeader(std::span<const uint8_t> segment);

// Builds a complete Ethernet+IPv4+TCP frame with correct checksums.
std::vector<uint8_t> BuildTcpFrame(const MacAddr& src_mac, const MacAddr& dst_mac, Ip4Addr src_ip,
                                   Ip4Addr dst_ip, const TcpHeader& tcp,
                                   const std::vector<uint8_t>& payload);

// Builds an Ethernet+ARP frame.
std::vector<uint8_t> BuildArpFrame(const MacAddr& src_mac, const MacAddr& dst_mac,
                                   const ArpPacket& arp);

}  // namespace escort

#endif  // SRC_WORKLOAD_WIRE_H_

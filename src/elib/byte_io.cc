#include "src/elib/byte_io.h"

#include <bit>

namespace escort {

uint32_t ChecksumPartial(const uint8_t* data, size_t len, uint32_t acc) {
  // RFC 1071 §2: the ones'-complement sum does not depend on byte order,
  // so sum the data as native 32-bit words and byte-swap the folded
  // result once. A 32-bit word is congruent to the sum of its two 16-bit
  // halves modulo 0xffff, and four independent 64-bit lanes break the
  // loop-carried dependency; they cannot overflow below 2^34 bytes.
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    uint32_t w[4];
    std::memcpy(w, data + i, sizeof(w));
    s0 += w[0];
    s1 += w[1];
    s2 += w[2];
    s3 += w[3];
  }
  uint64_t sum = s0 + s1 + s2 + s3;
  for (; i + 4 <= len; i += 4) {
    uint32_t w;
    std::memcpy(&w, data + i, sizeof(w));
    sum += w;
  }
  if (i + 2 <= len) {
    uint16_t w;
    std::memcpy(&w, data + i, sizeof(w));
    sum += w;
    i += 2;
  }
  if (i < len) {
    // The odd byte is the high byte of a big-endian word: native order
    // puts it where that word's first byte goes.
    sum += std::endian::native == std::endian::little ? data[i] : uint32_t{data[i]} << 8;
  }
  // Fold to 16 bits (end-around carry keeps the value nonzero unless every
  // word was zero), then swap into network order.
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  if constexpr (std::endian::native == std::endian::little) {
    sum = ((sum & 0xff) << 8) | (sum >> 8);
  }
  sum += acc;
  while (sum >> 32) {
    sum = (sum & 0xffffffff) + (sum >> 32);
  }
  return static_cast<uint32_t>(sum);
}

uint16_t InternetChecksum(const uint8_t* data, size_t len, uint32_t initial) {
  uint32_t acc = ChecksumPartial(data, len, initial);
  while (acc >> 16) {
    acc = (acc & 0xffff) + (acc >> 16);
  }
  return static_cast<uint16_t>(~acc);
}

}  // namespace escort

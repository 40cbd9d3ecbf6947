#include "net/checksum.h"

#include <bit>
#include <cstring>

namespace nicsched::net {

void InternetChecksum::add(std::span<const std::uint8_t> data) {
  // Sums big-endian 64-bit words with end-around carry. Since 2^16 ≡ 1
  // modulo 0xFFFF, a word is congruent to the sum of its four 16-bit
  // halves, so the folded result equals the RFC 1071 16-bit sum exactly.
  const std::uint8_t* bytes = data.data();
  std::size_t size = data.size();
  std::uint64_t sum = 0;
  for (; size >= 8; bytes += 8, size -= 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes, sizeof word);
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    sum += word;
    sum += sum < word ? 1 : 0;  // the carry out of bit 63 wraps to bit 0
  }
  // Fold to 33 bits; the 16-bit tail and the running total then have room.
  sum = (sum & 0xFFFF'FFFF) + (sum >> 32);
  for (; size >= 2; bytes += 2, size -= 2) {
    sum += static_cast<std::uint64_t>(bytes[0]) << 8 | bytes[1];
  }
  if (size == 1) sum += static_cast<std::uint64_t>(bytes[0]) << 8;
  sum_ += sum;
}

std::uint16_t InternetChecksum::finish() const {
  std::uint64_t sum = sum_;
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  InternetChecksum checksum;
  checksum.add(data);
  return checksum.finish();
}

std::uint16_t udp_checksum(Ipv4Address src, Ipv4Address dst,
                           std::span<const std::uint8_t> udp_segment) {
  InternetChecksum checksum;
  checksum.add_u32(src.bits());
  checksum.add_u32(dst.bits());
  checksum.add_u16(17);  // protocol: UDP
  checksum.add_u16(static_cast<std::uint16_t>(udp_segment.size()));
  checksum.add(udp_segment);
  std::uint16_t result = checksum.finish();
  // RFC 768: a computed checksum of zero is transmitted as all ones, since
  // zero on the wire means "no checksum".
  return result == 0 ? 0xFFFF : result;
}

}  // namespace nicsched::net

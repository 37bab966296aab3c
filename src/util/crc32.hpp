// CRC-32/ISO-HDLC, the checksum of zlib, gzip and IEEE 802.3: reflected
// polynomial 0xEDB88320, initial value and final XOR 0xFFFFFFFF, check
// value crc32("123456789") == 0xCBF43926.
//
// The btrace trace container and the bbackpt checkpoint container checksum
// every block, section and footer with this one function. It is portable
// slice-by-8: eight table lookups per 8 input bytes instead of one per
// byte, with no ISA-specific path. (The SSE4.2 crc32 instruction computes
// CRC-32C, a different polynomial, so it cannot stand in.)
#pragma once

#include <cstddef>
#include <cstdint>

namespace bba::util {

std::uint32_t crc32(const void* data, std::size_t n);

}  // namespace bba::util

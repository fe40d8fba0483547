// CRC32C (Castagnoli, RFC 3720 §B.4), table-driven (slice-by-8).
//
// Used by the CGAR archive store (src/store/) to checksum every block:
// a bit flip anywhere in a payload must be caught before the record decoder
// sees it. Not cryptographic — it detects corruption, not tampering.
#pragma once

#include <cstdint>
#include <string_view>

namespace cg::crypto {

/// Incremental CRC32C over a byte stream.
class Crc32c {
 public:
  void update(std::string_view data);
  /// The finalised (inverted) checksum of everything updated so far. The
  /// object stays usable: value() can be sampled mid-stream.
  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot convenience.
std::uint32_t crc32c(std::string_view data);

}  // namespace cg::crypto

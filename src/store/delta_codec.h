// Per-site delta encoding for CGAR delta archives.
//
// A delta block carries one site's visit log as an edit script against the
// byte payload of the same rank's block in the base archive:
//
//   Delta payload := varint rank | u8 mode | body
//     mode 0 (diff): u32 crc32c(base payload) | op stream
//     mode 1 (raw):  the full site-block payload (rank absent from base,
//                    or the diff would have been larger)
//
//   op := varint tag               tag = (len << 1) | kind, len >= 1
//         kind 0 (copy):   varint base_offset — copy len base bytes
//         kind 1 (insert): len literal bytes follow
//
// The diff is a greedy 16-byte-anchor matcher over a sorted (hash, offset)
// table of the base payload — plain sorted vectors, no unordered
// containers, so the encoding is a pure function of (base, target) and a
// delta archive written at N threads is byte-identical to 1 thread.
//
// The mode-0 CRC pins the exact base bytes the ops were computed against:
// applying a delta to any other block (a spliced or regenerated base)
// fails kBaseMismatch before producing silently wrong records.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "instrument/records.h"
#include "store/cgar.h"

namespace cg::store {

/// Encodes `new_payload` as a delta-block payload against `base_payload`.
/// Picks whichever of diff/raw mode is smaller (diff wins ties).
std::string encode_delta_payload(int rank, std::string_view base_payload,
                                 std::string_view new_payload);

/// Raw-mode delta payload for a rank the base archive does not hold.
std::string encode_raw_delta_payload(int rank, std::string_view new_payload);

/// Applies a delta payload to the base block payload it was diffed
/// against, yielding the wave's site-block payload. kBaseMismatch when the
/// recorded base CRC disagrees with `base_payload`; kCorruptBlock on any
/// structural damage (bad op, out-of-range copy).
std::optional<std::string> apply_delta_payload(std::string_view delta_payload,
                                               std::string_view base_payload,
                                               Error* error = nullptr);

/// Structural validation only (op stream well-formed, lengths in range of
/// the declared sizes) — what verify() can check without the base archive.
bool validate_delta_payload(std::string_view delta_payload,
                            Error* error = nullptr);

/// One site's contribution to a delta archive, computed on a shard worker.
struct WaveBlock {
  enum class Kind {
    kInherited,  // byte-identical to the base: no block, footer entry only
    kDelta,      // framed kDelta block in `block`
  };
  Kind kind = Kind::kDelta;
  std::string block;
};

/// Encodes `log` against the base wave's *materialized* site payload for
/// the same rank (std::nullopt when the base holds no such rank):
/// byte-identical → inherited; absent → raw delta; otherwise a diff. Pure,
/// thread-safe — shard workers call this so the merge thread only appends.
WaveBlock make_wave_block(std::optional<std::string_view> base_payload,
                          const instrument::VisitLog& log);

}  // namespace cg::store

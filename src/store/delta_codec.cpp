#include "store/delta_codec.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "crypto/crc32c.h"
#include "store/record_codec.h"

namespace cg::store {
namespace {

constexpr std::uint8_t kModeDiff = 0;
constexpr std::uint8_t kModeRaw = 1;

/// Anchor granularity of the diff matcher. 16 bytes is small enough that a
/// renewed cookie value (24 hex chars) still leaves matchable runs around
/// it, large enough that anchor tables stay ~payload/16 entries.
constexpr std::size_t kChunk = 16;

/// Candidates examined per anchor hash. Bounds worst-case encode time on
/// pathological (highly repetitive) payloads; candidates are visited in
/// ascending base offset, so the cap is deterministic.
constexpr std::size_t kMaxCandidates = 8;

std::uint64_t chunk_hash(const char* p) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  for (std::size_t i = 0; i < kChunk; ++i) {
    h = (h ^ static_cast<std::uint8_t>(p[i])) * 1099511628211ULL;
  }
  return h;
}

void put_copy(std::string& out, std::uint64_t len, std::uint64_t offset) {
  put_varint(out, len << 1);
  put_varint(out, offset);
}

void put_insert(std::string& out, std::string_view bytes) {
  put_varint(out, (static_cast<std::uint64_t>(bytes.size()) << 1) | 1);
  out += bytes;
}

/// Greedy anchor-match edit script; returns just the op stream.
std::string diff_ops(std::string_view base, std::string_view target) {
  // Sorted (hash, offset) anchors at base chunk boundaries. Sorting by
  // (hash, offset) makes candidate visit order — and so the whole edit
  // script — a pure function of the two byte strings.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> anchors;
  if (base.size() >= kChunk) {
    anchors.reserve(base.size() / kChunk);
    for (std::size_t off = 0; off + kChunk <= base.size(); off += kChunk) {
      anchors.emplace_back(chunk_hash(base.data() + off), off);
    }
    std::sort(anchors.begin(), anchors.end());
  }

  std::string out;
  std::size_t literal_start = 0;
  const auto flush_literal = [&](std::size_t end) {
    if (end > literal_start) {
      put_insert(out, target.substr(literal_start, end - literal_start));
    }
  };

  std::size_t pos = 0;
  while (pos + kChunk <= target.size()) {
    const std::uint64_t h = chunk_hash(target.data() + pos);
    const auto range = std::equal_range(
        anchors.begin(), anchors.end(), std::make_pair(h, std::uint64_t{0}),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t best_len = 0;
    std::size_t best_off = 0;
    std::size_t examined = 0;
    for (auto it = range.first;
         it != range.second && examined < kMaxCandidates; ++it, ++examined) {
      const std::size_t off = static_cast<std::size_t>(it->second);
      std::size_t len = 0;
      const std::size_t max_len =
          std::min(target.size() - pos, base.size() - off);
      while (len < max_len && base[off + len] == target[pos + len]) ++len;
      if (len >= kChunk && len > best_len) {
        best_len = len;
        best_off = off;
      }
    }
    if (best_len >= kChunk) {
      flush_literal(pos);
      put_copy(out, best_len, best_off);
      pos += best_len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  flush_literal(target.size());
  return out;
}

void set_error(Error* error, fault::ArchiveFault code, std::string detail) {
  if (error != nullptr) *error = {code, std::move(detail)};
}

}  // namespace

std::string encode_raw_delta_payload(int rank, std::string_view new_payload) {
  std::string out;
  put_varint(out, static_cast<std::uint64_t>(rank));
  out.push_back(static_cast<char>(kModeRaw));
  out += new_payload;
  return out;
}

std::string encode_delta_payload(int rank, std::string_view base_payload,
                                 std::string_view new_payload) {
  std::string diff;
  put_varint(diff, static_cast<std::uint64_t>(rank));
  diff.push_back(static_cast<char>(kModeDiff));
  put_u32le(diff, crypto::crc32c(base_payload));
  diff += diff_ops(base_payload, new_payload);

  std::string raw = encode_raw_delta_payload(rank, new_payload);
  return diff.size() <= raw.size() ? diff : raw;
}

std::optional<std::string> apply_delta_payload(std::string_view delta_payload,
                                               std::string_view base_payload,
                                               Error* error) {
  ByteReader reader(delta_payload);
  (void)reader.varint();  // rank — the caller checks it against the index
  const auto mode_byte = reader.bytes(1);
  if (reader.failed) {
    set_error(error, fault::ArchiveFault::kCorruptBlock,
              "delta payload header is cut short");
    return std::nullopt;
  }
  const std::uint8_t mode = static_cast<std::uint8_t>(mode_byte[0]);
  if (mode == kModeRaw) {
    if (error != nullptr) *error = {};
    return std::string(reader.bytes(reader.remaining()));
  }
  if (mode != kModeDiff) {
    set_error(error, fault::ArchiveFault::kCorruptBlock,
              "delta payload declares unknown mode " + std::to_string(mode));
    return std::nullopt;
  }
  const std::uint32_t base_crc = reader.u32le();
  if (reader.failed) {
    set_error(error, fault::ArchiveFault::kCorruptBlock,
              "delta payload base CRC is cut short");
    return std::nullopt;
  }
  if (crypto::crc32c(base_payload) != base_crc) {
    set_error(error, fault::ArchiveFault::kBaseMismatch,
              "delta was diffed against different base bytes (base CRC "
              "mismatch)");
    return std::nullopt;
  }
  std::string out;
  while (reader.remaining() > 0) {
    const std::uint64_t tag = reader.varint();
    const std::uint64_t len = tag >> 1;
    if (reader.failed || len == 0) {
      set_error(error, fault::ArchiveFault::kCorruptBlock,
                "delta op stream holds a malformed op tag");
      return std::nullopt;
    }
    if ((tag & 1) == 0) {
      const std::uint64_t offset = reader.varint();
      if (reader.failed || offset > base_payload.size() ||
          len > base_payload.size() - offset) {
        set_error(error, fault::ArchiveFault::kCorruptBlock,
                  "delta copy op reaches outside the base payload");
        return std::nullopt;
      }
      out += base_payload.substr(static_cast<std::size_t>(offset),
                                 static_cast<std::size_t>(len));
    } else {
      const std::string_view literal =
          reader.bytes(static_cast<std::size_t>(len));
      if (reader.failed) {
        set_error(error, fault::ArchiveFault::kCorruptBlock,
                  "delta insert op is cut short");
        return std::nullopt;
      }
      out += literal;
    }
  }
  if (error != nullptr) *error = {};
  return out;
}

bool validate_delta_payload(std::string_view delta_payload, Error* error) {
  ByteReader reader(delta_payload);
  (void)reader.varint();  // rank
  const auto mode_byte = reader.bytes(1);
  if (reader.failed) {
    set_error(error, fault::ArchiveFault::kCorruptBlock,
              "delta payload header is cut short");
    return false;
  }
  const std::uint8_t mode = static_cast<std::uint8_t>(mode_byte[0]);
  if (mode == kModeRaw) {
    if (error != nullptr) *error = {};
    return true;
  }
  if (mode != kModeDiff) {
    set_error(error, fault::ArchiveFault::kCorruptBlock,
              "delta payload declares unknown mode " + std::to_string(mode));
    return false;
  }
  (void)reader.u32le();  // base CRC — needs the base archive to check
  while (!reader.failed && reader.remaining() > 0) {
    const std::uint64_t tag = reader.varint();
    const std::uint64_t len = tag >> 1;
    if (reader.failed || len == 0) {
      set_error(error, fault::ArchiveFault::kCorruptBlock,
                "delta op stream holds a malformed op tag");
      return false;
    }
    if ((tag & 1) == 0) {
      (void)reader.varint();  // base offset — range-checked at apply time
    } else {
      (void)reader.bytes(static_cast<std::size_t>(len));
    }
  }
  if (reader.failed) {
    set_error(error, fault::ArchiveFault::kCorruptBlock,
              "delta op stream is cut short");
    return false;
  }
  if (error != nullptr) *error = {};
  return true;
}

WaveBlock make_wave_block(std::optional<std::string_view> base_payload,
                          const instrument::VisitLog& log) {
  const std::string new_payload = encode_site_payload(log);
  if (!base_payload) {
    // Rank absent from the base: a site that newly answered this wave.
    WaveBlock out;
    out.kind = WaveBlock::Kind::kDelta;
    out.block = encode_block(BlockType::kDelta,
                             encode_raw_delta_payload(log.rank, new_payload));
    return out;
  }
  if (*base_payload == new_payload) {
    return WaveBlock{WaveBlock::Kind::kInherited, {}};
  }
  WaveBlock out;
  out.kind = WaveBlock::Kind::kDelta;
  out.block = encode_block(
      BlockType::kDelta,
      encode_delta_payload(log.rank, *base_payload, new_payload));
  return out;
}

}  // namespace cg::store

#include "store/writer.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "store/record_codec.h"

namespace cg::store {
namespace {

void set_error(Error* error, fault::ArchiveFault code, std::string detail) {
  if (error != nullptr) *error = {code, std::move(detail)};
}

/// Append-style message builder (GCC 12 -Wrestrict, PR 105329).
template <typename... Parts>
std::string concat(Parts&&... parts) {
  std::string out;
  (out.append(parts), ...);
  return out;
}

/// Histogram bounds for the virtual I/O backoff clock (ms).
const std::vector<double>& io_backoff_bounds() {
  static const std::vector<double> bounds = {50, 100, 200, 400, 800, 1'600,
                                             3'200, 6'400};
  return bounds;
}

}  // namespace

Writer::Writer(std::unique_ptr<ByteSink> sink, WriterOptions options)
    : sink_(std::move(sink)), options_(options) {
  if (!append_bytes(encode_header(), "header")) dead_ = true;
}

Writer::Writer(std::unique_ptr<ByteSink> sink, WriterOptions options,
               ResumePrefix prefix)
    : sink_(std::move(sink)),
      options_(options),
      index_(std::move(prefix.index)),
      bytes_(prefix.bytes),
      synced_bytes_(prefix.bytes) {
  if (!index_.empty()) last_rank_ = index_.back().rank;
}

Writer::~Writer() {
  // Deliberately no auto-finish: an unfinished archive (no footer) is the
  // on-disk signature of an interrupted crawl, which resume() understands.
  // Finishing in a destructor would turn a crash-mid-crawl into a footer
  // claiming the truncated site set is complete.
}

std::unique_ptr<Writer> Writer::create(const std::string& path,
                                       WriterOptions options, Error* error) {
  IoStatus status;
  auto sink = FileSink::open(path, /*append=*/false, &status);
  if (sink == nullptr) {
    set_error(error, fault::ArchiveFault::kIoError, status.to_string());
    return nullptr;
  }
  auto writer =
      std::unique_ptr<Writer>(new Writer(std::move(sink), options));
  if (writer->dead_) {
    if (error != nullptr) *error = writer->last_io_error_;
    return nullptr;
  }
  return writer;
}

std::optional<Writer::ResumePrefix> Writer::walk_prefix(
    const std::string& path, int sites, Error* error) {
  FileSource source(path);
  std::string bytes;
  if (const IoStatus status = source.read_all(&bytes); !status.ok()) {
    set_error(error, fault::ArchiveFault::kIoError, status.to_string());
    return std::nullopt;
  }

  const std::string header = encode_header();
  if (bytes.size() < header.size() ||
      std::string_view(bytes).substr(0, header.size()) != header) {
    set_error(error, fault::ArchiveFault::kBadMagic,
              concat(path, " does not start with a CGAR v1 header"));
    return std::nullopt;
  }

  // CRC-walk the prefix the checkpoint accounted for, rebuilding the
  // writer's index. Footer blocks (a previously *finished* archive being
  // extended) are skipped, not counted.
  ResumePrefix prefix;
  prefix.index.reserve(static_cast<std::size_t>(sites < 0 ? 0 : sites));
  std::size_t offset = header.size();
  while (static_cast<int>(prefix.index.size()) < sites) {
    Error block_error;
    const auto frame = decode_block(bytes, offset, &block_error);
    if (!frame) {
      // Surface the precise damage class: a block that simply ran out of
      // bytes is kTruncated (crash tail — expected, resume's bread and
      // butter), but a checksum or structural failure *inside* the
      // checkpointed prefix means the checkpoint's promise is broken.
      const fault::ArchiveFault code =
          block_error.code == fault::ArchiveFault::kNone
              ? fault::ArchiveFault::kTruncated
              : block_error.code;
      set_error(error, code,
                concat(path, " holds only ",
                       std::to_string(prefix.index.size()),
                       " intact site blocks before offset ",
                       std::to_string(offset), ", checkpoint expects ",
                       std::to_string(sites), " (", block_error.to_string(),
                       ")"));
      return std::nullopt;
    }
    if (frame->type == BlockType::kSite) {
      const auto rank = peek_site_rank(frame->payload);
      if (!rank) {
        set_error(error, fault::ArchiveFault::kCorruptBlock,
                  concat("site block at offset ", std::to_string(offset),
                         " has an unreadable rank"));
        return std::nullopt;
      }
      prefix.index.push_back({*rank, offset, frame->total_size});
    }
    offset += frame->total_size;
  }

  // Everything after the checkpointed prefix — blocks written between the
  // checkpoint and the crash, torn or bit-flipped tails, or an old footer
  // — is discarded so the resumed crawl re-emits it deterministically.
  std::error_code ec;
  std::filesystem::resize_file(path, offset, ec);
  if (ec) {
    set_error(error, fault::ArchiveFault::kIoError,
              concat("cannot truncate ", path, ": ", ec.message()));
    return std::nullopt;
  }
  prefix.bytes = offset;
  return prefix;
}

std::unique_ptr<Writer> Writer::resume(const std::string& path,
                                       WriterOptions options, int sites,
                                       Error* error) {
  auto prefix = walk_prefix(path, sites, error);
  if (!prefix) return nullptr;
  IoStatus status;
  auto sink = FileSink::open(path, /*append=*/true, &status);
  if (sink == nullptr) {
    set_error(error, fault::ArchiveFault::kIoError, status.to_string());
    return nullptr;
  }
  return std::unique_ptr<Writer>(
      new Writer(std::move(sink), options, std::move(*prefix)));
}

void Writer::count_metric(std::string_view name, std::int64_t delta) {
  if (options_.metrics != nullptr) options_.metrics->add(name, delta);
}

bool Writer::run_io(std::string_view what,
                    const std::function<IoStatus()>& attempt) {
  if (dead_) return false;
  const int max_retries = std::max(options_.io.max_retries, 0);
  for (int try_index = 0;; ++try_index) {
    const IoStatus status = attempt();
    if (status.ok()) {
      if (try_index > 0) count_metric("io.recovered_ops");
      return true;
    }
    count_metric(concat("io.faults.", fault::io_fault_name(status.fault)));
    if (dead_ || try_index >= max_retries) {
      last_io_error_ = {
          fault::ArchiveFault::kIoError,
          concat(what, ": ", status.to_string(), " (",
                 std::to_string(try_index + 1), " attempts)")};
      return false;
    }
    // Exponential backoff on the virtual I/O clock — accounted, never
    // slept, so chaos runs stay fast and deterministic.
    const TimeMillis backoff =
        options_.io.backoff_base_ms
        * (TimeMillis{1} << std::min(try_index, 20));
    io_backoff_ms_ += backoff;
    count_metric("io.retries");
    if (options_.metrics != nullptr) {
      options_.metrics->observe("io.backoff_ms", io_backoff_bounds(),
                                static_cast<double>(backoff));
    }
  }
}

bool Writer::append_bytes(std::string_view bytes, std::string_view what) {
  const std::uint64_t start = bytes_;
  bool may_have_partial = false;
  const bool ok = run_io(what, [&]() -> IoStatus {
    if (may_have_partial) {
      // A prior try may have left a prefix (short write) or corrupted
      // bytes (scrub mismatch) on the medium: restore the block boundary
      // before retrying.
      if (IoStatus t = sink_->truncate(start); !t.ok()) return t;
    }
    may_have_partial = true;
    if (IoStatus s = sink_->write(bytes); !s.ok()) return s;
    if (options_.io.scrub_writes && sink_->supports_read_back()) {
      std::string echo;
      if (IoStatus r = sink_->read_back(start, bytes.size(), &echo);
          !r.ok()) {
        return r;
      }
      if (echo != bytes) {
        // The medium acknowledged the write but holds different bytes: a
        // silent flip, caught only because we scrubbed. Count it and
        // retry through the normal truncate-back path.
        count_metric("io.scrub_detected");
        return {fault::IoFault::kBitFlip,
                concat("scrub mismatch at offset ", std::to_string(start))};
      }
    }
    return {};
  });
  if (!ok) {
    // Permanent failure: restore the pre-block state so the archive stays
    // internally consistent (best effort — a sink without truncate keeps
    // the partial bytes, and finish() will still report the error).
    if (may_have_partial) (void)sink_->truncate(start);
    return false;
  }
  bytes_ += bytes.size();
  if (options_.io.buffer_unsynced) unsynced_.append(bytes);
  return true;
}

bool Writer::add(const instrument::VisitLog& log) {
  return append_site_block(log.rank, encode_site_block(log));
}

void Writer::note_rank(int rank) {
  if (!index_.empty() || !inherited_.empty()) {
    if (rank <= last_rank_) rank_order_violated_ = true;
  }
  last_rank_ = rank;
}

bool Writer::append_site_block(int rank, std::string&& block) {
  if (dead_) return false;
  note_rank(rank);
  const std::uint64_t offset = bytes_;
  if (!append_bytes(block, "site block")) return false;
  index_.push_back({rank, offset, block.size()});
  return true;
}

bool Writer::append_delta_block(int rank, std::string&& block) {
  if (dead_) return false;
  note_rank(rank);
  const std::uint64_t offset = bytes_;
  if (!append_bytes(block, "delta block")) return false;
  index_.push_back({rank, offset, block.size()});
  return true;
}

bool Writer::add_inherited(int rank) {
  if (dead_) return false;
  note_rank(rank);
  inherited_.push_back(rank);
  return true;
}

bool Writer::sync_for_checkpoint(Error* error) {
  if (dead_) {
    if (error != nullptr) *error = last_io_error_;
    return false;
  }
  // `tail_dirty` = the medium's tail no longer matches bytes_ (an injected
  // fsync loss tore it, or a heal rewrite was itself interrupted): the next
  // try must truncate back to the durable prefix and rewrite from the
  // in-memory tail buffer before syncing again.
  bool tail_dirty = false;
  const bool ok = run_io("sync", [&]() -> IoStatus {
    if (tail_dirty) {
      if (IoStatus t = sink_->truncate(synced_bytes_); !t.ok()) return t;
      if (IoStatus w = sink_->write(unsynced_); !w.ok()) return w;
      tail_dirty = false;
      count_metric("io.sync_heals");
    }
    if (IoStatus f = sink_->flush(); !f.ok()) return f;
    IoStatus s = sink_->sync();
    if (s.fault == fault::IoFault::kFsyncLost) {
      if (!options_.io.buffer_unsynced) {
        // The dropped tail was never buffered: the writer cannot restore
        // it, and appending at bytes_ would leave a hole. Unrecoverable.
        dead_ = true;
        return s;
      }
      tail_dirty = true;
    }
    return s;
  });
  if (!ok) {
    if (tail_dirty) {
      // The medium is desynced from bytes_ and could not be repaired:
      // further appends would land at wrong offsets.
      dead_ = true;
    }
    if (error != nullptr) *error = last_io_error_;
    return false;
  }
  synced_bytes_ = bytes_;
  unsynced_.clear();
  if (error != nullptr) *error = {};
  return true;
}

bool Writer::finish(Error* error) {
  if (finished_) return true;
  if (dead_) {
    if (error != nullptr) *error = last_io_error_;
    return false;
  }
  if (rank_order_violated_) {
    set_error(error, fault::ArchiveFault::kDuplicateSite,
              "site blocks were appended out of rank order");
    return false;
  }
  FooterInfo info;
  info.format_version = kFormatVersion;
  info.schema_version = instrument::kVisitLogSchemaVersion;
  info.corpus_seed = options_.corpus_seed;
  info.fault_seed = options_.fault_seed;
  info.policy = options_.policy;
  info.kind = options_.kind;
  info.wave = options_.wave;
  info.evolution_seed = options_.evolution_seed;
  if (options_.kind == ArchiveKind::kDelta) {
    info.base = options_.base;
    info.inherited_ranks = inherited_;
  }
  const std::uint64_t footer_offset = bytes_;
  if (!append_bytes(
          encode_block(BlockType::kFooter, encode_footer_payload(info, index_)),
          "footer") ||
      !append_bytes(encode_trailer(footer_offset), "trailer")) {
    if (error != nullptr) *error = last_io_error_;
    return false;
  }
  // Final durability barrier: the footer's promise of completeness only
  // counts once it survives a crash.
  if (!sync_for_checkpoint(error)) return false;
  finished_ = true;
  if (error != nullptr) *error = {};
  return true;
}

}  // namespace cg::store

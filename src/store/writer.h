// Streaming CGAR writer — self-healing since PR 6.
//
// Append-only: header on construction, one site block per add() /
// append_site_block() call, footer + trailer on finish(). The writer holds
// only the (rank, offset, length) index in memory — a 20k-site archive
// streams to disk without the record corpus ever being resident.
//
// Threading contract mirrors the crawl's merge discipline: encoding a block
// (encode_site_block) is pure and runs on shard workers; the Writer itself
// is single-thread and is only ever called from the merge thread, in
// site-index order. That makes the archive byte-identical at any thread
// count — including its I/O retry schedule, since the sink op sequence is a
// pure function of the block sequence.
//
// Self-healing: all bytes flow through a store::ByteSink whose failures
// carry the fault::IoFault taxonomy. Transient faults (ENOSPC, short
// writes, stream errors) are healed by truncate-back-and-retry with
// exponential backoff accounted on a virtual I/O clock; scrub_writes
// read-back-verifies every appended block, which is the only way to catch
// silent bit flips; sync_for_checkpoint() establishes a durability barrier
// and — when buffer_unsynced is on — heals fsync loss by rewriting the
// dropped tail. Per-class error budgets flow through obs::MetricsRegistry
// (io.faults.*, io.retries, io.scrub_detected, io.sync_heals,
// io.backoff_ms). A block that exhausts the retry budget fails the append
// (false) with the file restored to its pre-block state: the crawler
// quarantines that site and the run continues.
//
// Crash safety: resume() reopens a partial archive (header + site blocks,
// no footer), keeps exactly the `sites` blocks a crawl checkpoint accounted
// for, truncates anything written after the checkpoint — torn blocks,
// bit-flipped tails, garbage — and continues appending: the finished file
// is byte-identical to an uninterrupted run. Damage *inside* the
// checkpointed prefix is not repairable from the checkpoint and surfaces
// with its precise taxonomy class (kChecksumMismatch for flips, kTruncated
// for missing bytes). walk_prefix() exposes the validate-and-truncate step
// so harnesses can resume onto custom sinks (bench_chaos resumes through a
// FaultingSink).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "instrument/records.h"
#include "net/clock.h"
#include "obs/metrics.h"
#include "store/byte_sink.h"
#include "store/cgar.h"

namespace cg::store {

/// Retry/repair policy for sink operations.
struct IoRetryPolicy {
  /// Retries per failed operation beyond the first attempt.
  int max_retries = 8;
  /// Exponential backoff between attempts — doubles per retry — accounted
  /// on the writer's virtual I/O clock (io_backoff_ms()), never slept.
  TimeMillis backoff_base_ms = 50;
  /// Read-back-verify every appended block against the medium. The only
  /// defense against silent bit flips; requires a sink with read_back
  /// support (no-op otherwise). Off by default: scrubbing re-reads every
  /// byte written.
  bool scrub_writes = false;
  /// Retain the bytes appended since the last successful sync so
  /// sync_for_checkpoint() can heal fsync loss by rewriting the dropped
  /// tail. Memory-bounded by the checkpoint interval; off by default
  /// because a checkpoint-less pack would buffer the whole archive.
  bool buffer_unsynced = false;
};

struct WriterOptions {
  /// Provenance recorded in the footer; readers cross-check these against
  /// the corpus an analysis is about to run with.
  std::uint64_t corpus_seed = 0;
  std::uint64_t fault_seed = 0;  // 0 = crawl ran with faults disabled
  /// Longitudinal provenance (footer extension). The partitioning policy
  /// the crawl ran under is hard provenance, same as the seeds.
  ArchivePolicy policy = ArchivePolicy::kNone;
  ArchiveKind kind = ArchiveKind::kFull;
  std::uint32_t wave = 0;
  std::uint64_t evolution_seed = 0;  // 0 = corpus does not evolve
  /// Required when kind == kDelta: the exact base wave this archive's
  /// deltas and inherited ranks resolve against.
  BaseProvenance base;
  IoRetryPolicy io;
  /// Receives the I/O error-budget counters (io.*). Non-owning; must be
  /// driven from the writer's (merge) thread only.
  obs::MetricsRegistry* metrics = nullptr;
};

class Writer {
 public:
  /// Streams to `sink` (fresh archive: writes the header immediately).
  /// Header-write failure after retries marks the writer dead — every
  /// append fails and finish() reports the taxonomized error.
  Writer(std::unique_ptr<ByteSink> sink, WriterOptions options);

  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Creates `path` (truncating) and returns a writer that owns the sink.
  /// Null + Error{kIoError} when the file cannot be opened or the header
  /// cannot be written.
  static std::unique_ptr<Writer> create(const std::string& path,
                                        WriterOptions options,
                                        Error* error = nullptr);

  /// Reopens a partial archive for checkpoint resume: walk_prefix() +
  /// append-mode FileSink. Null + taxonomy'd error when the prefix is
  /// unusable.
  static std::unique_ptr<Writer> resume(const std::string& path,
                                        WriterOptions options, int sites,
                                        Error* error = nullptr);

  /// A validated resume prefix: the rebuilt index and its byte extent.
  struct ResumePrefix {
    std::vector<IndexEntry> index;
    std::uint64_t bytes = 0;
  };

  /// The validate-and-truncate half of resume(): validates the header,
  /// CRC-walks the first `sites` site blocks (rebuilding the index), and
  /// truncates the file after them — discarding torn, bit-flipped, or
  /// garbage tails. Fewer than `sites` intact blocks fails with the
  /// precise taxonomy class of the damage (kTruncated when the bytes ran
  /// out, kChecksumMismatch/kCorruptBlock when the prefix itself is
  /// damaged). Pair with the adopting constructor to resume onto a custom
  /// sink.
  static std::optional<ResumePrefix> walk_prefix(const std::string& path,
                                                 int sites,
                                                 Error* error = nullptr);

  /// Adopts a validated prefix (from walk_prefix) and appends through
  /// `sink`, which must already be positioned at prefix.bytes (e.g. a
  /// FileSink opened in append mode after walk_prefix truncated the file).
  Writer(std::unique_ptr<ByteSink> sink, WriterOptions options,
         ResumePrefix prefix);

  /// Encodes and appends one site block. Equivalent to
  /// append_site_block(log.rank, encode_site_block(log)) — use the split
  /// form when blocks are encoded ahead of time on shard workers.
  bool add(const instrument::VisitLog& log);

  /// Appends a pre-framed site block (from encode_site_block). Blocks must
  /// arrive in strictly increasing rank order; violations are surfaced at
  /// finish() rather than silently producing an unreadable archive.
  /// Transient I/O faults are healed internally (truncate-back + retry +
  /// scrub). False = the block exhausted the retry budget and the file was
  /// restored to its pre-block state (last_io_error() has the taxonomy):
  /// the caller decides whether to quarantine the site or abort.
  bool append_site_block(int rank, std::string&& block);

  /// Delta archives (kind == kDelta): appends a pre-framed kDelta block
  /// (from make_wave_block). Same healing and
  /// rank-order contract as append_site_block; site, delta, and inherited
  /// ranks share one strictly-increasing order.
  bool append_delta_block(int rank, std::string&& block);

  /// Delta archives: records `rank` as inherited — byte-identical to the
  /// base wave, so it costs zero archive bytes and only a footer entry.
  /// Cannot fail on I/O (nothing is written until finish()).
  bool add_inherited(int rank);

  /// Durability barrier before a checkpoint is emitted: flush + sync with
  /// the same retry budget, healing fsync loss by rewriting the unsynced
  /// tail when buffer_unsynced is on. A checkpoint emitted after this
  /// returns true references only bytes that survive a crash. False: the
  /// barrier could not be established — skip the checkpoint emission (the
  /// previous checkpoint remains the recovery point).
  bool sync_for_checkpoint(Error* error = nullptr);

  /// Writes footer + trailer, flushes, and syncs. False + taxonomy'd error
  /// if I/O failed permanently or blocks arrived out of rank order.
  /// Idempotent.
  bool finish(Error* error = nullptr);

  int sites_written() const { return static_cast<int>(index_.size()); }
  int inherited_written() const {
    return static_cast<int>(inherited_.size());
  }
  /// Bytes emitted so far (header + site blocks; footer/trailer only after
  /// finish()). A crawl checkpoint records this for resume verification.
  std::uint64_t bytes_written() const { return bytes_; }
  const std::vector<IndexEntry>& index() const { return index_; }

  /// Virtual time burned in I/O retry backoff (never slept; accounted so
  /// chaos runs can assert on it and ops dashboards can graph it).
  TimeMillis io_backoff_ms() const { return io_backoff_ms_; }
  /// The last permanent (post-retry) I/O failure, kNone-coded if none.
  const Error& last_io_error() const { return last_io_error_; }

 private:
  /// Runs `attempt` under the retry policy: counts per-class faults,
  /// advances the virtual backoff clock between tries, and records the
  /// permanent error on exhaustion. `attempt` must be re-runnable.
  bool run_io(std::string_view what,
              const std::function<IoStatus()>& attempt);

  /// One retryable unit: truncate back to the pre-write offset (when a
  /// prior try may have landed bytes), write, optionally scrub. On success
  /// advances bytes_ and the unsynced buffer.
  bool append_bytes(std::string_view bytes, std::string_view what);

  void count_metric(std::string_view name, std::int64_t delta = 1);

  /// Tracks the shared rank order across site blocks, delta blocks, and
  /// inherited ranks; violations surface at finish().
  void note_rank(int rank);

  std::unique_ptr<ByteSink> sink_;
  WriterOptions options_;
  std::vector<IndexEntry> index_;
  std::vector<int> inherited_;  // delta archives: zero-byte ranks
  int last_rank_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t synced_bytes_ = 0;
  std::string unsynced_;  // bytes since last sync, when buffer_unsynced
  TimeMillis io_backoff_ms_ = 0;
  Error last_io_error_;
  bool finished_ = false;
  bool rank_order_violated_ = false;
  /// Unrecoverable writer state: header never landed, or a sync loss could
  /// not be healed (no tail buffer). All further appends fail fast.
  bool dead_ = false;
};

}  // namespace cg::store

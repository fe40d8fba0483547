// Byte-level I/O abstraction under the CGAR writer/reader.
//
// Every byte the store emits flows through a ByteSink, and every archive a
// reader loads comes through a ByteSource. The indirection buys two things:
//
//   1. Checked I/O everywhere: each operation returns an IoStatus carrying a
//      fault::IoFault taxonomy class — no more bare std::ofstream writes
//      whose failures surface as silently truncated files (cglint rule W1
//      mechanizes this for src/store/, src/crawler/, examples/).
//   2. Deterministic chaos: a FaultingSink wraps any sink and injects the
//      write-side fault taxonomy — ENOSPC, short writes, fsync loss,
//      silent bit flips — on a seeded per-op schedule (fault::IoFaultPlan),
//      which is what bench_chaos and the self-healing writer tests drive.
//
// Threading contract: a sink belongs to the writer's merge thread; nothing
// here is thread-safe, matching store::Writer's single-thread discipline.
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>

#include "fault/fault.h"
#include "obs/metrics.h"

namespace cg::store {

/// Outcome of one sink/source operation. `fault` is kNone on success;
/// `detail` names the operation and offset for diagnostics. [[nodiscard]]
/// on the type makes every by-value return — the ByteSink/ByteSource
/// virtuals included — a compiler error to drop silently; cglint rule W2
/// backs the same contract at call sites the compiler cannot see.
struct [[nodiscard]] IoStatus {
  fault::IoFault fault = fault::IoFault::kNone;
  std::string detail;

  bool ok() const { return fault == fault::IoFault::kNone; }
  std::string to_string() const {
    std::string out(fault::io_fault_name(fault));
    if (!detail.empty()) {
      out += ": ";
      out += detail;
    }
    return out;
  }
};

/// Append-oriented byte sink with explicit durability and repair hooks.
/// truncate() and read_back() exist for the writer's self-healing: undoing
/// a partially-applied block append and scrub-verifying written bytes.
class ByteSink {
 public:
  virtual ~ByteSink() = default;

  virtual IoStatus write(std::string_view bytes) = 0;
  virtual IoStatus flush() = 0;
  /// Durability barrier: bytes accepted before a successful sync() survive
  /// a crash. Default: flush (in-memory sinks are trivially durable).
  virtual IoStatus sync() { return flush(); }
  /// Discards everything past `size` bytes. Never injected-faulted: it is
  /// the repair path, not the data path.
  virtual IoStatus truncate(std::uint64_t size) = 0;

  /// Scrub support: re-read `length` bytes at `offset` from the medium.
  virtual bool supports_read_back() const { return false; }
  virtual IoStatus read_back(std::uint64_t offset, std::size_t length,
                             std::string* out);
};

/// Whole-archive byte source for the reader side.
class ByteSource {
 public:
  virtual ~ByteSource() = default;
  virtual IoStatus read_all(std::string* out) = 0;
  /// Name for error details (a path, "<buffer>", ...).
  virtual std::string name() const = 0;
};

/// File-backed sink. Checks stream state after every operation and maps
/// failures to kStreamError; truncate goes through the filesystem (close,
/// resize, reopen in append mode).
class FileSink final : public ByteSink {
 public:
  /// Opens `path` (truncating, or appending when `append`). Null +
  /// status{kStreamError} when the file cannot be opened.
  static std::unique_ptr<FileSink> open(const std::string& path, bool append,
                                        IoStatus* status = nullptr);

  IoStatus write(std::string_view bytes) override;
  IoStatus flush() override;
  IoStatus truncate(std::uint64_t size) override;
  bool supports_read_back() const override { return true; }
  IoStatus read_back(std::uint64_t offset, std::size_t length,
                     std::string* out) override;

 private:
  explicit FileSink(std::string path) : path_(std::move(path)) {}

  std::string path_;
  // cglint: allow(W1) — every operation on out_ checks stream state in
  // byte_sink.cpp and maps failures into the IoFault taxonomy.
  std::ofstream out_;
};

/// In-memory sink (tests, chaos harness reference runs). Fully supports
/// truncate/read_back; sync is a no-op.
class BufferSink final : public ByteSink {
 public:
  BufferSink() = default;

  IoStatus write(std::string_view bytes) override {
    buffer_.append(bytes);
    return {};
  }
  IoStatus flush() override { return {}; }
  IoStatus truncate(std::uint64_t size) override {
    if (size < buffer_.size()) buffer_.resize(static_cast<std::size_t>(size));
    return {};
  }
  bool supports_read_back() const override { return true; }
  IoStatus read_back(std::uint64_t offset, std::size_t length,
                     std::string* out) override;

  const std::string& bytes() const { return buffer_; }

 private:
  std::string buffer_;
};

/// Reads a whole file (reader side).
class FileSource final : public ByteSource {
 public:
  explicit FileSource(std::string path) : path_(std::move(path)) {}
  IoStatus read_all(std::string* out) override;
  std::string name() const override { return path_; }

 private:
  std::string path_;
};

/// In-memory source.
class BufferSource final : public ByteSource {
 public:
  explicit BufferSource(std::string bytes) : bytes_(std::move(bytes)) {}
  IoStatus read_all(std::string* out) override {
    *out = bytes_;
    return {};
  }
  std::string name() const override { return "<buffer>"; }

 private:
  std::string bytes_;
};

/// Deterministic fault-injecting sink: consults a fault::IoFaultPlan on
/// every write()/sync() and realizes the drawn class against the inner
/// sink. Injection semantics:
///
///   kNoSpace     write consumes nothing; the error is visible.
///   kShortWrite  a seeded prefix reaches the inner sink; error visible.
///   kBitFlip     the full buffer reaches the inner sink with one seeded
///                bit flipped; the write reports SUCCESS — only a
///                read-back scrub can catch it (the writer's scrub_writes).
///   kFsyncLost   sync() drops a seeded suffix of the bytes accepted since
///                the last successful sync (the fsyncgate failure mode) and
///                reports the error once.
///
/// Write-class draws on sync ops (and vice versa) are ignored, so the
/// injected-per-class counters (`io.injected.*` in `injected_metrics`, and
/// injected()) account exactly for the faults that were actually realized.
class FaultingSink final : public ByteSink {
 public:
  FaultingSink(std::unique_ptr<ByteSink> inner, fault::IoFaultPlan plan,
               obs::MetricsRegistry* injected_metrics = nullptr,
               std::uint64_t initial_size = 0, std::uint64_t first_op = 0)
      : inner_(std::move(inner)),
        plan_(plan),
        injected_metrics_(injected_metrics),
        op_(first_op),
        size_(initial_size),
        synced_(initial_size) {}

  IoStatus write(std::string_view bytes) override;
  IoStatus flush() override { return inner_->flush(); }
  IoStatus sync() override;
  IoStatus truncate(std::uint64_t size) override;
  bool supports_read_back() const override {
    return inner_->supports_read_back();
  }
  IoStatus read_back(std::uint64_t offset, std::size_t length,
                     std::string* out) override {
    return inner_->read_back(offset, length, out);
  }

  std::uint64_t ops() const { return op_; }
  std::int64_t injected(fault::IoFault cls) const {
    return injected_[static_cast<std::size_t>(cls)];
  }

 private:
  void count(fault::IoFault cls);

  std::unique_ptr<ByteSink> inner_;
  fault::IoFaultPlan plan_;
  obs::MetricsRegistry* injected_metrics_;
  std::uint64_t op_;
  std::uint64_t size_;    // logical bytes accepted by the inner sink
  std::uint64_t synced_;  // bytes durable as of the last successful sync
  std::array<std::int64_t, fault::kIoFaultCount> injected_{};
};

}  // namespace cg::store

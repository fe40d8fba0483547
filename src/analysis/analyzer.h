// Analysis framework (paper §4.3): cross-domain access detection, encoded
// identifier matching, exfiltration confirmation, manipulation
// classification, and dataset-level aggregation.
//
// The analyzer is a thin stateful wrapper over the fold/merge algebra in
// analysis/fold.h: ingest() folds one visit into a SiteSummary and merges
// it into the running state, so the full 20k-site crawl fits in memory and
// the exact same code path serves batch analysis (analyze_archive) and the
// online query tier (src/serve/).
#pragma once

#include "analysis/fold.h"

namespace cg::analysis {

class Analyzer {
 public:
  explicit Analyzer(const entities::EntityMap& entities,
                    AnalyzerOptions options = {})
      : entities_(entities), options_(options) {}

  /// Processes one visit's logs into the aggregates: fold_visit + merge.
  /// Incomplete visits only contribute crawl counters and timings (the
  /// paper drops them too).
  void ingest(const instrument::VisitLog& log) {
    state_.merge(fold_visit(entities_, options_, log));
  }

  /// Folds `other` into this analyzer. Precondition: `other` ingested a
  /// *later*, disjoint site-index shard of the same corpus, with the same
  /// entity map and options (see SiteSummary::merge).
  void merge(Analyzer&& other) { state_.merge(std::move(other.state_)); }

  /// Adopts a precomputed summary (the serving tier's load path): the
  /// summary must cover a later, disjoint site-rank range, same contract
  /// as merge().
  void apply(SiteSummary&& summary) { state_.merge(std::move(summary)); }

  /// The complete aggregate state. Every table and figure is a view of it
  /// (src/report/).
  const SiteSummary& summary() const { return state_; }

  const Totals& totals() const { return state_.totals; }

 private:
  const entities::EntityMap& entities_;
  AnalyzerOptions options_;
  SiteSummary state_;
};

}  // namespace cg::analysis

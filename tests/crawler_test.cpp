// Tests for the crawl driver: determinism, interaction model, completeness
// filtering, clock staggering.
#include <gtest/gtest.h>

#include "crawler/crawler.h"

namespace cg::crawler {
namespace {

corpus::CorpusParams small_params(int n) {
  corpus::CorpusParams params;
  params.site_count = n;
  return params;
}

TEST(CrawlerTest, VisitIsDeterministic) {
  corpus::Corpus corpus(small_params(20));
  Crawler crawler(corpus);
  CrawlOptions options;
  const auto a = crawler.visit(3, options);
  const auto b = crawler.visit(3, options);
  EXPECT_EQ(a.script_sets.size(), b.script_sets.size());
  EXPECT_EQ(a.requests.size(), b.requests.size());
  EXPECT_EQ(a.landing_timings.load_event, b.landing_timings.load_event);
  for (std::size_t i = 0; i < a.script_sets.size(); ++i) {
    EXPECT_EQ(a.script_sets[i].value, b.script_sets[i].value);
  }
}

TEST(CrawlerTest, VisitOrderDoesNotMatter) {
  corpus::Corpus corpus(small_params(20));
  Crawler crawler(corpus);
  CrawlOptions options;
  const auto early = crawler.visit(7, options);
  crawler.visit(1, options);
  crawler.visit(2, options);
  const auto late = crawler.visit(7, options);
  EXPECT_EQ(early.script_sets.size(), late.script_sets.size());
}

TEST(CrawlerTest, ClicksVisitMultiplePages) {
  corpus::Corpus corpus(small_params(5));
  Crawler crawler(corpus);
  CrawlOptions options;
  const auto log = crawler.visit(0, options);
  // Landing + up to three clicks (§4.2); every blueprint has links.
  EXPECT_EQ(log.pages_visited, 1 + corpus.params().max_clicks);
}

TEST(CrawlerTest, LogLossMatchesConfiguredRate) {
  corpus::Corpus corpus(small_params(400));
  Crawler crawler(corpus);
  CrawlOptions options;
  int complete = 0;
  crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
    complete += log.complete() ? 1 : 0;
  });
  const double rate = static_cast<double>(complete) / corpus.size();
  // Paper retains 14,917/20,000 = 74.6%.
  EXPECT_NEAR(rate, 1.0 - corpus.params().log_loss_rate, 0.06);
}

TEST(CrawlerTest, LogLossCanBeDisabled) {
  corpus::Corpus corpus(small_params(30));
  Crawler crawler(corpus);
  CrawlOptions options;
  options.fault_plan.reset();
  crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
    EXPECT_TRUE(log.complete());
  });
}

TEST(CrawlerTest, VisitClocksAreStaggered) {
  corpus::Corpus corpus(small_params(3));
  Crawler crawler(corpus);
  CrawlOptions options;
  const auto a = crawler.visit(0, options);
  const auto b = crawler.visit(1, options);
  ASSERT_FALSE(a.script_sets.empty());
  ASSERT_FALSE(b.script_sets.empty());
  // Timestamps embedded in the logs come from different simulated days.
  EXPECT_NE(a.script_sets[0].time / 60000, b.script_sets[0].time / 60000);
}

TEST(CrawlerTest, ExtraExtensionInstalledBeforeRecorder) {
  // An extension that blocks every document.cookie write must leave the
  // recorder blind to those script cookie changes (they never happen).
  struct Blocker final : browser::Extension {
    std::string name() const override { return "blocker"; }
    bool allow_cookie_write(browser::Page&, const script::ExecContext&,
                            const webplat::StackTrace&,
                            cookies::CookieSource api,
                            std::string_view) override {
      return api != cookies::CookieSource::kDocumentCookie;
    }
  } blocker;
  corpus::Corpus corpus(small_params(3));
  Crawler crawler(corpus);
  CrawlOptions options;
  options.extension_factory = [&](int) {
    return std::vector<browser::Extension*>{&blocker};
  };
  const auto log = crawler.visit(0, options);
  for (const auto& record : log.script_sets) {
    EXPECT_EQ(record.api, cookies::CookieSource::kCookieStore);
  }
}

// ---- fault injection, retries, checkpoint/resume -------------------------

TEST(CrawlResilienceTest, VisitIsAlwaysCleanEvenWithFaultsEnabled) {
  // visit() is the measurement content of one site; crawl-pipeline weather
  // (the fault plan) only applies through crawl().
  corpus::Corpus corpus(small_params(30));
  Crawler crawler(corpus);
  CrawlOptions options;  // the default fault plan is enabled
  for (int i = 0; i < corpus.size(); ++i) {
    const auto log = crawler.visit(i, options);
    EXPECT_EQ(log.failure, fault::FailureClass::kNone);
    EXPECT_TRUE(log.complete());
    EXPECT_EQ(log.attempts, 1);
  }
}

TEST(CrawlResilienceTest, NegativeCountCrawlsNothing) {
  corpus::Corpus corpus(small_params(5));
  Crawler crawler(corpus);
  CrawlOptions options;
  int sunk = 0, progressed = 0;
  options.on_progress = [&](int, int) { ++progressed; };
  const auto health = crawler.crawl(-7, options, [&](instrument::VisitLog&&) {
    ++sunk;
  });
  EXPECT_EQ(sunk, 0);
  EXPECT_EQ(progressed, 0);
  EXPECT_EQ(health.sites_attempted, 0);
  EXPECT_EQ(health.exclusion_rate(), 0.0);
}

TEST(CrawlResilienceTest, SinkAndProgressArriveInIndexOrder) {
  corpus::Corpus corpus(small_params(12));
  Crawler crawler(corpus);
  CrawlOptions options;
  std::vector<int> ranks;
  std::vector<int> progress;
  options.on_progress = [&](int done, int total) {
    EXPECT_EQ(total, 12);
    progress.push_back(done);
  };
  crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
    ranks.push_back(log.rank);
  });
  ASSERT_EQ(ranks.size(), 12u);
  ASSERT_EQ(progress.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(ranks[i], i + 1);  // ranks are 1-based, indices 0-based
    EXPECT_EQ(progress[i], i + 1);
  }
}

TEST(CrawlResilienceTest, ExclusionEmergesNearThePaperRate) {
  // Acceptance: the default plan over 2000 sites completes without
  // throwing, excludes 20-30%, reports a per-class breakdown, and retries
  // recover >= 10% of initially-failed sites.
  corpus::Corpus corpus(small_params(2000));
  Crawler crawler(corpus);
  CrawlOptions options;
  int excluded_logs = 0;
  const auto health =
      crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
        if (!log.complete()) ++excluded_logs;
      });

  EXPECT_EQ(health.sites_attempted, 2000);
  EXPECT_EQ(health.sites_excluded, excluded_logs);
  EXPECT_EQ(health.sites_retained + health.sites_excluded, 2000);
  EXPECT_GE(health.exclusion_rate(), 0.20);
  EXPECT_LE(health.exclusion_rate(), 0.30);
  EXPECT_EQ(static_cast<int>(health.retained_ranks.size()),
            health.sites_retained);

  // Every fatal class shows up in the exclusion breakdown.
  for (const auto cls :
       {fault::FailureClass::kDnsFailure, fault::FailureClass::kConnectTimeout,
        fault::FailureClass::kDeadlineExceeded,
        fault::FailureClass::kTruncatedHeaders,
        fault::FailureClass::kExtensionCrash}) {
    EXPECT_GT(health.exclusions[static_cast<int>(cls)], 0)
        << fault::failure_class_name(cls);
  }
  // Degraded (script-fetch-failure) sites are retained, not excluded.
  EXPECT_GT(health.sites_degraded, 0);
  EXPECT_EQ(health.exclusions[static_cast<int>(
                fault::FailureClass::kSubresourceFailure)],
            0);

  // Retries do real work: recoveries and the >= 10% acceptance bar.
  EXPECT_GT(health.total_retries, 0);
  EXPECT_GE(health.recovery_rate(), 0.10);
}

TEST(CrawlResilienceTest, CrawlHealthIsByteIdenticalAcrossRuns) {
  corpus::Corpus corpus(small_params(300));
  Crawler crawler(corpus);
  CrawlOptions options;
  const auto a = crawler.crawl(corpus.size(), options,
                               [](instrument::VisitLog&&) {});
  const auto b = crawler.crawl(corpus.size(), options,
                               [](instrument::VisitLog&&) {});
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  EXPECT_EQ(a.retained_ranks, b.retained_ranks);
}

TEST(CrawlResilienceTest, RetriedSitesReportTheirAttemptCount) {
  corpus::Corpus corpus(small_params(300));
  Crawler crawler(corpus);
  CrawlOptions options;
  bool saw_recovered = false;
  crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
    if (log.complete() && log.attempts > 1) saw_recovered = true;
    EXPECT_LE(log.attempts, options.max_retries + 1);
  });
  EXPECT_TRUE(saw_recovered);
}

TEST(CrawlResilienceTest, CheckpointRoundTripsThroughJson) {
  CrawlCheckpoint checkpoint;
  checkpoint.next_index = 50;
  checkpoint.target_count = 120;
  checkpoint.corpus_seed = 0xC00C1EULL;
  checkpoint.fault_seed = 0xFA177ULL;
  checkpoint.health.sites_attempted = 50;
  checkpoint.health.sites_retained = 38;
  checkpoint.health.sites_excluded = 12;
  checkpoint.health.exclusions[static_cast<int>(
      fault::FailureClass::kDnsFailure)] = 5;
  checkpoint.health.retained_ranks = {1, 2, 4, 7};

  const auto parsed =
      CrawlCheckpoint::from_json_string(checkpoint.to_json_string());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->next_index, 50);
  EXPECT_EQ(parsed->target_count, 120);
  EXPECT_EQ(parsed->corpus_seed, 0xC00C1EULL);
  EXPECT_EQ(parsed->fault_seed, 0xFA177ULL);
  EXPECT_EQ(parsed->health.to_json().dump(),
            checkpoint.health.to_json().dump());
  // A checkpoint from a non-packing crawl carries no archive segment.
  EXPECT_EQ(parsed->archive_sites, -1);
  EXPECT_EQ(parsed->archive_bytes, 0);

  // A packing crawl's checkpoint references its archive segment.
  checkpoint.archive_sites = 50;
  checkpoint.archive_bytes = 123456;
  const auto packed =
      CrawlCheckpoint::from_json_string(checkpoint.to_json_string());
  ASSERT_TRUE(packed.has_value());
  EXPECT_EQ(packed->archive_sites, 50);
  EXPECT_EQ(packed->archive_bytes, 123456);

  EXPECT_FALSE(CrawlCheckpoint::from_json_string("not json").has_value());
  EXPECT_FALSE(CrawlCheckpoint::from_json_string("{}").has_value());
  EXPECT_FALSE(CrawlCheckpoint::from_json_string(
                   R"({"next_index": 9, "target_count": 4, "health": {}})")
                   .has_value());
}

TEST(CrawlResilienceTest, ResumeFromCheckpointMatchesUninterruptedRun) {
  corpus::Corpus corpus(small_params(120));
  Crawler crawler(corpus);

  CrawlOptions options;
  options.checkpoint_interval = 25;
  std::vector<std::string> serialized;
  options.on_checkpoint = [&](const CrawlCheckpoint& checkpoint) {
    serialized.push_back(checkpoint.to_json_string());
  };
  std::vector<int> full_ranks;
  const auto full =
      crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
        full_ranks.push_back(log.rank);
      });
  ASSERT_EQ(serialized.size(), 4u);  // checkpoints at 25, 50, 75, 100

  // Kill the crawl at site 50 and resume from the persisted checkpoint.
  const auto checkpoint = CrawlCheckpoint::from_json_string(serialized[1]);
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->next_index, 50);
  EXPECT_EQ(checkpoint->corpus_seed, corpus.params().seed);

  std::vector<int> resumed_ranks;
  const auto resumed =
      crawler.resume(*checkpoint, options, [&](instrument::VisitLog&& log) {
        resumed_ranks.push_back(log.rank);
      });

  EXPECT_EQ(resumed.to_json().dump(), full.to_json().dump());
  EXPECT_EQ(resumed.retained_ranks, full.retained_ranks);
  // The resumed sink saw exactly the uninterrupted run's tail.
  ASSERT_EQ(resumed_ranks.size(), full_ranks.size() - 50);
  for (std::size_t i = 0; i < resumed_ranks.size(); ++i) {
    EXPECT_EQ(resumed_ranks[i], full_ranks[i + 50]);
  }
}

TEST(CrawlResilienceTest, ExplicitFaultPlanReplacesTheDefault) {
  corpus::Corpus corpus(small_params(60));
  Crawler crawler(corpus);

  CrawlOptions options;
  fault::FaultPlanParams params;
  params.site_fault_rate = 1.0;   // every site faults...
  params.permanent_share = 1.0;   // ...permanently
  params.subresource_weight = 0;  // only fatal classes
  options.fault_plan = params;

  const auto health = crawler.crawl(corpus.size(), options,
                                    [](instrument::VisitLog&&) {});
  EXPECT_EQ(health.sites_excluded, 60);
  EXPECT_EQ(health.sites_retained, 0);
  // Retries were spent on every site even though none could recover.
  EXPECT_EQ(health.total_attempts, 60 * (options.max_retries + 1));
}

TEST(CrawlResilienceTest, ZeroRetriesStillTerminates) {
  corpus::Corpus corpus(small_params(80));
  Crawler crawler(corpus);
  CrawlOptions options;
  options.max_retries = 0;
  const auto health = crawler.crawl(corpus.size(), options,
                                    [](instrument::VisitLog&&) {});
  EXPECT_EQ(health.total_attempts, 80);
  EXPECT_EQ(health.total_retries, 0);
  EXPECT_EQ(health.sites_recovered, 0);
}

}  // namespace
}  // namespace cg::crawler

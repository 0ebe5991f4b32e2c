// Tests for the MPC simulation framework: config derivation, ledger
// accounting, Level-0 cluster semantics (including a real bucketed
// distributed sort that stays within the per-round traffic caps — the
// grounding for the Level-1 analytic costs), primitives, and the Lemma 4.1
// bundle-fetch.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

#include "util/assert.hpp"
#include "graph/generators.hpp"
#include "mpc/bundle_fetch.hpp"
#include "mpc/cluster.hpp"
#include "mpc/config.hpp"
#include "mpc/ledger.hpp"
#include "mpc/primitives.hpp"
#include "util/rng.hpp"

namespace arbor::mpc {
namespace {

TEST(ClusterConfig, DerivesSublinearMemory) {
  const auto cfg = ClusterConfig::for_problem(1 << 20, 1 << 22, 0.5);
  EXPECT_GE(cfg.words_per_machine, 1000u);  // ~ 2^10
  EXPECT_LE(cfg.words_per_machine, 1100u);
  EXPECT_GE(cfg.global_words(), (1u << 22));
}

TEST(ClusterConfig, MinWordsFloorApplies) {
  const auto cfg = ClusterConfig::for_problem(16, 32, 0.3);
  EXPECT_GE(cfg.words_per_machine, 256u);
}

TEST(ClusterConfig, RejectsBadDelta) {
  EXPECT_THROW(ClusterConfig::for_problem(100, 100, 0.0),
               arbor::InvariantError);
  EXPECT_THROW(ClusterConfig::for_problem(100, 100, 1.5),
               arbor::InvariantError);
}

TEST(RoundLedger, ChargesAndLabels) {
  RoundLedger ledger(ClusterConfig{4, 100});
  ledger.charge(3, "sort");
  ledger.charge(2, "sort");
  ledger.charge(1, "shuffle");
  EXPECT_EQ(ledger.total_rounds(), 6u);
  EXPECT_EQ(ledger.rounds_by_label().at("sort"), 5u);
  EXPECT_EQ(ledger.rounds_by_label().at("shuffle"), 1u);
}

TEST(RoundLedger, RecordsViolationsWhenNotStrict) {
  RoundLedger ledger(ClusterConfig{4, 100});
  ledger.note_local_words(150);
  EXPECT_EQ(ledger.local_violations(), 1u);
  EXPECT_EQ(ledger.peak_local_words(), 150u);
}

TEST(RoundLedger, StrictModeThrows) {
  RoundLedger ledger(ClusterConfig{4, 100}, /*strict=*/true);
  EXPECT_THROW(ledger.note_local_words(150), arbor::InvariantError);
}

TEST(RoundLedger, ParallelAbsorbTakesMaxRoundsSumGlobal) {
  RoundLedger a(ClusterConfig{4, 100});
  a.charge(5, "x");
  a.note_global_words(50);
  RoundLedger b(ClusterConfig{4, 100});
  b.charge(3, "x");
  b.note_global_words(70);
  a.absorb_parallel(b);
  EXPECT_EQ(a.total_rounds(), 5u);
  EXPECT_EQ(a.peak_global_words(), 120u);
}

TEST(RoundLedger, SequentialAbsorbSumsRounds) {
  RoundLedger a(ClusterConfig{4, 100});
  a.charge(5, "x");
  RoundLedger b(ClusterConfig{4, 100});
  b.charge(3, "y");
  a.absorb_sequential(b);
  EXPECT_EQ(a.total_rounds(), 8u);
}

TEST(Cluster, DeliversMessagesBetweenMachines) {
  RoundLedger ledger(ClusterConfig{3, 64});
  Cluster cluster(ClusterConfig{3, 64}, &ledger);
  cluster.preload(0, {42});
  cluster.run_round([](std::size_t m, const auto& inbox, Sender& send) {
    // Machine 0 forwards its preloaded word to machine 2.
    if (m == 0 && !inbox.empty()) send.send(2, {inbox[0][0] + 1});
  });
  ASSERT_EQ(cluster.inbox(2).size(), 1u);
  EXPECT_EQ(cluster.inbox(2)[0][0], 43u);
  EXPECT_EQ(cluster.rounds_executed(), 1u);
  EXPECT_EQ(ledger.total_rounds(), 1u);
}

TEST(Cluster, SendCapacityEnforced) {
  Cluster cluster(ClusterConfig{2, 4}, nullptr);
  EXPECT_THROW(
      cluster.run_round([](std::size_t m, const auto&, Sender& send) {
        if (m == 0) send.send(1, {1, 2, 3, 4, 5});  // 5 > 4 words
      }),
      arbor::InvariantError);
}

TEST(Cluster, ReceiveCapacityEnforced) {
  Cluster cluster(ClusterConfig{3, 4}, nullptr);
  EXPECT_THROW(
      cluster.run_round([](std::size_t m, const auto&, Sender& send) {
        // Both senders fit individually, but machine 2 receives 6 words.
        if (m == 0) send.send(2, {1, 2, 3});
        if (m == 1) send.send(2, {4, 5, 6});
      }),
      arbor::InvariantError);
}

// A real distributed bucket sort on the Level-0 cluster: values are routed
// to machines by range, sorted locally, and the concatenation must be
// globally sorted — all without tripping the traffic caps. This grounds
// the O(1)-round sort cost the Level-1 primitives charge.
TEST(Cluster, DistributedBucketSortWorksWithinCaps) {
  const std::size_t machines = 8;
  const std::size_t capacity = 64;
  Cluster cluster(ClusterConfig{machines, capacity}, nullptr);

  // Each machine starts with 16 random words in [0, 256).
  util::SplitRng rng(99);
  std::vector<std::vector<Word>> initial(machines);
  std::vector<Word> all;
  for (std::size_t m = 0; m < machines; ++m) {
    for (int i = 0; i < 16; ++i) {
      initial[m].push_back(rng.next_below(256));
      all.push_back(initial[m].back());
    }
    cluster.preload(m, initial[m]);
  }

  // Round 1: route each word to bucket = value / 32.
  cluster.run_round([&](std::size_t, const auto& inbox, Sender& send) {
    std::vector<std::vector<Word>> outgoing(machines);
    for (const auto& msg : inbox)
      for (Word w : msg) outgoing[w / 32].push_back(w);
    for (std::size_t dst = 0; dst < machines; ++dst)
      if (!outgoing[dst].empty()) send.send(dst, std::move(outgoing[dst]));
  });

  // Local sort + verification: concatenation across machines is sorted.
  std::vector<Word> result;
  for (std::size_t m = 0; m < machines; ++m) {
    std::vector<Word> local;
    for (const auto& msg : cluster.inbox(m))
      for (Word w : msg) local.push_back(w);
    std::sort(local.begin(), local.end());
    for (Word w : local) {
      EXPECT_GE(w, m * 32);
      EXPECT_LT(w, (m + 1) * 32);
    }
    result.insert(result.end(), local.begin(), local.end());
  }
  EXPECT_TRUE(std::is_sorted(result.begin(), result.end()));
  std::sort(all.begin(), all.end());
  EXPECT_EQ(result, all);
}

TEST(MpcContext, SortRoundsMatchLogFormula) {
  RoundLedger ledger(ClusterConfig{16, 1024});
  MpcContext ctx(ClusterConfig{16, 1024}, &ledger);
  EXPECT_EQ(ctx.sort_rounds(1), 1u);
  EXPECT_EQ(ctx.sort_rounds(1024), 1u);
  EXPECT_EQ(ctx.sort_rounds(1 << 20), 2u);   // log_1024(2^20) = 2
  EXPECT_EQ(ctx.sort_rounds(1u << 31), 4u);  // ⌈31/10⌉ = 4
}

// Regression: sort_rounds used to compute ⌈log_S N⌉ through a floating-
// point log ratio, which an ulp of error can push over the ceiling at
// exact powers of S. The integer powering must be exact at N = S^k and at
// N = S^k ± 1, for any S.
TEST(MpcContext, SortRoundsExactAtPowersOfS) {
  MpcContext ctx(ClusterConfig{16, 1024}, nullptr);
  const std::size_t s = 1024;
  EXPECT_EQ(ctx.sort_rounds(s), 1u);
  EXPECT_EQ(ctx.sort_rounds(s + 1), 2u);
  EXPECT_EQ(ctx.sort_rounds(s * s - 1), 2u);
  EXPECT_EQ(ctx.sort_rounds(s * s), 2u);          // N = S² is exactly 2
  EXPECT_EQ(ctx.sort_rounds(s * s + 1), 3u);
  EXPECT_EQ(ctx.sort_rounds(s * s * s), 3u);      // N = S³ is exactly 3
  EXPECT_EQ(ctx.sort_rounds(s * s * s + 1), 4u);

  // Non-power-of-two S hits the float drift hardest.
  MpcContext odd(ClusterConfig{16, 1000}, nullptr);
  EXPECT_EQ(odd.sort_rounds(1000u * 1000u), 2u);
  EXPECT_EQ(odd.sort_rounds(1000u * 1000u * 1000u), 3u);

  // Degenerate one-word machines clamp the base to 2 instead of dividing
  // by log(1) = 0; huge N terminates via the saturating power.
  MpcContext tiny(ClusterConfig{2, 1}, nullptr);
  EXPECT_EQ(tiny.sort_rounds(8), 3u);
  EXPECT_LE(ctx.sort_rounds(std::numeric_limits<std::size_t>::max()), 7u);
}

// Regression: broadcast_rounds used to take ⌈log(copies) / log(√S)⌉ in
// floating point, which overcharged by one round at exact powers of the
// fan-out (S = 25, copies = 125 cost 4 rounds, not 3). Fan-out √S must
// reach copies = √S^k in exactly k rounds, and k + 1 is needed one past it.
TEST(MpcContext, BroadcastRoundsExactAtPowers) {
  for (const std::size_t s : {std::size_t{4}, std::size_t{9}, std::size_t{25},
                              std::size_t{1024}}) {
    MpcContext ctx(ClusterConfig{16, s}, nullptr);
    const std::size_t fanout = s == 4 ? 2 : s == 9 ? 3 : s == 25 ? 5 : 32;
    std::size_t power = fanout;  // fanout^k
    for (std::size_t k = 1; power <= (std::size_t{1} << 62) / fanout;
         ++k, power *= fanout) {
      SCOPED_TRACE("S=" + std::to_string(s) + " k=" + std::to_string(k));
      EXPECT_EQ(ctx.broadcast_rounds(power - 1), k);
      EXPECT_EQ(ctx.broadcast_rounds(power), k);
      EXPECT_EQ(ctx.broadcast_rounds(power + 1), k + 1);
    }
  }
  // Machines below four words still fan out to two; the largest copy
  // count needs 64 doublings and terminates via the saturating power.
  MpcContext tiny(ClusterConfig{2, 1}, nullptr);
  EXPECT_EQ(tiny.broadcast_rounds(0), 1u);
  EXPECT_EQ(tiny.broadcast_rounds(8), 3u);
  EXPECT_EQ(tiny.broadcast_rounds(9), 4u);
  EXPECT_EQ(tiny.broadcast_rounds(std::numeric_limits<std::size_t>::max()),
            64u);
}

TEST(MpcContext, SortItemsSortsAndCharges) {
  const ClusterConfig cfg{16, 256};
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  std::vector<int> items{5, 3, -9, 1};
  ctx.sort_items_by_key(
      items, [](int v) { return MpcContext::word_key(v); }, 1, "sort.test");
  EXPECT_TRUE(std::is_sorted(items.begin(), items.end()));
  EXPECT_GE(ledger.rounds_by_label().at("sort.test"), 1u);
}

TEST(MpcContext, AggregateByKeyCombines) {
  const ClusterConfig cfg{16, 256};
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  std::vector<std::pair<int, int>> items{{2, 5}, {1, 3}, {2, 7}, {1, 1}};
  const auto out = ctx.aggregate_by_key<int, int>(
      items, [](int a, int b) { return a + b; }, 2, "agg");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (std::pair<int, int>{1, 4}));
  EXPECT_EQ(out[1], (std::pair<int, int>{2, 12}));
}

TEST(MpcContext, CountByKey) {
  const ClusterConfig cfg{16, 256};
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  const auto out =
      ctx.count_by_key<int>({3, 1, 3, 3, 1}, "count");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (std::pair<int, std::size_t>{1, 2}));
  EXPECT_EQ(out[1], (std::pair<int, std::size_t>{3, 3}));
}

TEST(BundleFetch, DeliversRequestedBundles) {
  const ClusterConfig cfg{8, 1024};
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  const auto bundles = BundleArena::from({{10}, {20, 21}, {30}});
  std::vector<std::vector<graph::VertexId>> requests{{1, 2}, {}, {0}};
  const auto result = fetch_bundles(ctx, bundles, requests, "fetch");
  ASSERT_EQ(result.first.size(), 4u);
  ASSERT_EQ(result.first[1] - result.first[0], 2u);
  const auto as_vector = [](std::span<const Word> w) {
    return std::vector<Word>(w.begin(), w.end());
  };
  EXPECT_EQ(as_vector(result.delivered(0, 0)), (std::vector<Word>{20, 21}));
  EXPECT_EQ(as_vector(result.delivered(0, 1)), (std::vector<Word>{30}));
  EXPECT_EQ(as_vector(result.delivered(2, 0)), (std::vector<Word>{10}));
  EXPECT_EQ(result.first[2], result.first[1]);  // requester 1 asked nothing
  EXPECT_THROW(result.delivered(1, 0), arbor::InvariantError);
}

TEST(BundleFetch, StatsReflectVolumes) {
  const ClusterConfig cfg{8, 1024};
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  const auto bundles = BundleArena::from({{1, 2, 3}, {4}});
  std::vector<std::vector<graph::VertexId>> requests{{0, 1}, {0}};
  const auto result = fetch_bundles(ctx, bundles, requests, "fetch");
  EXPECT_EQ(result.stats.max_request_list, 2u);
  EXPECT_EQ(result.stats.max_bundle_words, 3u);
  EXPECT_EQ(result.stats.max_copies, 2u);  // bundle 0 requested twice
  EXPECT_EQ(result.stats.total_delivered_words, 3u + 3u + 1u);
  EXPECT_EQ(result.stats.max_requester_words, 4u);  // requester 0: 3+1
  EXPECT_GE(ledger.total_rounds(), result.stats.rounds_charged);
}

TEST(BundleFetch, WordCountsAloneStandInForUnrequestedBundles) {
  // Bundle 2 is the largest but nobody requests it: its word count must
  // still drive max_bundle_words (and the count-sort sizes), exactly as if
  // its payload had been shipped.
  const std::vector<std::vector<Word>> full{
      {1, 2}, {3}, {4, 5, 6, 7, 8, 9}, {10, 11, 12}};
  const std::vector<std::vector<graph::VertexId>> requests{
      {1, 3}, {0}, {}, {1, 1}};
  const ClusterConfig cfg{8, 16};
  RoundLedger full_ledger(cfg);
  MpcContext full_ctx(cfg, &full_ledger);
  const BundleArena full_arena = BundleArena::from(full);
  const auto shipped = fetch_bundles(full_ctx, full_arena, requests, "fetch");

  BundleArena counts_only(full.size());
  for (std::size_t v : {0u, 1u, 3u}) {
    const std::span<Word> dst = counts_only.add(v, full[v].size());
    std::copy(full[v].begin(), full[v].end(), dst.begin());
  }
  counts_only.set_words(2, full[2].size());
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  const auto got = fetch_bundles(ctx, counts_only, requests, "fetch");

  // Literals: what the fetch charged when every payload was shipped.
  EXPECT_EQ(got.stats.max_bundle_words, 6u);
  EXPECT_EQ(got.stats.total_delivered_words, 1u + 3u + 2u + 1u + 1u);
  EXPECT_EQ(got.stats.rounds_charged, 3u);
  EXPECT_EQ(got.stats.max_bundle_words, shipped.stats.max_bundle_words);
  EXPECT_EQ(got.stats.total_delivered_words,
            shipped.stats.total_delivered_words);
  EXPECT_EQ(got.stats.rounds_charged, shipped.stats.rounds_charged);
  EXPECT_EQ(got.stats.max_requester_words,
            shipped.stats.max_requester_words);
  EXPECT_EQ(got.stats.max_copies, shipped.stats.max_copies);
  for (std::size_t u = 0; u < requests.size(); ++u)
    for (std::size_t slot = 0; slot < requests[u].size(); ++slot)
      EXPECT_TRUE(std::ranges::equal(got.delivered(u, slot),
                                     shipped.delivered(u, slot)));
  EXPECT_EQ(ledger.rounds_by_label(), full_ledger.rounds_by_label());
  EXPECT_EQ(ledger.peak_global_words(), full_ledger.peak_global_words());
  EXPECT_EQ(ledger.peak_local_words(), full_ledger.peak_local_words());

  // A request for a bundle that carries only a count is a caller bug.
  const std::vector<std::vector<graph::VertexId>> asks_for_2{{2}};
  EXPECT_THROW(fetch_bundles(ctx, counts_only, asks_for_2, "fetch"),
               arbor::InvariantError);
}

TEST(BundleFetch, RejectsUnknownVertex) {
  const ClusterConfig cfg{8, 1024};
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  const auto bundles = BundleArena::from({{1}});
  std::vector<std::vector<graph::VertexId>> requests{{5}};
  EXPECT_THROW(fetch_bundles(ctx, bundles, requests, "fetch"),
               arbor::InvariantError);
}

}  // namespace
}  // namespace arbor::mpc

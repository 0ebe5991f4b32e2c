// Tests for the real Level-0 distributed programs (sample sort, broadcast
// trees, convergecast): correctness under the traffic caps, and the
// cross-check that their executed round counts match what the Level-1
// primitives charge analytically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <span>

#include "graph/generators.hpp"
#include "local/mpc_embedding.hpp"
#include "util/assert.hpp"
#include "mpc/broadcast.hpp"
#include "mpc/bundle_fetch.hpp"
#include "mpc/cluster.hpp"
#include "mpc/primitives.hpp"
#include "mpc/sample_sort.hpp"
#include "net/registry.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"

namespace arbor::mpc {
namespace {

std::vector<std::vector<Word>> random_slabs(std::size_t machines,
                                            std::size_t per_machine,
                                            std::uint64_t seed) {
  util::SplitRng rng(seed);
  std::vector<std::vector<Word>> slabs(machines);
  for (auto& slab : slabs)
    for (std::size_t i = 0; i < per_machine; ++i)
      slab.push_back(rng.next_below(1u << 20));
  return slabs;
}

std::vector<Word> flatten_sorted(const std::vector<std::vector<Word>>& s) {
  std::vector<Word> all;
  for (const auto& slab : s) all.insert(all.end(), slab.begin(), slab.end());
  std::sort(all.begin(), all.end());
  return all;
}

TEST(SampleSort, SortsAcrossMachines) {
  const ClusterConfig cfg{8, 512};
  Cluster cluster(cfg, nullptr);
  const auto input = random_slabs(8, 32, 1);
  const RecordSortResult result = sample_sort_records(cluster, input, 1);

  // Concatenation in machine order must be globally sorted and a
  // permutation of the input.
  std::vector<Word> out;
  for (const auto& slab : result.slabs)
    out.insert(out.end(), slab.begin(), slab.end());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(out, flatten_sorted(input));
}

TEST(SampleSort, ConstantRounds) {
  const ClusterConfig cfg{16, 1024};
  const auto input = random_slabs(16, 48, 2);

  // 7 rounds — up, up, pick, down, route, route, and the compute-only
  // bucket sort.
  Cluster cluster(cfg, nullptr);
  const RecordSortResult result = sample_sort_records(cluster, input, 1);
  EXPECT_EQ(result.rounds, 7u);

  // O(1): the Level-1 charge for the same volume charges ⌈log_S N⌉ ≥ 1
  // units; the Level-0 program realizes the constant.
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  EXPECT_GE(result.rounds, ctx.sort_rounds(16 * 48));

  std::vector<Word> out;
  for (const auto& slab : result.slabs)
    out.insert(out.end(), slab.begin(), slab.end());
  EXPECT_EQ(out, flatten_sorted(input));
}

TEST(SampleSort, HandlesEmptyAndSkewedSlabs) {
  const ClusterConfig cfg{4, 512};
  Cluster cluster(cfg, nullptr);
  std::vector<std::vector<Word>> input(4);
  input[2] = {5, 3, 9, 1, 7, 7, 2};  // all data on one machine
  const RecordSortResult result = sample_sort_records(cluster, input, 1);
  std::vector<Word> out;
  for (const auto& slab : result.slabs)
    out.insert(out.end(), slab.begin(), slab.end());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(out.size(), 7u);
}

// Regression: slabs smaller than samples_per_machine used to emit repeated
// sample indices (i·size/samples collides for size < samples), skewing the
// splitter pool toward the low keys of tiny slabs. Samples are now clamped
// to the slab size — every machine contributes each key at most once and
// the sort stays a correct permutation.
TEST(SampleSort, TinySkewedSlabsClampSamples) {
  const ClusterConfig cfg{4, 512};
  Cluster cluster(cfg, nullptr);
  std::vector<std::vector<Word>> input(4);
  input[0] = {1000};            // far smaller than samples_per_machine = 8
  input[1] = {7, 7};            // duplicates in a tiny slab
  input[2] = {900, 5, 900};     // skewed values
  input[3] = {};                // empty slab sends an empty sample
  const RecordSortResult result = sample_sort_records(cluster, input, 1, 1, 8);
  std::vector<Word> out;
  for (const auto& slab : result.slabs)
    out.insert(out.end(), slab.begin(), slab.end());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(out, flatten_sorted(input));
}

// Regression: a single-machine cluster takes the explicit empty-splitter
// path (the tree scatters [0, 0] packets) and still sorts in the standard
// round count.
TEST(SampleSort, SingleMachine) {
  const ClusterConfig cfg{1, 512};
  Cluster cluster(cfg, nullptr);
  const RecordSortResult result =
      sample_sort_records(cluster, {{9, 2, 7, 2, 5}}, 1);
  ASSERT_EQ(result.slabs.size(), 1u);
  EXPECT_EQ(result.slabs[0], (std::vector<Word>{2, 2, 5, 7, 9}));
  EXPECT_EQ(result.rounds, 7u);
}

TEST(SampleSort, SingleMachineEmptyInput) {
  const ClusterConfig cfg{1, 64};
  Cluster cluster(cfg, nullptr);
  const RecordSortResult result = sample_sort_records(cluster, {{}}, 1);
  ASSERT_EQ(result.slabs.size(), 1u);
  EXPECT_TRUE(result.slabs[0].empty());
  EXPECT_EQ(result.rounds, 7u);
}

// The tree topology's awkward machine counts: p ∈ {1, 2, 3} (trees of
// height < 2), non-perfect-square p (a ragged last group), and p where
// the last group has a single member (its relay has itself as the only
// child). Every count must sort every input shape.
TEST(SampleSortTree, AwkwardMachineCounts) {
  for (const std::size_t machines : {1u, 2u, 3u, 5u, 7u, 10u, 12u, 13u}) {
    const ClusterConfig cfg{machines, 4096};
    const auto input = random_slabs(machines, 19, 100 + machines);
    Cluster cluster(cfg, nullptr);
    const RecordSortResult result = sample_sort_records(cluster, input, 1);
    EXPECT_EQ(result.rounds, 7u);
    std::vector<Word> out;
    for (const auto& slab : result.slabs)
      out.insert(out.end(), slab.begin(), slab.end());
    EXPECT_EQ(out, flatten_sorted(input)) << "machines=" << machines;
  }
}

// Empty slabs at interior relay ranks: all data sits on non-relay
// machines, so every relay pools only its children's samples (and the
// ragged last group's relay may pool nothing at all) — relays must
// forward clean packets, never zero-width frames the route rounds choke
// on.
TEST(SampleSortTree, EmptySlabsAtRelayRanks) {
  const std::size_t machines = 10;  // r = 4: relays at 0, 4, 8
  const ClusterConfig cfg{machines, 4096};
  util::SplitRng rng(77);
  std::vector<std::vector<Word>> input(machines);
  for (std::size_t m = 0; m < machines; ++m) {
    if (m % 4 == 0) continue;  // relays hold nothing
    for (int i = 0; i < 23; ++i) input[m].push_back(rng.next_below(1u << 20));
  }
  Cluster cluster(cfg, nullptr);
  const RecordSortResult result = sample_sort_records(cluster, input, 1);
  std::vector<Word> out;
  for (const auto& slab : result.slabs)
    out.insert(out.end(), slab.begin(), slab.end());
  EXPECT_EQ(out, flatten_sorted(input));

  // The mirror image: only relays hold data (every leaf sample is empty).
  std::vector<std::vector<Word>> relays_only(machines);
  for (std::size_t m = 0; m < machines; m += 4)
    for (int i = 0; i < 23; ++i)
      relays_only[m].push_back(rng.next_below(1u << 20));
  Cluster cluster2(cfg, nullptr);
  const RecordSortResult result2 =
      sample_sort_records(cluster2, relays_only, 1);
  std::vector<Word> out2;
  for (const auto& slab : result2.slabs)
    out2.insert(out2.end(), slab.begin(), slab.end());
  EXPECT_EQ(out2, flatten_sorted(relays_only));
}

TEST(SampleSort, DuplicateKeysPreserved) {
  const ClusterConfig cfg{4, 512};
  Cluster cluster(cfg, nullptr);
  std::vector<std::vector<Word>> input(4, std::vector<Word>(8, 42));
  const RecordSortResult result = sample_sort_records(cluster, input, 1);
  std::size_t total = 0;
  for (const auto& slab : result.slabs) {
    for (Word w : slab) EXPECT_EQ(w, 42u);
    total += slab.size();
  }
  EXPECT_EQ(total, 32u);
}

// ------------------------- record sample sort (multi-word, key extractor)

// Flatten record slabs and return records sorted by their key prefix
// (stable), as the reference ordering.
std::vector<std::vector<Word>> reference_record_sort(
    const std::vector<std::vector<Word>>& slabs, std::size_t width,
    std::size_t key_words) {
  std::vector<std::vector<Word>> records;
  for (const auto& slab : slabs)
    for (std::size_t off = 0; off + width <= slab.size(); off += width)
      records.emplace_back(slab.begin() + off, slab.begin() + off + width);
  std::stable_sort(records.begin(), records.end(),
                   [&](const std::vector<Word>& a, const std::vector<Word>& b) {
                     return std::lexicographical_compare(
                         a.begin(), a.begin() + key_words, b.begin(),
                         b.begin() + key_words);
                   });
  return records;
}

TEST(RecordSampleSort, SortsMultiWordRecordsByKeyPrefix) {
  const ClusterConfig cfg{4, 4096};
  Cluster cluster(cfg, nullptr);
  // Records of 3 words: (key_hi, key_lo, payload); key_words = 2.
  util::SplitRng rng(5);
  std::vector<std::vector<Word>> input(4);
  std::size_t payload = 0;
  for (auto& slab : input)
    for (int r = 0; r < 12; ++r) {
      slab.push_back(rng.next_below(4));      // key_hi: many duplicates
      slab.push_back(rng.next_below(1 << 10));
      slab.push_back(payload++);
    }
  const RecordSortResult result =
      sample_sort_records(cluster, input, 3, /*key_words=*/2);
  EXPECT_EQ(result.rounds, 7u);

  std::vector<std::vector<Word>> out;
  for (const auto& slab : result.slabs)
    for (std::size_t off = 0; off + 3 <= slab.size(); off += 3)
      out.emplace_back(slab.begin() + off, slab.begin() + off + 3);
  ASSERT_EQ(out.size(), 48u);
  // Global key order across machine slabs; payloads intact as a set.
  for (std::size_t i = 1; i < out.size(); ++i)
    EXPECT_FALSE(std::lexicographical_compare(out[i].begin(),
                                              out[i].begin() + 2,
                                              out[i - 1].begin(),
                                              out[i - 1].begin() + 2))
        << "record " << i << " out of key order";
  std::vector<Word> payloads;
  for (const auto& rec : out) payloads.push_back(rec[2]);
  std::sort(payloads.begin(), payloads.end());
  for (std::size_t i = 0; i < payloads.size(); ++i) EXPECT_EQ(payloads[i], i);
}

// With the whole record as the key and distinct records, the result is the
// unique total order — identical to the central reference sort.
TEST(RecordSampleSort, FullRecordKeyMatchesReferenceExactly) {
  const ClusterConfig cfg{8, 8192};
  Cluster cluster(cfg, nullptr);
  util::SplitRng rng(9);
  std::vector<std::vector<Word>> input(8);
  std::size_t idx = 0;
  for (auto& slab : input)
    for (int r = 0; r < 20; ++r) {
      slab.push_back(rng.next_below(16));  // heavily duplicated key word
      slab.push_back(idx++);               // distinct tiebreaker
    }
  const RecordSortResult result = sample_sort_records(cluster, input, 2);
  const auto expected = reference_record_sort(input, 2, 2);
  std::vector<std::vector<Word>> out;
  for (const auto& slab : result.slabs)
    for (std::size_t off = 0; off + 2 <= slab.size(); off += 2)
      out.emplace_back(slab.begin() + off, slab.begin() + off + 2);
  EXPECT_EQ(out, expected);
}

TEST(RecordSampleSort, SingleMachineAndTinySlabs) {
  const ClusterConfig cfg{1, 256};
  Cluster cluster(cfg, nullptr);
  const std::vector<std::vector<Word>> input{{5, 1, 2, 2, 5, 3}};
  const RecordSortResult result = sample_sort_records(cluster, input, 2, 1);
  ASSERT_EQ(result.slabs.size(), 1u);
  EXPECT_EQ(result.slabs[0], (std::vector<Word>{2, 2, 5, 1, 5, 3}));
  EXPECT_EQ(result.rounds, 7u);
}

TEST(RecordSampleSort, AllSlabsEmpty) {
  const ClusterConfig cfg{3, 64};
  Cluster cluster(cfg, nullptr);
  const RecordSortResult result =
      sample_sort_records(cluster, std::vector<std::vector<Word>>(3), 4);
  for (const auto& slab : result.slabs) EXPECT_TRUE(slab.empty());
  EXPECT_EQ(result.rounds, 7u);
}

TEST(RecordSampleSort, RejectsRaggedArena) {
  const ClusterConfig cfg{2, 64};
  Cluster cluster(cfg, nullptr);
  EXPECT_THROW(
      sample_sort_records(cluster, {{1, 2, 3}, {}}, /*record_width=*/2),
      arbor::InvariantError);
}

// ------------------------ S-cap grounding of the splitter relay tree
//
// The point of the tree: the per-machine traffic of every splitter round
// is O(√p·s) words (s = samples per machine), never the Θ(p·s) of pooling
// every sample at one machine. Grounded with the ledger's per-label
// traffic peaks at p = 256 and p = 400, under a per-machine budget that
// such a pool could not fit.
TEST(SampleSortTree, SplitterRoundsStayWithinSqrtPBudget) {
  for (const std::size_t machines : {256u, 400u}) {
    const std::size_t samples = 32;
    std::size_t r = 1;  // ⌈√p⌉
    while (r * r < machines) ++r;
    ASSERT_LE(r, samples);  // tree premise: s ≥ ⌈√p⌉
    const ClusterConfig cfg{machines, 4096};
    RoundLedger ledger(cfg);
    Cluster cluster(cfg, &ledger);
    const auto input = random_slabs(machines, 48, machines);
    const RecordSortResult result =
        sample_sort_records(cluster, input, 1, 1, samples);
    std::vector<Word> out;
    for (const auto& slab : result.slabs)
      out.insert(out.end(), slab.begin(), slab.end());
    EXPECT_EQ(out, flatten_sorted(input)) << "p=" << machines;

    // Every splitter round ≤ 4·√p·s words per machine; a single pool of
    // all samples is p·s — asymptotically √p/4 times larger.
    const std::size_t budget = 4 * r * samples;
    EXPECT_LT(budget, machines * samples);
    const auto& peaks = ledger.peak_traffic_by_label();
    for (const char* label :
         {"sample_sort.tree.up", "sample_sort.tree.pick",
          "sample_sort.tree.down"}) {
      ASSERT_TRUE(peaks.count(label)) << label << " p=" << machines;
      EXPECT_LE(peaks.at(label), budget) << label << " p=" << machines;
    }
  }
}

// A receive-cap violation in a splitter round names the tree round and
// the machine, so an overloaded relay is diagnosable from the error text
// alone.
TEST(SampleSortTree, CapViolationNamesTreeRoundAndMachine) {
  // Capacity of 64 words: the relays' pooled samples (up to 16·32·1 = 512
  // words at r = 16) overflow during the fan-in round.
  const ClusterConfig cfg{256, 64};
  Cluster cluster(cfg, nullptr);
  const auto input = random_slabs(256, 48, 9);
  try {
    sample_sort_records(cluster, input, 1, 1, 32);
    FAIL() << "expected a receive-cap violation in the splitter rounds";
  } catch (const arbor::InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sample_sort.tree."), std::string::npos) << what;
    EXPECT_NE(what.find("exceeded receive capacity"), std::string::npos)
        << what;
    EXPECT_NE(what.find("machine "), std::string::npos) << what;
  }
}

// Adversarial inputs at p ≥ 64: all-duplicate keys (every record lands in
// one bucket), heavy source skew (all data on three machines), and a
// duplicate-key record sort whose full-record key must still reproduce
// the unique total order.
TEST(SampleSortTree, AdversarialDuplicatesAndSkewAtWideClusters) {
  const std::size_t machines = 64;
  const ClusterConfig cfg{machines, 8192};

  std::vector<std::vector<Word>> dup(machines, std::vector<Word>(24, 42));
  Cluster c1(cfg, nullptr);
  const RecordSortResult r1 = sample_sort_records(c1, dup, 1);
  std::vector<Word> out1;
  for (const auto& slab : r1.slabs)
    out1.insert(out1.end(), slab.begin(), slab.end());
  EXPECT_EQ(out1, flatten_sorted(dup));

  util::SplitRng rng(88);
  std::vector<std::vector<Word>> skew(machines);
  for (const std::size_t m : {61u, 62u, 63u})
    for (int i = 0; i < 300; ++i)
      skew[m].push_back(rng.next_below(1u << 30));
  Cluster c2(cfg, nullptr);
  const RecordSortResult r2 = sample_sort_records(c2, skew, 1);
  std::vector<Word> out2;
  for (const auto& slab : r2.slabs)
    out2.insert(out2.end(), slab.begin(), slab.end());
  EXPECT_EQ(out2, flatten_sorted(skew));

  std::vector<std::vector<Word>> records(machines);
  std::size_t idx = 0;
  for (auto& slab : records)
    for (int i = 0; i < 12; ++i) {
      slab.push_back(rng.next_below(4));  // 4 distinct keys across 768 recs
      slab.push_back(idx++);
    }
  Cluster c3(cfg, nullptr);
  const RecordSortResult r3 = sample_sort_records(c3, records, 2);
  const auto expected = reference_record_sort(records, 2, 2);
  std::vector<std::vector<Word>> out3;
  for (const auto& slab : r3.slabs)
    for (std::size_t off = 0; off + 2 <= slab.size(); off += 2)
      out3.emplace_back(slab.begin() + off, slab.begin() + off + 2);
  EXPECT_EQ(out3, expected);
}

// The placement round merges a spread member's inbox into one sorted run
// before routing it, so a bucket machine's inbox in the bucket-sort round
// holds at most one message per member of its group: ≤ ⌈√p⌉ = 8 at
// p = 64. Routing every incoming fragment on its own leaves up to one
// message per original sender (p of them). The bucket-sort round sends
// nothing, so the cluster's final inboxes are empty; the test rebuilds the
// same program through its worker factory and counts the messages that
// round reads.
TEST(SampleSortTree, PlacementSendsOneRunPerSpreadMember) {
  const std::size_t machines = 64;
  const ClusterConfig cfg{machines, 4096};
  Cluster cluster(cfg, nullptr);
  const auto input = random_slabs(machines, 200, 64);
  const RecordSortResult result = sample_sort_records(cluster, input, 1);
  std::vector<Word> out;
  for (const auto& slab : result.slabs)
    out.insert(out.end(), slab.begin(), slab.end());
  EXPECT_EQ(out, flatten_sorted(input));

  net::ProgramInputs in;
  in.machines = machines;
  in.capacity = cfg.words_per_machine;
  in.block_end = machines;
  in.scalars = {1, 1, 8};
  in.inputs = input;
  net::WorkerProgram rebuilt =
      net::Registry::builtin().find("mpc.sample_sort_records")(in);
  engine::ProgramStep& bucket_sort = rebuilt.program.steps.back();
  ASSERT_EQ(bucket_sort.name, "sample_sort.tree.sort");
  std::vector<std::size_t> bucket_messages(machines, 0);
  bucket_sort.fn = [&bucket_messages, fn = bucket_sort.fn](
                       std::size_t m, const InboxView& inbox, Sender& send) {
    bucket_messages[m] = inbox.size();
    fn(m, inbox, send);
  };
  Cluster replay(cfg, nullptr);
  replay.run_program(rebuilt.program);

  const std::size_t group = sample_sort_tree_fanout(machines);
  ASSERT_EQ(group, 8u);
  for (std::size_t m = 0; m < machines; ++m) {
    EXPECT_EQ(rebuilt.output(m), result.slabs[m]) << "machine " << m;
    EXPECT_LE(bucket_messages[m], group) << "machine " << m;
  }
}

TEST(BroadcastTree, AllMachinesReceive) {
  const ClusterConfig cfg{13, 256};
  Cluster cluster(cfg, nullptr);
  const std::vector<Word> payload{1, 2, 3};
  const BroadcastResult result = broadcast_tree(cluster, 4, payload, 3);
  for (std::size_t m = 0; m < 13; ++m)
    EXPECT_EQ(result.copies[m], payload) << "machine " << m;
}

TEST(BroadcastTree, RoundsLogarithmicInFanout) {
  const ClusterConfig cfg{64, 1024};
  Cluster cluster(cfg, nullptr);
  const BroadcastResult result = broadcast_tree(cluster, 0, {7}, 4);
  // ⌈log_4 64⌉ = 3 levels of the tree.
  EXPECT_LE(result.rounds, 4u);
  EXPECT_GE(result.rounds, 3u);

  // Cross-check the Level-1 analytic formula (fanout ~ √S = 32 → 2 rounds
  // for 64 copies; our Level-0 run with the narrower fanout 4 may use
  // more rounds but stays O(log)).
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  EXPECT_LE(ctx.broadcast_rounds(64), result.rounds + 2);
}

TEST(BroadcastTree, PayloadCapacityEnforced) {
  const ClusterConfig cfg{4, 8};
  Cluster cluster(cfg, nullptr);
  // Payload of 5 words × fanout 2 = 10 > 8 send budget: must throw.
  EXPECT_THROW(broadcast_tree(cluster, 0, {1, 2, 3, 4, 5}, 2),
               arbor::InvariantError);
}

TEST(ConvergeSum, SumsToRoot) {
  const ClusterConfig cfg{10, 256};
  Cluster cluster(cfg, nullptr);
  std::vector<Word> values(10);
  Word expected = 0;
  for (std::size_t m = 0; m < 10; ++m) {
    values[m] = m * m + 1;
    expected += values[m];
  }
  const ConvergeResult result = converge_sum(cluster, 3, values, 3);
  EXPECT_EQ(result.sum, expected);
}

TEST(ConvergeSum, SingleMachine) {
  const ClusterConfig cfg{1, 64};
  Cluster cluster(cfg, nullptr);
  const ConvergeResult result = converge_sum(cluster, 0, {99}, 2);
  EXPECT_EQ(result.sum, 99u);
  EXPECT_EQ(result.rounds, 0u);
}

// A root outside the cluster is rejected by name before any round runs:
// with one machine the tree has no rounds and the sum would read past the
// end of the values; with four it would run a wrong tree first.
TEST(ConvergeSum, RejectsRootOutsideTheCluster) {
  for (const std::size_t machines : {1u, 4u}) {
    Cluster cluster(ClusterConfig{machines, 64}, nullptr);
    try {
      converge_sum(cluster, machines, std::vector<Word>(machines, 1), 2);
      FAIL() << "expected a rejected root at machines=" << machines;
    } catch (const arbor::InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "mpc.converge_sum: root " + std::to_string(machines) +
                    " is outside the"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(cluster.rounds_executed(), 0u) << "machines=" << machines;
  }
}

TEST(ConvergeSum, MatchesBroadcastDepth) {
  const ClusterConfig cfg{40, 256};
  Cluster cluster(cfg, nullptr);
  std::vector<Word> ones(40, 1);
  const ConvergeResult result = converge_sum(cluster, 0, ones, 3);
  EXPECT_EQ(result.sum, 40u);
  EXPECT_LE(result.rounds, 5u);  // ⌈log_3 40⌉ + 1
}

// ----------------------------- Level-0 bundle fetch as a RoundProgram

TEST(BundleFetchProgram, MatchesAnalyticDelivery) {
  std::vector<std::vector<Word>> bundles{{10}, {20, 21}, {30}, {}, {40, 41,
                                                                    42}};
  std::vector<std::vector<graph::VertexId>> requests{
      {1, 2}, {}, {0, 0, 4}, {3}};

  const ClusterConfig cfg{4, 1024};
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  const BundleArena arena = BundleArena::from(bundles);
  const BundleFetchResult analytic =
      fetch_bundles(ctx, arena, requests, "fetch");

  Cluster cluster(cfg, nullptr);
  const Level0BundleFetchResult executed =
      fetch_bundles_program(cluster, bundles, requests);
  EXPECT_EQ(executed.rounds, 3u);
  ASSERT_EQ(executed.delivered.size(), requests.size());
  for (std::size_t u = 0; u < requests.size(); ++u) {
    ASSERT_EQ(executed.delivered[u].size(), requests[u].size());
    for (std::size_t slot = 0; slot < requests[u].size(); ++slot) {
      const std::span<const Word> copy = analytic.delivered(u, slot);
      EXPECT_EQ(executed.delivered[u][slot],
                std::vector<Word>(copy.begin(), copy.end()))
          << "requester " << u << " slot " << slot;
    }
  }
}

TEST(BundleFetchProgram, RejectsUnknownVertex) {
  Cluster cluster(ClusterConfig{2, 64}, nullptr);
  std::vector<std::vector<Word>> bundles{{1}};
  std::vector<std::vector<graph::VertexId>> requests{{5}};
  EXPECT_THROW(fetch_bundles_program(cluster, bundles, requests),
               arbor::InvariantError);
}

// ------------------------------------ determinism matrix: execution policy
//
// Every RoundProgram in the tree must produce identical outputs, inbox
// fingerprints, and ledger totals across {serial, parallel(4), checked} —
// the policy is an execution detail, never a semantics knob.

std::uint64_t matrix_fingerprint(const Cluster& cluster) {
  std::uint64_t h = util::mix64(0x12345);
  for (std::size_t m = 0; m < cluster.num_machines(); ++m) {
    for (const auto& msg : cluster.inbox(m)) {
      h = util::hash_combine(h, msg.size());
      for (Word w : msg) h = util::hash_combine(h, w);
    }
    h = util::hash_combine(h, m);
  }
  return h;
}

std::vector<ExecutionPolicy> determinism_matrix() {
  return {ExecutionPolicy::serial(), ExecutionPolicy::parallel(4),
          ExecutionPolicy::checked()};
}

/// Ledger + inbox signature of one mode's run.
struct MatrixOutcome {
  std::uint64_t fingerprint = 0;
  std::size_t total_rounds = 0;
  std::size_t peak_traffic = 0;
  std::map<std::string, std::size_t> by_label;
};

template <typename RunFn>
void expect_matrix_identical(
    const char* what, const RunFn& run, std::size_t machines = 8,
    std::size_t capacity = 4096) {
  std::vector<MatrixOutcome> outcomes;
  for (const ExecutionPolicy& policy : determinism_matrix()) {
    ClusterConfig cfg{machines, capacity};
    cfg.execution = policy;
    RoundLedger ledger(cfg);
    Cluster cluster(cfg, &ledger);
    run(cluster, outcomes.empty());
    MatrixOutcome outcome;
    outcome.fingerprint = matrix_fingerprint(cluster);
    outcome.total_rounds = ledger.total_rounds();
    outcome.peak_traffic = ledger.peak_round_traffic();
    outcome.by_label = ledger.rounds_by_label();
    outcomes.push_back(outcome);
  }
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].fingerprint, outcomes[0].fingerprint)
        << what << " mode " << i;
    EXPECT_EQ(outcomes[i].total_rounds, outcomes[0].total_rounds)
        << what << " mode " << i;
    EXPECT_EQ(outcomes[i].peak_traffic, outcomes[0].peak_traffic)
        << what << " mode " << i;
    EXPECT_EQ(outcomes[i].by_label, outcomes[0].by_label)
        << what << " mode " << i;
  }
}

TEST(DeterminismMatrix, SampleSort) {
  const auto input = random_slabs(8, 48, 21);
  std::vector<std::vector<Word>> reference;
  expect_matrix_identical("sample_sort", [&](Cluster& cluster, bool first) {
    const RecordSortResult result = sample_sort_records(cluster, input, 1);
    if (first)
      reference = result.slabs;
    else
      EXPECT_EQ(result.slabs, reference);
  });
}

TEST(DeterminismMatrix, RecordSampleSort) {
  util::SplitRng rng(22);
  std::vector<std::vector<Word>> input(8);
  std::size_t payload = 0;
  for (auto& slab : input)
    for (int r = 0; r < 24; ++r) {
      slab.push_back(rng.next_below(8));  // heavily duplicated key
      slab.push_back(payload++);
    }
  std::vector<std::vector<Word>> reference;
  expect_matrix_identical(
      "sample_sort_records", [&](Cluster& cluster, bool first) {
        const RecordSortResult result =
            sample_sort_records(cluster, input, 2, 1);
        if (first)
          reference = result.slabs;
        else
          EXPECT_EQ(result.slabs, reference);
      });
}

// The tree again at a wide, non-perfect-square machine count where its
// topology is ragged.
TEST(DeterminismMatrix, WideTreeSampleSort) {
  const std::size_t machines = 75;  // r = 9, ragged last group of 3
  const auto input = random_slabs(machines, 40, 26);
  std::vector<std::vector<Word>> reference;
  expect_matrix_identical(
      "sample_sort/tree-wide",
      [&](Cluster& cluster, bool first) {
        const RecordSortResult result = sample_sort_records(cluster, input, 1);
        if (first)
          reference = result.slabs;
        else
          EXPECT_EQ(result.slabs, reference);
      },
      machines, 8192);
}

TEST(DeterminismMatrix, BroadcastAndConverge) {
  std::vector<std::vector<Word>> reference_copies;
  expect_matrix_identical("broadcast", [&](Cluster& cluster, bool first) {
    const BroadcastResult result =
        broadcast_tree(cluster, 3, {7, 8, 9}, 2);
    if (first)
      reference_copies = result.copies;
    else
      EXPECT_EQ(result.copies, reference_copies);
  });
  expect_matrix_identical("converge", [&](Cluster& cluster, bool) {
    std::vector<Word> values(cluster.num_machines());
    for (std::size_t m = 0; m < values.size(); ++m) values[m] = m * 3 + 1;
    const ConvergeResult result = converge_sum(cluster, 2, values, 2);
    EXPECT_EQ(result.sum, 92u);  // Σ (3m+1) for m < 8
  });
}

TEST(DeterminismMatrix, BundleFetch) {
  std::vector<std::vector<Word>> bundles(12);
  std::vector<std::vector<graph::VertexId>> requests(12);
  util::SplitRng rng(23);
  for (std::size_t v = 0; v < bundles.size(); ++v)
    for (std::size_t i = 0; i <= rng.next_below(3); ++i)
      bundles[v].push_back(v * 100 + i);
  for (std::size_t u = 0; u < requests.size(); ++u)
    for (std::size_t i = 0; i < rng.next_below(4); ++i)
      requests[u].push_back(rng.next_below(bundles.size()));
  std::vector<std::vector<std::vector<Word>>> reference;
  expect_matrix_identical("bundle_fetch", [&](Cluster& cluster, bool first) {
    const Level0BundleFetchResult result =
        fetch_bundles_program(cluster, bundles, requests);
    if (first)
      reference = result.delivered;
    else
      EXPECT_EQ(result.delivered, reference);
  });
}

// Regression: programs folded the old "driver reads inboxes after the
// round" logic into their first step, which must therefore ignore whatever
// stale traffic the cluster's previous program left undelivered. Peeling
// after a broadcast (whose deepest level's copies remain in the inboxes)
// must behave exactly like peeling on a fresh cluster.
TEST(RoundProgramReuse, StaleInboxesDoNotLeakIntoNextProgram) {
  util::SplitRng rng(31);
  const graph::Graph g = graph::gnm(120, 360, rng);
  const ClusterConfig cfg{8, 4096};

  Cluster fresh(cfg, nullptr);
  const auto expected = local::embedded_threshold_peeling(g, 5, fresh, 50);

  Cluster reused(cfg, nullptr);
  broadcast_tree(reused, 0, {1000, 2000, 3000}, 2);  // leaves inbox traffic
  const auto after = local::embedded_threshold_peeling(g, 5, reused, 50);
  EXPECT_EQ(after.layer, expected.layer);
  EXPECT_EQ(after.num_layers, expected.num_layers);
  EXPECT_EQ(after.complete, expected.complete);

  // Back-to-back trees on one cluster: the second broadcast must also
  // ignore the first one's leftovers.
  Cluster chained(cfg, nullptr);
  broadcast_tree(chained, 0, {11, 22}, 2);
  const auto second = broadcast_tree(chained, 5, {77}, 2);
  for (std::size_t m = 0; m < cfg.num_machines; ++m)
    EXPECT_EQ(second.copies[m], (std::vector<Word>{77})) << "machine " << m;
}

TEST(DeterminismMatrix, EmbeddedPeeling) {
  util::SplitRng rng(24);
  const graph::Graph g = graph::gnm(300, 900, rng);
  std::vector<std::uint32_t> reference_layers;
  expect_matrix_identical("peeling", [&](Cluster& cluster, bool first) {
    const local::EmbeddedPeelingResult result =
        local::embedded_threshold_peeling(g, 6, cluster, 100);
    if (first)
      reference_layers = result.layer;
    else
      EXPECT_EQ(result.layer, reference_layers);
  });
}

// ------------------------------------------ cross-version golden outputs
//
// One seed's exact bytes out of the record sort at widths 3 and 1, the
// embedded peel and a broadcast, recorded as literals. Every path the
// programs take (bucket routing, k-way merges, the peel's decrement walk,
// the broadcast fan-out) must keep emitting these bytes: a refactor that
// moves a tie-break or a message boundary into the output fails here even
// when it is deterministic across executors.

/// FNV-1a over the slabs, slab lengths included, so a record that moves
/// between machines changes the hash.
template <typename T>
std::uint64_t golden_hash(const std::vector<std::vector<T>>& slabs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& slab : slabs) {
    mix(slab.size());
    for (const T word : slab) mix(static_cast<std::uint64_t>(word));
  }
  return h;
}

TEST(Level0, GoldenOutputsBitIdentical) {
  // Record sort: width 3 over a 2-word key drawn from a tiny range, so
  // equal keys with different payloads collide across every machine and
  // the output order pins the delivery-order tie-break.
  util::SplitRng rng(2024);
  std::vector<std::vector<Word>> records(16);
  Word payload = 0;
  for (auto& slab : records)
    for (int r = 0; r < 40; ++r) {
      slab.push_back(rng.next_below(4));
      slab.push_back(rng.next_below(8));
      slab.push_back(payload++);
    }
  {
    const ClusterConfig cfg{16, 8192};
    RoundLedger ledger(cfg);
    Cluster cluster(cfg, &ledger);
    const RecordSortResult sorted = sample_sort_records(cluster, records, 3, 2);
    EXPECT_EQ(sorted.rounds, 7u);
    EXPECT_EQ(golden_hash(sorted.slabs), 10275504641126727431ull);
    EXPECT_EQ(ledger.total_rounds(), 7u);
    EXPECT_EQ(ledger.peak_round_traffic(), 303u);
  }
  {
    const ClusterConfig cfg{16, 1024};
    Cluster cluster(cfg, nullptr);
    const RecordSortResult sorted =
        sample_sort_records(cluster, random_slabs(16, 48, 2024), 1);
    EXPECT_EQ(sorted.rounds, 7u);
    EXPECT_EQ(golden_hash(sorted.slabs), 14066410507285807204ull);
  }
  {
    util::SplitRng graph_rng(2024);
    const graph::Graph g = graph::gnm(300, 900, graph_rng);
    const ClusterConfig cfg{8, 4096};
    Cluster cluster(cfg, nullptr);
    const local::EmbeddedPeelingResult peel =
        local::embedded_threshold_peeling(g, 4, cluster, 100);
    EXPECT_EQ(golden_hash(std::vector<std::vector<std::uint32_t>>{peel.layer}),
              4986425112842892398ull);
    EXPECT_EQ(peel.num_layers, 8u);
    EXPECT_EQ(peel.cluster_rounds, 8u);
    EXPECT_TRUE(peel.complete);
  }
  {
    const ClusterConfig cfg{10, 4096};
    Cluster cluster(cfg, nullptr);
    const BroadcastResult cast =
        broadcast_tree(cluster, 3, {7, 8, 9, 10, 11}, 3);
    EXPECT_EQ(cast.rounds, 2u);
    EXPECT_EQ(golden_hash(cast.copies), 6425579741410023269ull);
  }
}

}  // namespace
}  // namespace arbor::mpc

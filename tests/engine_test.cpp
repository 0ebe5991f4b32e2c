// Tests for the parallel execution engine (src/engine/): thread pool
// semantics, span inboxes and flat outbox buffers, and — the load-bearing
// property — that parallel(k) execution is bit-identical to the serial
// reference executor for every Level-0 program in the tree (delivery order,
// inbox contents, ledger totals), with the traffic caps enforced exactly under
// concurrency.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/execution_policy.hpp"
#include "engine/inbox.hpp"
#include "engine/records.hpp"
#include "engine/thread_pool.hpp"
#include "graph/generators.hpp"
#include "local/mpc_embedding.hpp"
#include "mpc/broadcast.hpp"
#include "mpc/cluster.hpp"
#include "mpc/primitives.hpp"
#include "mpc/sample_sort.hpp"
#include "util/assert.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"

namespace arbor {
namespace {

using engine::ExecutionPolicy;
using mpc::Cluster;
using mpc::ClusterConfig;
using mpc::RoundLedger;
using mpc::Sender;
using mpc::Word;

// ---------------------------------------------------------------- policy

TEST(ExecutionPolicy, SerialDefaults) {
  const ExecutionPolicy p = ExecutionPolicy::serial();
  EXPECT_FALSE(p.is_parallel());
  EXPECT_EQ(p.effective_threads(), 1u);
}

TEST(ExecutionPolicy, ParallelThreads) {
  const ExecutionPolicy p = ExecutionPolicy::parallel(4);
  EXPECT_TRUE(p.is_parallel());
  EXPECT_EQ(p.effective_threads(), 4u);
  // threads == 0 resolves to hardware concurrency, at least one.
  EXPECT_GE(ExecutionPolicy::parallel(0).effective_threads(), 1u);
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  engine::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.run_blocks(100, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HandlesFewerItemsThanWorkers) {
  engine::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.run_blocks(3, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyRounds) {
  engine::ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 200; ++round)
    pool.run_blocks(17, [&](std::size_t begin, std::size_t end) {
      total.fetch_add(end - begin);
    });
  EXPECT_EQ(total.load(), 200u * 17u);
}

TEST(ThreadPool, PropagatesLowestBlockException) {
  engine::ThreadPool pool(4);
  try {
    pool.run_blocks(4, [&](std::size_t begin, std::size_t) {
      throw std::runtime_error("block " + std::to_string(begin));
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "block 0");
  }
}

// ------------------------------------------------------------ inbox spans

// append() copies each payload into the inbox's one flat `held` arena;
// the views read the copies.
TEST(Inbox, FlatAppendAndViews) {
  std::vector<Word> source{1, 2, 3};
  engine::Inbox inbox;
  inbox.append(source);
  inbox.append(std::vector<Word>{9});
  const engine::InboxView view(inbox);
  ASSERT_EQ(view.size(), 2u);
  EXPECT_FALSE(view.empty());
  EXPECT_EQ(view.total_words(), 4u);
  EXPECT_EQ(view[0].size(), 3u);
  EXPECT_EQ(view[0][1], 2u);
  EXPECT_EQ(view[1][0], 9u);
  EXPECT_EQ(view.front(), (std::vector<Word>{1, 2, 3}));
  EXPECT_NE(view[0].begin(), source.data());  // a copy
  EXPECT_EQ(inbox.held, (std::vector<Word>{1, 2, 3, 9}));
  std::fill(source.begin(), source.end(), Word{0xDEAD});
  EXPECT_EQ(view[0], (std::vector<Word>{1, 2, 3}));
  std::size_t count = 0, words = 0;
  for (const auto& msg : view) {
    ++count;
    words += msg.size();
  }
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(words, 4u);
  inbox.clear();
  EXPECT_TRUE(engine::InboxView(inbox).empty());
  EXPECT_EQ(engine::InboxView(inbox).total_words(), 0u);
}

// refer() records spans over the sender's words: the views read them in
// place, with no copy.
TEST(Inbox, ScatterViewReadsSpansInPlace) {
  const std::vector<Word> arena{4, 5, 6};
  engine::Inbox inbox;
  inbox.refer(std::span<const Word>(arena.data(), 2));
  inbox.refer(std::span<const Word>(arena.data() + 2, 1));
  inbox.refer({});  // zero-length message
  const engine::InboxView view(inbox);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view.total_words(), 3u);
  EXPECT_EQ(view[0], (std::vector<Word>{4, 5}));
  EXPECT_EQ(view[1][0], 6u);
  EXPECT_TRUE(view[2].empty());
  EXPECT_EQ(view[0].begin(), arena.data());  // no copy
  EXPECT_EQ(view[1].begin(), arena.data() + 2);
  EXPECT_TRUE(inbox.held.empty());
  inbox.clear();
  EXPECT_TRUE(engine::InboxView(inbox).empty());
}

// One inbox shape: message spans over storage that outlives the round.
TEST(Inbox, SpansReadInPlaceAndHeldContentsOutliveTheirSource) {
  // Spans recorded with refer() read the sender's words where they lie.
  std::vector<Word> arena{4, 5, 6};
  engine::Inbox inbox;
  inbox.refer(std::span<const Word>(arena.data(), 2));
  inbox.refer(std::span<const Word>(arena.data() + 2, 1));
  inbox.refer({});  // zero-length message
  const engine::InboxView view(inbox);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0].begin(), arena.data());  // no copy

  // hold() copies into the inbox's own arena: overwriting the source
  // leaves the contents intact.
  inbox.hold();
  EXPECT_NE(view[0].begin(), arena.data());
  std::fill(arena.begin(), arena.end(), Word{0xDEAD});
  EXPECT_EQ(view[0], (std::vector<Word>{4, 5}));
  EXPECT_EQ(view[1], (std::vector<Word>{6}));
  EXPECT_TRUE(view[2].empty());
  EXPECT_EQ(inbox.held.size(), 3u);  // one exact-size copy
  inbox.hold();  // holding held contents again keeps them
  EXPECT_EQ(view[0], (std::vector<Word>{4, 5}));
  EXPECT_EQ(view[1], (std::vector<Word>{6}));

  // Repeated preloads: every append may grow `held`, and the spans of
  // earlier messages must follow it.
  std::vector<std::vector<Word>> expected{{4, 5}, {6}, {}};
  for (Word i = 0; i < 200; ++i) {
    std::vector<Word> payload(i % 7, i);
    inbox.append(payload);
    expected.push_back(std::move(payload));
  }
  ASSERT_EQ(view.size(), expected.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(view[i], expected[i]) << "message " << i;
    total += expected[i].size();
  }
  EXPECT_EQ(view.total_words(), total);

  // Appends after spans into foreign storage keep those spans as they are.
  const std::vector<Word> foreign{7, 7, 7};
  inbox.refer(foreign);
  for (Word i = 0; i < 100; ++i) inbox.append(std::vector<Word>(5, i));
  EXPECT_EQ(view[expected.size()].begin(), foreign.data());

  inbox.clear();
  EXPECT_TRUE(engine::InboxView(inbox).empty());
  EXPECT_EQ(engine::InboxView(inbox).total_words(), 0u);

  // An inbox moved inside a growing vector keeps valid spans: the held
  // arena moves with it.
  std::vector<engine::Inbox> inboxes(1);
  inboxes[0].append(std::vector<Word>{1, 2, 3});
  inboxes[0].append(std::vector<Word>{9});
  const Word* before = inboxes[0].msgs[0].data();
  for (std::size_t i = 0; i < 100; ++i) {
    inboxes.emplace_back();
    inboxes.back().append(std::vector<Word>{i});
  }
  EXPECT_EQ(inboxes[0].msgs[0].data(), before);
  EXPECT_EQ(engine::InboxView(inboxes[0])[0], (std::vector<Word>{1, 2, 3}));
  EXPECT_EQ(engine::InboxView(inboxes[0])[1], (std::vector<Word>{9}));
  EXPECT_EQ(engine::InboxView(inboxes[100])[0], (std::vector<Word>{99}));
}

// -------------------------------------------- record slabs & bulk routing

// Count of splitter keys ≤ the record's key — the per-record bucket rule
// (std::upper_bound semantics) the bulk partition must reproduce exactly.
std::size_t bucket_of(std::span<const Word> splitters, std::size_t key_words,
                      const Word* rec) {
  const std::size_t k = splitters.size() / key_words;
  std::size_t b = 0;
  while (b < k && engine::compare_keys(splitters.data() + b * key_words, rec,
                                       key_words) <= 0)
    ++b;
  return b;
}

// Single words take the runtime-width radix kernel, as width 3 does.
TEST(Records, WidthOneSortFastPath) {
  util::SplitRng rng(71);
  std::vector<Word> slab;
  for (std::size_t i = 0; i < 1000; ++i) slab.push_back(rng.next_below(50));
  std::vector<Word> expected = slab;
  std::sort(expected.begin(), expected.end());
  engine::stable_sort_records(slab, /*width=*/1, /*key_words=*/1);
  EXPECT_EQ(slab, expected);
}

/// `records` (whole records of `width` words) std::sort-ed by the whole
/// record, compared lexicographically: the expected output of a whole-key
/// stable_sort_records.
std::vector<Word> std_sorted_records(const std::vector<Word>& records,
                                     std::size_t width) {
  std::vector<std::size_t> order(records.size() / width);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t lhs, std::size_t rhs) {
    const Word* a = records.data() + lhs * width;
    const Word* b = records.data() + rhs * width;
    return std::lexicographical_compare(a, a + width, b, b + width);
  });
  std::vector<Word> sorted;
  sorted.reserve(records.size());
  for (const std::size_t r : order)
    sorted.insert(sorted.end(), records.begin() + r * width,
                  records.begin() + (r + 1) * width);
  return sorted;
}

// Whole-key records (key_words == width) take the radix kernel; its output
// must equal std::sort's on the empty, one-, two- and three-record arenas,
// counts around the 256-entry digit table, a large arena, all-equal
// records (no byte varies, no pass runs), a single varying byte at either
// end of the key, the extreme words, full-range words (every byte varies,
// an even pass count), and the Level-1 (key < 62501, spread index)
// records. For width 1, "word 1 only" degenerates to all-equal; width 3
// covers the kernel's runtime-width instantiation.
TEST(Records, WholeKeyRadixMatchesStdSort) {
  util::SplitRng rng(76);
  const std::size_t sizes[] = {0, 1, 2, 3, 255, 256, 257, std::size_t{1} << 17};
  using Gen = Word (*)(util::SplitRng&, std::size_t record, std::size_t word);
  const std::pair<const char*, Gen> shapes[] = {
      {"all equal", [](util::SplitRng&, std::size_t, std::size_t) -> Word {
         return 0x0123456789abcdefULL;
       }},
      {"top byte of word 0",
       [](util::SplitRng& r, std::size_t, std::size_t word) -> Word {
         return word == 0 ? (r.next_below(256) << 56) | 0x42 : 7;
       }},
      {"word 1 only", [](util::SplitRng& r, std::size_t, std::size_t word)
           -> Word { return word == 0 ? 99 : r.next(); }},
      {"0 and max", [](util::SplitRng& r, std::size_t, std::size_t) -> Word {
         return r.next_below(2) == 0 ? 0 : UINT64_MAX;
       }},
      {"full range", [](util::SplitRng& r, std::size_t, std::size_t) -> Word {
         return r.next();
       }},
      {"level-1 (key, index)",
       [](util::SplitRng& r, std::size_t record, std::size_t word) -> Word {
         return word == 0 ? r.next_below(62501) : record * 125 + 3;
       }},
  };
  for (const std::size_t width : {1, 2, 3}) {
    for (const auto& [name, gen] : shapes) {
      for (const std::size_t n : sizes) {
        std::vector<Word> arena;
        arena.reserve(n * width);
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < width; ++j)
            arena.push_back(gen(rng, i, width == 1 ? 0 : j));
        const std::vector<Word> expected = std_sorted_records(arena, width);
        engine::stable_sort_records(arena, width, width);
        EXPECT_EQ(arena, expected)
            << "width " << width << ", " << name << ", n " << n;
      }
    }
  }
}

/// (bucket, first record, record count) of every span for_each_bucket_span
/// visits, in visiting order.
std::vector<std::array<std::size_t, 3>> bucket_spans(
    std::span<const Word> slab, std::size_t width, std::size_t key_words,
    std::span<const Word> splitters) {
  std::vector<std::array<std::size_t, 3>> spans;
  engine::for_each_bucket_span(
      slab, width, key_words, splitters,
      [&](std::size_t b, std::span<const Word> span) {
        spans.push_back({b,
                         static_cast<std::size_t>(span.data() - slab.data()) /
                             width,
                         span.size() / width});
      });
  return spans;
}

TEST(Records, PartitionSortedMatchesPerRecordRule) {
  util::SplitRng rng(72);
  constexpr std::size_t kWidth = 2, kKeyWords = 2;
  std::vector<Word> slab;
  for (std::size_t i = 0; i < 500; ++i) {
    slab.push_back(rng.next_below(40));  // heavy duplication
    slab.push_back(rng.next_below(8));
  }
  engine::stable_sort_records(slab, kWidth, kKeyWords);
  std::vector<Word> splitters;
  for (const Word k : {5u, 5u, 17u, 30u}) {  // duplicate splitter included
    splitters.push_back(k);
    splitters.push_back(4);
  }

  // The spans tile the slab in order, one non-empty span per bucket in
  // ascending bucket order, and every record sits in its upper_bound
  // bucket. Bucket 1, between the two equal splitters, is empty, so it is
  // never visited.
  std::size_t next = 0;
  std::size_t last_bucket = 0;
  const auto spans = bucket_spans(slab, kWidth, kKeyWords, splitters);
  ASSERT_FALSE(spans.empty());
  for (const auto& [b, first, count] : spans) {
    EXPECT_EQ(first, next);
    EXPECT_GT(count, 0u);
    if (next > 0) {
      EXPECT_GT(b, last_bucket);
    }
    EXPECT_NE(b, 1u);
    for (std::size_t r = first; r < first + count; ++r)
      EXPECT_EQ(bucket_of(splitters, kKeyWords, slab.data() + r * kWidth), b)
          << "record " << r;
    next = first + count;
    last_bucket = b;
  }
  EXPECT_EQ(next, slab.size() / kWidth);
}

TEST(Records, PartitionAllDuplicatesAndEmptySplitters) {
  constexpr std::size_t kWidth = 2, kKeyWords = 1;
  std::vector<Word> slab;
  for (std::size_t i = 0; i < 64; ++i) {
    slab.push_back(7);  // every key identical
    slab.push_back(i);
  }
  // Splitters below, at, and above the key: buckets 0–2 (key < 3,
  // 3 ≤ key < 7, and the empty one between the duplicate 7s) stay empty;
  // keys equal to a splitter go above it, so one span carries the whole
  // slab to bucket 3.
  const std::vector<Word> splitters{3, 7, 7};
  using Span = std::array<std::size_t, 3>;
  EXPECT_EQ(bucket_spans(slab, kWidth, kKeyWords, splitters),
            (std::vector<Span>{{3, 0, 64}}));

  // send_records ships that span as one message, records in slab order.
  engine::Outbox out;
  engine::Sender sender(0, 4096, 8, out);
  engine::send_records(sender, std::span<const Word>(slab), kWidth, kKeyWords,
                       std::span<const Word>(splitters),
                       [](std::size_t b) { return b + 4; });
  ASSERT_EQ(out.msgs.size(), 1u);
  EXPECT_EQ(out.msgs[0].dst, 7u);
  const auto payload = out.payload(out.msgs[0]);
  EXPECT_EQ(std::vector<Word>(payload.begin(), payload.end()), slab);

  // No splitters at all: the single bucket 0 takes the whole slab.
  EXPECT_EQ(bucket_spans(slab, kWidth, kKeyWords, std::span<const Word>{}),
            (std::vector<Span>{{0, 0, 64}}));
}

// Bulk send_records must enqueue, per destination, exactly the payload the
// per-record upper_bound rule picks (width-1 records).
TEST(Records, SendRecordsMatchesPerRecordRouting) {
  util::SplitRng rng(73);
  constexpr std::size_t kMachines = 8;
  std::vector<Word> slab;
  for (std::size_t i = 0; i < 300; ++i) slab.push_back(rng.next_below(100));
  std::sort(slab.begin(), slab.end());
  std::vector<Word> splitters;
  for (std::size_t b = 1; b < kMachines; ++b)
    splitters.push_back(b * 100 / kMachines);

  engine::Outbox bulk_out;
  engine::Sender bulk(0, 4096, kMachines, bulk_out);
  engine::send_records(bulk, std::span<const Word>(slab), 1, 1,
                       std::span<const Word>(splitters),
                       [](std::size_t b) { return b; });

  std::vector<std::vector<Word>> expected(kMachines);
  for (const Word w : slab)
    expected[bucket_of(splitters, 1, &w)].push_back(w);

  std::vector<std::vector<Word>> got(kMachines);
  std::size_t last_dst = 0;
  for (const auto& msg : bulk_out.msgs) {
    EXPECT_GE(msg.dst, last_dst);  // ascending: one span per destination
    last_dst = msg.dst;
    const auto payload = bulk_out.payload(msg);
    got[msg.dst].insert(got[msg.dst].end(), payload.begin(), payload.end());
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(bulk.words_sent(), slab.size());
}

// ------------------------------------------------- stable k-way merge

// The contract: merge_sorted_runs == std::stable_sort of the runs'
// concatenation in run order. Every test below compares against this
// reference, which shares no code with the engine's sorts: a stable sort
// of record indices under a local lexicographic compare, then a gather.
std::vector<Word> merge_reference(const std::vector<std::vector<Word>>& runs,
                                  std::size_t width, std::size_t key_words) {
  std::vector<Word> all;
  for (const auto& run : runs) all.insert(all.end(), run.begin(), run.end());
  std::vector<std::size_t> order(all.size() / width);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t lhs, std::size_t rhs) {
                     const Word* a = all.data() + lhs * width;
                     const Word* b = all.data() + rhs * width;
                     return std::lexicographical_compare(a, a + key_words, b,
                                                         b + key_words);
                   });
  std::vector<Word> sorted;
  sorted.reserve(all.size());
  for (const std::size_t r : order)
    sorted.insert(sorted.end(), all.begin() + r * width,
                  all.begin() + (r + 1) * width);
  return sorted;
}

std::vector<Word> merge_runs(const std::vector<std::vector<Word>>& runs,
                             std::size_t width, std::size_t key_words) {
  std::vector<std::span<const Word>> spans(runs.begin(), runs.end());
  std::vector<Word> out;
  engine::merge_sorted_runs(spans, width, key_words, out);
  return out;
}

TEST(RecordMerge, RaggedRunCountsIncludingEmptyRuns) {
  // 0 runs, 1 run, and k runs with empties interleaved all merge clean.
  EXPECT_TRUE(merge_runs({}, 2, 1).empty());
  EXPECT_EQ(merge_runs({{3, 10, 5, 11}}, 2, 1),
            (std::vector<Word>{3, 10, 5, 11}));
  const std::vector<std::vector<Word>> ragged{
      {}, {4, 20}, {}, {1, 30, 4, 31, 9, 32}, {2, 40}, {}};
  EXPECT_EQ(merge_runs(ragged, 2, 1), merge_reference(ragged, 2, 1));
  EXPECT_EQ(merge_runs(ragged, 2, 1),
            (std::vector<Word>{1, 30, 2, 40, 4, 20, 4, 31, 9, 32}));
}

TEST(RecordMerge, DuplicateKeysResolveToEarliestRun) {
  // Three runs of identical keys, payload = run id: stability demands the
  // output interleave run 0's records before run 1's before run 2's at
  // every tied key — exactly the stable sort of the concatenation.
  std::vector<std::vector<Word>> runs(3);
  for (std::size_t r = 0; r < runs.size(); ++r)
    for (const Word key : {5u, 5u, 8u}) {
      runs[r].push_back(key);
      runs[r].push_back(r);
    }
  const std::vector<Word> merged = merge_runs(runs, 2, 1);
  EXPECT_EQ(merged, merge_reference(runs, 2, 1));
  EXPECT_EQ(merged,
            (std::vector<Word>{5, 0, 5, 0, 5, 1, 5, 1, 5, 2, 5, 2,
                               8, 0, 8, 1, 8, 2}));
}

// Single-word runs take the runtime-width merge, as width 3 does.
TEST(RecordMerge, WidthOneFastPathMatchesSort) {
  util::SplitRng rng(74);
  std::vector<std::vector<Word>> runs(5);
  for (auto& run : runs) {
    for (std::size_t i = 0; i < 200; ++i) run.push_back(rng.next_below(64));
    std::sort(run.begin(), run.end());
  }
  EXPECT_EQ(merge_runs(runs, 1, 1), merge_reference(runs, 1, 1));
}

// Randomized cross-check of the galloping heap merge against the linear
// reference, on run shapes chosen to exercise the gallop: one dominating
// run with long stretches below every other head, plus short runs, heavy
// key duplication, and a multi-word lexicographic key.
TEST(RecordMerge, GallopMatchesLinearReferenceOnRandomRuns) {
  util::SplitRng rng(75);
  constexpr std::size_t kWidth = 3, kKeyWords = 2;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t k = 1 + rng.next_below(9);
    std::vector<std::vector<Word>> runs(k);
    Word payload = 0;
    for (std::size_t r = 0; r < k; ++r) {
      // Run 0 is long (gallop batches), later runs progressively shorter
      // (frequent heap churn); some runs roll empty.
      const std::size_t records =
          r == 0 ? 300 : rng.next_below(40 / (r + 1) + 2);
      for (std::size_t i = 0; i < records; ++i) {
        runs[r].push_back(rng.next_below(16));  // heavy duplication
        runs[r].push_back(rng.next_below(4));
        runs[r].push_back(payload++);  // non-key word rides along
      }
      engine::stable_sort_records(runs[r], kWidth, kKeyWords);
    }
    EXPECT_EQ(merge_runs(runs, kWidth, kKeyWords),
              merge_reference(runs, kWidth, kKeyWords))
        << "trial " << trial;
  }
}

TEST(RecordMerge, AppendsToExistingOutputAndMergesInboxes) {
  // merge_sorted_runs APPENDS (the bucket-sort round merges into a result
  // slab that outlives the call); merge_sorted_inbox adapts an inbox's
  // messages as the runs, in delivery order.
  const std::vector<std::vector<Word>> runs{{2, 9}, {1, 7}};
  std::vector<std::span<const Word>> spans(runs.begin(), runs.end());
  std::vector<Word> out{99};
  engine::merge_sorted_runs(spans, 2, 1, out);
  EXPECT_EQ(out, (std::vector<Word>{99, 1, 7, 2, 9}));

  engine::Inbox inbox;
  inbox.append(std::vector<Word>{4, 6, 6, 8});
  inbox.append(std::vector<Word>{5, 5});
  std::vector<Word> merged;
  engine::merge_sorted_inbox(engine::InboxView(inbox), 1, 1, merged);
  EXPECT_EQ(merged, (std::vector<Word>{4, 5, 5, 6, 6, 8}));
}

// -------------------------------------------- delivery order determinism

// The engine must deliver messages in (source asc, send order) for every
// destination — the serial executor's order — regardless of scheduling.
TEST(Engine, DeliveryOrderMatchesSerial) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ClusterConfig cfg{6, 64};
    cfg.execution = ExecutionPolicy::parallel(threads);
    Cluster cluster(cfg, nullptr);
    cluster.run_round([](std::size_t m, const auto&, Sender& send) {
      // Every machine sends two messages to machine 0, tagged by source.
      send.send(0, {m * 10});
      send.send(0, {m * 10 + 1});
    });
    const auto inbox = cluster.inbox(0);
    ASSERT_EQ(inbox.size(), 12u);
    for (std::size_t i = 0; i < 12; ++i)
      EXPECT_EQ(inbox[i][0], (i / 2) * 10 + (i % 2)) << "message " << i;
  }
}

TEST(Engine, PreloadVisibleInFirstRound) {
  ClusterConfig cfg{3, 64};
  cfg.execution = ExecutionPolicy::parallel(2);
  Cluster cluster(cfg, nullptr);
  cluster.preload(1, {7, 8});
  std::vector<Word> seen;
  cluster.run_round([&](std::size_t m, const auto& inbox, Sender&) {
    if (m == 1 && !inbox.empty()) {
      const std::span<const Word> msg = inbox.front().span();
      seen.assign(msg.begin(), msg.end());
    }
  });
  EXPECT_EQ(seen, (std::vector<Word>{7, 8}));
}

// A preload between passes joins the inbox the last round delivered: the
// next pass reads both, and whatever is queued when the program ends is
// held together.
TEST(Engine, PreloadBetweenPassesJoinsTheDeliveredInbox) {
  Cluster cluster(ClusterConfig{2, 64}, nullptr);
  std::vector<std::vector<Word>> read_by_0;
  engine::RoundProgram program;
  program.barrier([&](std::size_t m, const auto& inbox, Sender& send) {
    if (m == 0)
      for (const auto& msg : inbox)
        read_by_0.emplace_back(msg.begin(), msg.end());
    send.send(1 - m, {m + 10});
  });
  program.repeat_while([&](std::size_t passes) {
    cluster.preload(0, {passes == 1 ? Word{99} : Word{77}});
    return passes < 2;
  });
  cluster.run_program(program);
  EXPECT_EQ(read_by_0, (std::vector<std::vector<Word>>{{11}, {99}}));
  const auto inbox = cluster.inbox(0);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(inbox[0], (std::vector<Word>{11}));
  EXPECT_EQ(inbox[1], (std::vector<Word>{77}));
  EXPECT_EQ(inbox.total_words(), 2u);
}

// Checksum of every machine's inbox (message boundaries included).
std::uint64_t inbox_fingerprint(const Cluster& cluster) {
  std::uint64_t h = util::mix64(0xabcdef);
  for (std::size_t m = 0; m < cluster.num_machines(); ++m) {
    for (const auto& msg : cluster.inbox(m)) {
      h = util::hash_combine(h, msg.size());
      for (Word w : msg) h = util::hash_combine(h, w);
    }
    h = util::hash_combine(h, 0x6d61636821ULL);  // machine separator
  }
  return h;
}

// A multi-round routing storm: every machine scatters hashed words, then the
// fingerprints of the full inbox state must agree serial vs parallel(k),
// and so must the ledger (rounds, peak traffic).
TEST(Engine, StormBitIdenticalAcrossExecutors) {
  const std::size_t machines = 32;
  const ClusterConfig base{machines, 4096};
  std::vector<std::uint64_t> fingerprints;
  std::vector<std::size_t> peak_traffic;
  for (const auto& policy :
       {ExecutionPolicy::serial(), ExecutionPolicy::parallel(1),
        ExecutionPolicy::parallel(3), ExecutionPolicy::parallel(8)}) {
    ClusterConfig cfg = base;
    cfg.execution = policy;
    RoundLedger ledger(cfg);
    Cluster cluster(cfg, &ledger);
    for (std::size_t round = 0; round < 5; ++round) {
      cluster.run_round([&](std::size_t m, const auto&, Sender& send) {
        for (std::size_t i = 0; i < 16; ++i) {
          const Word w = util::hash_words(7, round, m, i);
          send.send(w % machines, {w, w ^ m});
        }
      });
    }
    fingerprints.push_back(inbox_fingerprint(cluster));
    peak_traffic.push_back(ledger.peak_round_traffic());
    EXPECT_EQ(ledger.total_rounds(), 5u);
  }
  for (std::size_t i = 1; i < fingerprints.size(); ++i) {
    EXPECT_EQ(fingerprints[i], fingerprints[0]) << "policy " << i;
    EXPECT_EQ(peak_traffic[i], peak_traffic[0]) << "policy " << i;
  }
}

// ---------------------------------- determinism of the Level-0 programs

TEST(Engine, SampleSortIdenticalToSerialAcrossSeeds) {
  for (const std::uint64_t seed : {1u, 2u, 77u}) {
    util::SplitRng rng(seed);
    const std::size_t machines = 8;
    std::vector<std::vector<Word>> input(machines);
    for (auto& slab : input)
      for (int i = 0; i < 32; ++i) slab.push_back(rng.next_below(1u << 20));

    ClusterConfig serial_cfg{machines, 1024};
    RoundLedger serial_ledger(serial_cfg);
    Cluster serial_cluster(serial_cfg, &serial_ledger);
    const auto serial_result =
        mpc::sample_sort_records(serial_cluster, input, 1);

    for (const std::size_t threads : {1u, 4u}) {
      ClusterConfig cfg{machines, 1024};
      cfg.execution = ExecutionPolicy::parallel(threads);
      RoundLedger ledger(cfg);
      Cluster cluster(cfg, &ledger);
      const auto result = mpc::sample_sort_records(cluster, input, 1);
      EXPECT_EQ(result.slabs, serial_result.slabs)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(result.rounds, serial_result.rounds);
      EXPECT_EQ(ledger.total_rounds(), serial_ledger.total_rounds());
      EXPECT_EQ(ledger.peak_round_traffic(),
                serial_ledger.peak_round_traffic());
      EXPECT_EQ(ledger.rounds_by_label(), serial_ledger.rounds_by_label());
    }
  }
}

TEST(Engine, BroadcastIdenticalToSerial) {
  const std::vector<Word> payload{3, 1, 4, 1, 5};
  ClusterConfig serial_cfg{13, 256};
  RoundLedger serial_ledger(serial_cfg);
  Cluster serial_cluster(serial_cfg, &serial_ledger);
  const auto serial_result =
      mpc::broadcast_tree(serial_cluster, 4, payload, 3);

  ClusterConfig cfg{13, 256};
  cfg.execution = ExecutionPolicy::parallel(4);
  RoundLedger ledger(cfg);
  Cluster cluster(cfg, &ledger);
  const auto result = mpc::broadcast_tree(cluster, 4, payload, 3);

  EXPECT_EQ(result.copies, serial_result.copies);
  EXPECT_EQ(result.rounds, serial_result.rounds);
  EXPECT_EQ(ledger.total_rounds(), serial_ledger.total_rounds());
  EXPECT_EQ(ledger.peak_round_traffic(), serial_ledger.peak_round_traffic());
}

TEST(Engine, EmbeddedPeelingIdenticalToSerial) {
  util::SplitRng rng(11);
  const graph::Graph g = graph::gnm(400, 1200, rng);

  Cluster serial_cluster(ClusterConfig{8, 1 << 14}, nullptr);
  const auto serial_result =
      local::embedded_threshold_peeling(g, 6, serial_cluster, 200);

  ClusterConfig cfg{8, 1 << 14};
  cfg.execution = ExecutionPolicy::parallel(4);
  Cluster cluster(cfg, nullptr);
  const auto result = local::embedded_threshold_peeling(g, 6, cluster, 200);

  EXPECT_EQ(result.layer, serial_result.layer);
  EXPECT_EQ(result.num_layers, serial_result.num_layers);
  EXPECT_EQ(result.cluster_rounds, serial_result.cluster_rounds);
  EXPECT_EQ(result.complete, serial_result.complete);
}

// ------------------------------------------------ cap enforcement, parallel

TEST(Engine, SendCapacityEnforcedUnderParallel) {
  ClusterConfig cfg{4, 4};
  cfg.execution = ExecutionPolicy::parallel(4);
  Cluster cluster(cfg, nullptr);
  EXPECT_THROW(
      cluster.run_round([](std::size_t m, const auto&, Sender& send) {
        if (m == 2) send.send(0, {1, 2, 3, 4, 5});  // 5 > 4 words
      }),
      arbor::InvariantError);
}

TEST(Engine, ReceiveCapacityEnforcedOncePerMachineNamingOffender) {
  ClusterConfig cfg{4, 4};
  cfg.execution = ExecutionPolicy::parallel(2);
  Cluster cluster(cfg, nullptr);
  try {
    cluster.run_round([](std::size_t m, const auto&, Sender& send) {
      // Individually within the send cap, but machine 3 receives 3 × 3 = 9.
      if (m != 3) send.send(3, {m, m, m});
    });
    FAIL() << "expected receive-capacity violation";
  } catch (const arbor::InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("machine 3"), std::string::npos) << what;
    EXPECT_NE(what.find("receive capacity"), std::string::npos) << what;
    EXPECT_NE(what.find("9 > 4"), std::string::npos) << what;
  }
}

TEST(Engine, SerialReceiveCapMessageAlsoNamesMachine) {
  Cluster cluster(ClusterConfig{3, 4}, nullptr);
  try {
    cluster.run_round([](std::size_t m, const auto&, Sender& send) {
      if (m != 2) send.send(2, {1, 2, 3});
    });
    FAIL() << "expected receive-capacity violation";
  } catch (const arbor::InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("machine 2"), std::string::npos);
  }
}

TEST(Engine, MessageToNonexistentMachineRejected) {
  ClusterConfig cfg{2, 16};
  cfg.execution = ExecutionPolicy::parallel(2);
  Cluster cluster(cfg, nullptr);
  EXPECT_THROW(
      cluster.run_round([](std::size_t m, const auto&, Sender& send) {
        if (m == 0) send.send(5, {1});
      }),
      arbor::InvariantError);
}

// Outbox/inbox arenas must be reusable: after a violation-free run of many
// rounds the cluster still produces exact results (regression against
// stale offsets from recycled buffers).
TEST(Engine, ArenaReuseKeepsRoundsExact) {
  ClusterConfig cfg{4, 1024};
  cfg.execution = ExecutionPolicy::parallel(2);
  Cluster cluster(cfg, nullptr);
  // Ring of growing-then-shrinking payloads.
  for (std::size_t round = 0; round < 50; ++round) {
    const std::size_t len = 1 + (round * 7) % 23;
    cluster.run_round([&](std::size_t m, const auto& inbox, Sender& send) {
      std::vector<Word> payload(len, round * 100 + m);
      if (round > 0) {
        ARBOR_CHECK(inbox.size() == 1);
        // Previous round's payload came from our left neighbor.
        const std::size_t prev_len = 1 + ((round - 1) * 7) % 23;
        ARBOR_CHECK(inbox.front().size() == prev_len);
        const std::size_t left = (m + 3) % 4;
        ARBOR_CHECK(inbox.front()[0] == (round - 1) * 100 + left);
      }
      send.send((m + 1) % 4, payload);
    });
  }
  EXPECT_EQ(cluster.rounds_executed(), 50u);
}

// A shared Engine executes one round at a time; driving a second cluster
// from inside a step function must fail loudly, not corrupt scratch state.
TEST(Engine, RunRoundIsNotReentrant) {
  ClusterConfig cfg{2, 64};
  cfg.execution = ExecutionPolicy::parallel(1);
  engine::Engine shared(cfg.execution);
  Cluster a(cfg, nullptr, &shared);
  Cluster b(cfg, nullptr, &shared);
  EXPECT_THROW(a.run_round([&](std::size_t, const auto&, Sender&) {
    b.run_round([](std::size_t, const auto&, Sender&) {});
  }),
               arbor::InvariantError);
  // The guard resets: the engine is usable again afterwards.
  b.run_round([](std::size_t m, const auto&, Sender& send) {
    send.send(1 - m, {m});
  });
  EXPECT_EQ(b.inbox(0).front()[0], 1u);
}

// ----------------------------------------- RoundPrograms & the scheduler

// A three-step machine-independent ring program: step k sends (inbox sum +
// m) to the right neighbor. Cross-step data dependence through the inboxes
// makes any delivery/compute reordering visible in the final state.
engine::RoundProgram ring_program(std::size_t machines, std::size_t steps) {
  engine::RoundProgram program;
  for (std::size_t s = 0; s < steps; ++s) {
    program.independent([machines](std::size_t m, const auto& inbox,
                                   Sender& send) {
      Word acc = m;
      for (const auto& msg : inbox)
        for (Word w : msg) acc += w;
      send.send((m + 1) % machines, {acc});
    });
  }
  return program;
}

TEST(Scheduler, RepeatWhileRunsContinueHookAtBarrier) {
  ClusterConfig cfg{4, 64};
  cfg.execution = ExecutionPolicy::parallel(2);
  Cluster cluster(cfg, nullptr);
  std::vector<std::size_t> sent(4, 0);  // per-machine slots (contract)
  engine::RoundProgram program;
  program.independent([&](std::size_t m, const auto&, Sender& send) {
    ++sent[m];
    send.send((m + 1) % 4, {m});
  });
  std::size_t hook_calls = 0;
  program.repeat_while(
      [&](std::size_t passes) {
        ++hook_calls;
        EXPECT_EQ(passes, hook_calls);
        return passes < 3;
      },
      10);
  const auto stats = cluster.run_program(program);
  EXPECT_EQ(stats.rounds, 3u);
  EXPECT_EQ(stats.passes, 3u);
  EXPECT_EQ(hook_calls, 3u);
  for (std::size_t m = 0; m < 4; ++m) EXPECT_EQ(sent[m], 3u);
}

TEST(Scheduler, MaxPassesCapsRepeat) {
  Cluster cluster(ClusterConfig{2, 64}, nullptr);
  engine::RoundProgram program;
  program.independent([](std::size_t, const auto&, Sender&) {});
  program.repeat_while([](std::size_t) { return true; }, 5);
  EXPECT_EQ(cluster.run_program(program).passes, 5u);
}

// A shared Engine executes one program at a time; launching a program from
// inside a step function must fail loudly, not corrupt scratch state.
TEST(Scheduler, RunProgramIsNotReentrant) {
  ClusterConfig cfg{2, 64};
  cfg.execution = ExecutionPolicy::parallel(1);
  engine::Engine shared(cfg.execution);
  Cluster a(cfg, nullptr, &shared);
  Cluster b(cfg, nullptr, &shared);
  engine::RoundProgram inner;
  inner.independent([](std::size_t, const auto&, Sender&) {});
  engine::RoundProgram outer;
  outer.independent([&](std::size_t, const auto&, Sender&) {
    b.run_program(inner);
  });
  EXPECT_THROW(a.run_program(outer), arbor::InvariantError);
  // The guard resets: the engine is usable again afterwards.
  b.run_program(inner);
  EXPECT_EQ(b.rounds_executed(), 1u);
}

// Re-entering from a continue callback is the same programming error.
TEST(Scheduler, ContinueCallbackCannotReenter) {
  engine::Engine shared(ExecutionPolicy::parallel(1));
  Cluster a({2, 64, ExecutionPolicy::parallel(1)}, nullptr, &shared);
  Cluster b({2, 64, ExecutionPolicy::parallel(1)}, nullptr, &shared);
  engine::RoundProgram inner;
  inner.independent([](std::size_t, const auto&, Sender&) {});
  engine::RoundProgram outer;
  outer.independent([](std::size_t, const auto&, Sender&) {});
  outer.repeat_while(
      [&](std::size_t) {
        b.run_program(inner);
        return false;
      },
      2);
  EXPECT_THROW(a.run_program(outer), arbor::InvariantError);
}

// A throw in step k+1's compute must leave round k charged in EVERY mode:
// a round is charged when it commits, before the next compute runs.
TEST(Scheduler, MidProgramThrowChargesCompletedRoundsIdentically) {
  for (const auto& policy :
       {ExecutionPolicy::serial(), ExecutionPolicy::parallel(2),
        ExecutionPolicy::checked()}) {
    ClusterConfig cfg{4, 4};
    cfg.execution = policy;
    RoundLedger ledger(cfg);
    Cluster cluster(cfg, &ledger);
    engine::RoundProgram program;
    program.independent([](std::size_t m, const auto&, Sender& send) {
      send.send((m + 1) % 4, {m});
    });
    program.independent([](std::size_t m, const auto&, Sender& send) {
      if (m == 1) send.send(0, {1, 2, 3, 4, 5});  // 5 > 4 send cap
    });
    EXPECT_THROW(cluster.run_program(program), arbor::InvariantError);
    EXPECT_EQ(ledger.total_rounds(), 1u)
        << "policy threads=" << policy.threads << " check=" << policy.check;
    EXPECT_EQ(cluster.rounds_executed(), 1u);
  }
}

// The zero-copy delivery validates the receiver caps before it touches any
// inbox: a round that overflows a receiver throws the exact cap text and
// leaves the previous round's delivery current — in every policy.
TEST(Scheduler, ReceiveCapViolationKeepsPreviousRoundInboxes) {
  const std::string expected =
      "machine 0 exceeded receive capacity: 8 > 4 words in round 1 "
      "(cap.overflow)";
  std::vector<std::string> errors;
  for (const auto& policy :
       {ExecutionPolicy::serial(), ExecutionPolicy::parallel(2),
        ExecutionPolicy::checked()}) {
    SCOPED_TRACE("policy threads=" + std::to_string(policy.threads) +
                 " check=" + std::to_string(policy.check));
    ClusterConfig cfg{4, 4};
    cfg.execution = policy;
    RoundLedger ledger(cfg);
    Cluster cluster(cfg, &ledger);
    engine::RoundProgram program;
    program.independent("cap.deliver", [](std::size_t m, const auto&,
                                          Sender& send) {
      send.send((m + 1) % 4, {100 + m, 200 + m});
    });
    // Every sender stays within its 4-word send cap, but machine 0
    // receives 4 × 2 = 8 words.
    program.independent("cap.overflow", [](std::size_t m, const auto&,
                                           Sender& send) {
      send.send(0, {m, m});
    });
    try {
      cluster.run_program(program);
      FAIL() << "expected a receive-capacity violation";
    } catch (const arbor::InvariantError& e) {
      const std::string what = e.what();
      ASSERT_GE(what.size(), expected.size()) << what;
      EXPECT_EQ(what.substr(what.size() - expected.size()), expected) << what;
      errors.push_back(what);
    }
    EXPECT_EQ(ledger.total_rounds(), 1u);
    EXPECT_EQ(cluster.rounds_executed(), 1u);
    for (std::size_t m = 0; m < 4; ++m) {
      const std::size_t left = (m + 3) % 4;
      ASSERT_EQ(cluster.inbox(m).size(), 1u) << "machine " << m;
      EXPECT_EQ(cluster.inbox(m).front(),
                (std::vector<Word>{100 + left, 200 + left}))
          << "machine " << m;
    }
  }
  // One cap check serves every delivery shape: the full text, including
  // the throw site, is the same in every policy.
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_EQ(errors[1], errors[0]);
  EXPECT_EQ(errors[2], errors[0]);
}

TEST(Scheduler, EmptyProgramRejected) {
  Cluster cluster(ClusterConfig{2, 64}, nullptr);
  EXPECT_THROW(cluster.run_program(engine::RoundProgram{}),
               arbor::InvariantError);
}

// The Engine clamps its pool to the hardware concurrency, so on a
// single-core CI box its parallel rounds run inline. Driving the Scheduler
// directly with an unclamped ThreadPool forces the pooled compute to run
// genuinely multi-threaded, reading the zero-copy spans the one delivery
// pass staged in the round before — this is the test ThreadSanitizer must
// hold race-free (scripts/check.sh --tsan).
TEST(Scheduler, PooledScatterRaceFreeWithRealThreads) {
  const std::size_t machines = 64;
  const std::size_t capacity = 1024;
  const std::size_t steps = 8;

  // Reference: no pool, so every round's compute runs inline.
  engine::Scheduler inline_scheduler(ExecutionPolicy::serial(), nullptr);
  engine::RoundState inline_state(machines);
  inline_scheduler.run(inline_state, capacity, 0,
                       ring_program(machines, steps), {});

  // A real 4-way pool: every round's compute is sharded across workers;
  // the delivery is the same single pass.
  engine::ThreadPool pool(4);
  engine::Scheduler pooled(ExecutionPolicy::parallel(4), &pool);
  engine::RoundState pooled_state(machines);
  const auto stats =
      pooled.run(pooled_state, capacity, 0, ring_program(machines, steps), {});
  EXPECT_EQ(stats.rounds, steps);

  for (std::size_t m = 0; m < machines; ++m) {
    const auto a = inline_state.inbox(m);
    const auto b = pooled_state.inbox(m);
    ASSERT_EQ(a.size(), b.size()) << "machine " << m;
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_TRUE(std::ranges::equal(a[i].span(), b[i].span()))
          << "machine " << m << " message " << i;
  }
}

// Same pooled compute, but on a machine-owned-state workload (each machine
// mutates its own slab slot every step) — the pattern every converted
// protocol uses.
TEST(Scheduler, PooledMachineOwnedStateWithRealThreads) {
  const std::size_t machines = 48;
  std::vector<std::vector<Word>> slabs(machines);
  for (std::size_t m = 0; m < machines; ++m) slabs[m] = {m, m + 1};

  const auto build = [&](std::vector<std::vector<Word>>& owned) {
    engine::RoundProgram program;
    for (std::size_t s = 0; s < 6; ++s) {
      program.independent([&owned, machines](std::size_t m, const auto& inbox,
                                             Sender& send) {
        for (const auto& msg : inbox)
          for (Word w : msg) owned[m].push_back(w);
        send.send((m * 7 + 1) % machines, {owned[m].back(), m});
      });
    }
    return program;
  };

  std::vector<std::vector<Word>> inline_slabs = slabs;
  engine::Scheduler inline_scheduler(ExecutionPolicy::serial(), nullptr);
  engine::RoundState inline_state(machines);
  inline_scheduler.run(inline_state, 256, 0, build(inline_slabs), {});

  std::vector<std::vector<Word>> pooled_slabs = slabs;
  engine::ThreadPool pool(4);
  engine::Scheduler pooled(ExecutionPolicy::parallel(4), &pool);
  engine::RoundState pooled_state(machines);
  pooled.run(pooled_state, 256, 0, build(pooled_slabs), {});

  EXPECT_EQ(pooled_slabs, inline_slabs);
}

// ------------------------------------------------------ preload word cap

TEST(RoundState, PreloadValidatesReceiverCapNamingMachine) {
  for (const auto& policy :
       {ExecutionPolicy::serial(), ExecutionPolicy::parallel(2)}) {
    ClusterConfig cfg{3, 4};
    cfg.execution = policy;
    Cluster cluster(cfg, nullptr);
    cluster.preload(1, {1, 2, 3});  // 3 of 4 words: fine
    try {
      cluster.preload(1, {4, 5});  // cumulative 5 > 4
      FAIL() << "expected preload capacity violation";
    } catch (const arbor::InvariantError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("machine 1"), std::string::npos) << what;
      EXPECT_NE(what.find("5 > 4"), std::string::npos) << what;
      EXPECT_NE(what.find("preload"), std::string::npos) << what;
    }
    // Other machines keep their full budget.
    cluster.preload(2, {1, 2, 3, 4});
  }
}

// MpcContext carries the engine so every cluster in a pipeline shares it.
TEST(Engine, SharedEngineThroughContext) {
  ClusterConfig cfg{8, 512};
  cfg.execution = ExecutionPolicy::parallel(2);
  engine::Engine shared(cfg.execution);
  RoundLedger ledger(cfg);
  mpc::MpcContext ctx(cfg, &ledger, &shared);
  EXPECT_EQ(ctx.engine(), &shared);
  EXPECT_TRUE(ctx.execution_policy().is_parallel());

  Cluster a(cfg, &ledger, ctx.engine());
  Cluster b(cfg, &ledger, ctx.engine());
  EXPECT_EQ(&a.engine(), &shared);
  EXPECT_EQ(&b.engine(), &shared);
  a.run_round([](std::size_t m, const auto&, Sender& send) {
    send.send((m + 1) % 8, {m});
  });
  b.run_round([](std::size_t m, const auto&, Sender& send) {
    send.send((m + 7) % 8, {m});
  });
  EXPECT_EQ(a.inbox(1).front()[0], 0u);
  EXPECT_EQ(b.inbox(1).front()[0], 2u);
}

}  // namespace
}  // namespace arbor

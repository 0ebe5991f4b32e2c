// Unit tests for util: RNG determinism and splitting, stateless coins,
// hashing, statistics helpers, epoch marks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/env_knob.hpp"
#include "util/epoch_marks.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace arbor::util {
namespace {

TEST(Mix64, IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(42), mix64(42));
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) outputs.insert(mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);  // no collisions on consecutive keys
}

TEST(HashWords, OrderSensitive) {
  EXPECT_NE(hash_words(1, 2, 3), hash_words(1, 3, 2));
  EXPECT_EQ(hash_words(1, 2, 3), hash_words(1, 2, 3));
}

TEST(SplitRng, SameSeedSameStream) {
  SplitRng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitRng, DifferentSeedsDiffer) {
  SplitRng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(SplitRng, SplitIsIndependentOfParentConsumption) {
  SplitRng parent1(99);
  SplitRng child1 = parent1.split(5);
  const std::uint64_t first = child1.next();

  SplitRng parent2(99);
  SplitRng child2 = parent2.split(5);
  EXPECT_EQ(child2.next(), first);
}

TEST(SplitRng, NextBelowInRange) {
  SplitRng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(SplitRng, NextBelowZeroRejected) {
  SplitRng rng(3);
  EXPECT_THROW(rng.next_below(0), arbor::InvariantError);
}

TEST(SplitRng, NextBelowRoughlyUniform) {
  SplitRng rng(11);
  std::vector<int> buckets(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i)
    ++buckets[static_cast<std::size_t>(rng.next_below(10))];
  for (int count : buckets) {
    EXPECT_GT(count, draws / 10 - 600);
    EXPECT_LT(count, draws / 10 + 600);
  }
}

TEST(SplitRng, DoubleInUnitInterval) {
  SplitRng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SplitRng, ShufflePreservesMultiset) {
  SplitRng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(StatelessCoin, PureFunctionOfKey) {
  StatelessCoin coin(123);
  EXPECT_EQ(coin.word(1, 2, 3), coin.word(1, 2, 3));
  EXPECT_NE(coin.word(1, 2, 3), coin.word(1, 2, 4));
  // Call order must not matter.
  StatelessCoin coin2(123);
  const auto later = coin2.word(9, 9, 9);
  EXPECT_EQ(coin.word(9, 9, 9), later);
}

TEST(StatelessCoin, BelowInRangeAndPure) {
  StatelessCoin coin(55);
  for (std::uint64_t key = 0; key < 500; ++key) {
    const auto v = coin.below(7, key);
    EXPECT_LT(v, 7u);
    EXPECT_EQ(v, coin.below(7, key));
  }
}

TEST(StatelessCoin, BernoulliMatchesProbability) {
  StatelessCoin coin(77);
  int heads = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i)
    heads += coin.bernoulli(0.3, static_cast<std::uint64_t>(i));
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.3, 0.01);
}

TEST(EpochMarks, MarkBelowMarksOnlyInRangeSlotsOncePerEpoch) {
  EpochMarks marks;
  marks.grow_to(4);  // slots 0..2 plus the sink at 3
  marks.next_epoch();
  EXPECT_TRUE(marks.mark_below(1, 3));
  EXPECT_FALSE(marks.mark_below(1, 3));  // already marked this epoch
  EXPECT_FALSE(marks.mark_below(3, 3));  // out of range: the sink
  EXPECT_FALSE(marks.mark_below(0xffffffffu, 3));
  EXPECT_FALSE(marks.mark_below(3, 3));
  EXPECT_TRUE(marks.marked(1));
  EXPECT_FALSE(marks.marked(0));
  EXPECT_TRUE(marks.mark_below(0, 3));
  marks.next_epoch();
  EXPECT_TRUE(marks.mark_below(1, 3));  // a new epoch unmarks everything
  EXPECT_FALSE(marks.marked(0));
}

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_NEAR(acc.variance(), 1.25, 1e-12);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Summary, QuantilesOfKnownSample) {
  const Summary s = summarize({5, 1, 3, 2, 4});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
}

TEST(Summary, EmptySample) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.max, 0.0);
}

TEST(LinearSlope, RecoversLine) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{3, 5, 7, 9, 11};  // slope 2
  EXPECT_NEAR(linear_slope(x, y), 2.0, 1e-12);
}

TEST(LinearSlope, RejectsDegenerateInput) {
  EXPECT_THROW(linear_slope({1.0}, {2.0}), arbor::InvariantError);
  EXPECT_THROW(linear_slope({1.0, 1.0}, {2.0, 3.0}), arbor::InvariantError);
}

// -------------------------------------------------------- env knobs

/// Run `fn`, assert it throws an InvariantError whose message contains
/// every fragment — the shared strict-knob contract (env_knob.hpp).
template <typename Fn>
void expect_knob_rejected(Fn fn, std::initializer_list<const char*> parts) {
  try {
    fn();
    FAIL() << "expected an InvariantError";
  } catch (const arbor::InvariantError& e) {
    const std::string what = e.what();
    for (const char* part : parts)
      EXPECT_NE(what.find(part), std::string::npos)
          << "missing \"" << part << "\" in: " << what;
  }
}

TEST(EnvKnob, RejectShapeIsCanonical) {
  expect_knob_rejected(
      [] { reject_knob("ARBOR_THING", "bogus", "not a thing"); },
      {"ARBOR_THING=\"bogus\": not a thing"});
}

TEST(EnvKnob, BoolKnobAcceptsTheEightSpellings) {
  for (const char* yes : {"1", "on", "true", "yes"})
    EXPECT_TRUE(parse_bool_knob(yes, "ARBOR_X")) << yes;
  for (const char* no : {"0", "off", "false", "no"})
    EXPECT_FALSE(parse_bool_knob(no, "ARBOR_X")) << no;
  // Strict: no case folding, no trimming, typos rejected by name.
  for (const char* bad : {"ture", "ON", " 1", "2", ""})
    expect_knob_rejected([&] { parse_bool_knob(bad, "ARBOR_X"); },
                         {"ARBOR_X=\"", "not a boolean flag"});
}

TEST(EnvKnob, SplitKnobKeepsEmptyArgumentsVisible) {
  const KnobParts plain = split_knob("full");
  EXPECT_EQ(plain.head, "full");
  EXPECT_FALSE(plain.arg.has_value());

  const KnobParts with_arg = split_knob("tcp:4");
  EXPECT_EQ(with_arg.head, "tcp");
  ASSERT_TRUE(with_arg.arg.has_value());
  EXPECT_EQ(*with_arg.arg, "4");

  // Only the FIRST colon splits: paths keep theirs.
  const KnobParts path = split_knob("full:/tmp/a:b.json");
  EXPECT_EQ(path.head, "full");
  EXPECT_EQ(*path.arg, "/tmp/a:b.json");

  // A trailing colon is a present-but-empty argument, not absence.
  const KnobParts trailing = split_knob("tcp:");
  EXPECT_EQ(trailing.head, "tcp");
  ASSERT_TRUE(trailing.arg.has_value());
  EXPECT_TRUE(trailing.arg->empty());
}

TEST(EnvKnob, CountKnobValidatesRangeByItemName) {
  EXPECT_EQ(parse_count_knob("4", "worker count", 1, 64, "ARBOR_TRANSPORT",
                             "tcp:4"),
            4u);
  expect_knob_rejected(
      [] {
        parse_count_knob("", "worker count", 1, 64, "ARBOR_TRANSPORT", "tcp:");
      },
      {"ARBOR_TRANSPORT=\"tcp:\"", "worker count is empty"});
  expect_knob_rejected(
      [] {
        parse_count_knob("x4", "worker count", 1, 64, "ARBOR_TRANSPORT",
                         "tcp:x4");
      },
      {"worker count is not a number"});
  expect_knob_rejected(
      [] {
        parse_count_knob("0", "worker count", 1, 64, "ARBOR_TRANSPORT",
                         "tcp:0");
      },
      {"worker count must be >= 1"});
  expect_knob_rejected(
      [] {
        parse_count_knob("65", "worker count", 1, 64, "ARBOR_TRANSPORT",
                         "tcp:65");
      },
      {"worker count out of range"});
}

TEST(EnvKnob, EnvKnobTreatsUnsetAndEmptyAlike) {
  ::unsetenv("ARBOR_UTIL_TEST_KNOB");
  EXPECT_FALSE(env_knob("ARBOR_UTIL_TEST_KNOB").has_value());
  ::setenv("ARBOR_UTIL_TEST_KNOB", "", 1);
  EXPECT_FALSE(env_knob("ARBOR_UTIL_TEST_KNOB").has_value());
  ::setenv("ARBOR_UTIL_TEST_KNOB", "v", 1);
  const auto got = env_knob("ARBOR_UTIL_TEST_KNOB");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "v");
  ::unsetenv("ARBOR_UTIL_TEST_KNOB");
}

}  // namespace
}  // namespace arbor::util

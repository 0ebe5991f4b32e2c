// Level-1 MPC primitives: the dataflow operations the algorithms are
// written against, with analytic round/memory charging.
//
// Cost model (standard for S = n^δ, see [GSZ11], [ASS+18 §E], the Ghaffari
// MPA lecture notes cited by the paper):
//  * sorting N words                        — O(log_S N) = O(1/δ) rounds,
//  * broadcast / convergecast trees of
//    fan-out √S replicating k copies        — O(log_{√S} k) rounds,
//  * aggregate-by-key, prefix sums, joins   — O(1) sorts.
// Each operation charges the cluster-model cost to the RoundLedger,
// including the peak per-machine and global footprints implied by the data
// volumes. The Level-0 cluster tests in tests/level0_programs_test.cpp
// validate that these dataflows really fit the per-round traffic caps.
//
// Execution: by default the semantics run centrally (std::stable_sort — the
// reference path). With ClusterConfig::distributed_level1 set, the keyed
// sorts execute as real [GSZ11] splitter-tree sample sorts on an
// engine-backed Level-0 cluster (mpc/sample_sort.cpp), sharing one worker
// pool across every cluster a pipeline spawns via the lazily-owned Engine.
// The two paths are bit-identical in outputs AND ledger totals: the
// distributed run sorts (order-preserving key, original index) records — a
// total order equal to the stable sort — and keeps charging the same
// analytic costs on the primary ledger, while the internal cluster's real
// rounds are charged to the context's model-shaped grounding ledger
// (level1_sort_grounding(); see src/mpc/README.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "mpc/config.hpp"
#include "mpc/ledger.hpp"
#include "util/assert.hpp"

namespace arbor::mpc {

class Cluster;

class MpcContext {
 public:
  /// `engine` (optional, not owned) is the execution backend for any
  /// Level-0 clusters spawned while running under this context; pipelines
  /// and benches thread it through so `Cluster(cfg, ledger, ctx.engine())`
  /// shares one worker pool. Null means "built lazily from cfg.execution
  /// on first use" (ensure_engine), so a pipeline and all its
  /// sub-contexts still end up on one pool.
  MpcContext(ClusterConfig config, RoundLedger* ledger,
             engine::Engine* engine = nullptr);

  // Out of line (like the constructor): sort_pool_ holds Clusters,
  // forward-declared here.
  ~MpcContext();
  MpcContext(MpcContext&&) = delete;
  MpcContext& operator=(MpcContext&&) = delete;

  const ClusterConfig& config() const noexcept { return config_; }
  RoundLedger* ledger() const noexcept { return ledger_; }
  engine::Engine* engine() const noexcept { return engine_; }

  /// The shared execution engine, constructing (and then owning) one from
  /// config().execution if none was injected. Pipelines pass this into
  /// sub-contexts and Level-0 clusters so one worker pool serves the whole
  /// run.
  engine::Engine* ensure_engine();

  /// Execution ledger of every internal Level-1 sort this context ran
  /// (distributed path only): real rounds under the splitter-tree step
  /// labels (sample_sort.tree.up/.pick/.down/.route/.sort), per-label
  /// traffic peaks, and violations counted against the MODEL's S — the
  /// internal sorts are charged here rather than exempted. Kept separate
  /// from the primary ledger because the primary charge is the analytic
  /// model cost, bit-identical to the central path (which executes no
  /// internal rounds at all); this ledger is the grounding that the
  /// executed dataflow honours the same budgets. Lazily built; never null.
  RoundLedger* level1_sort_grounding();

  /// Policy Level-0 clusters under this context should execute with.
  ExecutionPolicy execution_policy() const noexcept {
    return engine_ ? engine_->policy() : config_.execution;
  }

  /// Rounds to sort N words with S-word machines: ⌈log_S N⌉, at least 1.
  /// Computed by integer powering — the float log ratio drifts at exact
  /// powers of S (N = S² must charge exactly 2, never 3) and ceil() then
  /// amplifies an ulp of error into a whole extra round.
  std::size_t sort_rounds(std::size_t total_words) const {
    if (total_words <= 1) return 1;
    const std::size_t s = std::max<std::size_t>(config_.words_per_machine, 2);
    std::size_t rounds = 1;
    std::size_t reach = s;  // s^rounds, saturating
    while (reach < total_words) {
      ++rounds;
      if (reach > std::numeric_limits<std::size_t>::max() / s) break;
      reach *= s;
    }
    return rounds;
  }

  /// Rounds for a fan-out-√S broadcast tree producing `copies` replicas:
  /// the smallest r with √S'^r ≥ copies, i.e. S'^r ≥ copies², where
  /// S' = max(S, 4) keeps the fan-out at least 2. Integer powering like
  /// sort_rounds: a floating-point log ratio overcharges by one round at
  /// exact powers of the fan-out. copies² is exact in 128 bits, and once
  /// the power would pass 2^128 it already exceeds it.
  std::size_t broadcast_rounds(std::size_t copies) const {
    if (copies <= 1) return 1;
    using Wide = unsigned __int128;
    const Wide s = std::max<std::size_t>(config_.words_per_machine, 4);
    const Wide target = static_cast<Wide>(copies) * copies;
    std::size_t rounds = 1;
    Wide reach = s;  // S'^rounds, saturating
    while (reach < target) {
      ++rounds;
      if (reach > ~Wide{0} / s) break;
      reach *= s;
    }
    return rounds;
  }

  void charge(std::size_t rounds, const std::string& label) {
    if (ledger_) ledger_->charge(rounds, label);
  }

  void note_local_words(std::size_t words) {
    if (ledger_) ledger_->note_local_words(words);
  }

  void note_global_words(std::size_t words) {
    if (ledger_) ledger_->note_global_words(words);
  }

  /// Record the footprint of a balanced distribution of `total_words` over
  /// the cluster (the state left behind by a shuffle).
  void note_balanced(std::size_t total_words) {
    note_global_words(total_words);
    note_local_words(div_ceil(total_words, config_.num_machines));
  }

  /// Order-preserving Word encoding of an integral key: k1 < k2 iff
  /// word_key(k1) < word_key(k2). Signed keys are biased into unsigned
  /// range; unsigned keys pass through.
  template <typename K>
  static Word word_key(K key) {
    static_assert(std::is_integral_v<K> && sizeof(K) <= sizeof(Word),
                  "keys must be integral and at most one word wide");
    if constexpr (std::is_signed_v<K>)
      return static_cast<Word>(static_cast<std::int64_t>(key)) ^
             (Word{1} << 63);
    else
      return static_cast<Word>(key);
  }

  /// Distributed sort by an extracted word key: charges ⌈log_S(N·w)⌉
  /// rounds and notes footprints, then reorders `items` exactly as
  /// std::stable_sort comparing key_of(a) < key_of(b) would. With
  /// config().distributed_level1 the permutation is computed by a real
  /// engine-backed sample sort of (key, index) records on a Level-0
  /// cluster sharing ensure_engine(); otherwise centrally. Bit-identical
  /// either way.
  template <typename T, typename KeyFn>
  void sort_items_by_key(std::vector<T>& items, KeyFn key_of,
                         std::size_t words_per_item,
                         const std::string& label) {
    static_assert(
        std::is_same_v<std::invoke_result_t<KeyFn, const T&>, Word>,
        "KeyFn must return Word — encode signed or narrow keys with "
        "MpcContext::word_key so both execution paths compare identically");
    const std::size_t total = items.size() * words_per_item;
    charge(sort_rounds(total), label);
    note_balanced(total);
    if (config_.distributed_level1 && items.size() > 1) {
      std::vector<Word> keys;
      keys.reserve(items.size());
      for (const T& item : items) keys.push_back(key_of(item));
      const std::vector<std::size_t> order = distributed_sorted_order(keys);
      std::vector<T> sorted;
      sorted.reserve(items.size());
      for (const std::size_t idx : order)
        sorted.push_back(std::move(items[idx]));
      items = std::move(sorted);
    } else {
      std::stable_sort(items.begin(), items.end(),
                       [&key_of](const T& a, const T& b) {
                         return key_of(a) < key_of(b);
                       });
    }
  }

  /// Aggregate values by key with an associative combiner; one keyed
  /// (distributable) sort + local scan. Returns (key, combined) pairs
  /// sorted by key.
  template <typename K, typename V, typename Combine>
  std::vector<std::pair<K, V>> aggregate_by_key(
      std::vector<std::pair<K, V>> items, Combine combine,
      std::size_t words_per_item, const std::string& label) {
    static_assert(std::is_integral_v<K> && sizeof(K) <= sizeof(Word),
                  "aggregate_by_key: keys must be integral and at most one "
                  "word wide");
    sort_items_by_key(
        items, [](const std::pair<K, V>& kv) { return word_key(kv.first); },
        words_per_item, label);
    std::vector<std::pair<K, V>> out;
    out.reserve(items.size());
    for (auto& kv : items) {
      if (!out.empty() && out.back().first == kv.first)
        out.back().second = combine(out.back().second, kv.second);
      else
        out.push_back(std::move(kv));
    }
    return out;
  }

  /// Count occurrences per key; one sort + scan.
  template <typename K>
  std::vector<std::pair<K, std::size_t>> count_by_key(
      std::vector<K> keys, const std::string& label) {
    std::vector<std::pair<K, std::size_t>> pairs;
    pairs.reserve(keys.size());
    for (auto& k : keys) pairs.emplace_back(std::move(k), std::size_t{1});
    return aggregate_by_key<K, std::size_t>(
        std::move(pairs),
        [](std::size_t a, std::size_t b) { return a + b; }, 2, label);
  }

  static std::size_t div_ceil(std::size_t a, std::size_t b) {
    ARBOR_CHECK_MSG(b != 0, "div_ceil by zero — misconfigured cluster");
    return (a + b - 1) / b;
  }

 private:
  /// Stable-sort permutation of `keys` (n > 1) computed by an engine-backed
  /// distributed record sort: order[i] is the original index of the i-th
  /// smallest key, equal keys in original order — exactly the permutation
  /// std::stable_sort applies. The sort runs as a splitter-tree sample
  /// sort on an internal cluster sized by the model's S; every executed
  /// round is charged to level1_sort_grounding(). Internal sort clusters
  /// are pooled, keyed by (machines, words_per_machine) and kept alive
  /// across sorts, so repeated same-shape sorts reuse the RoundState
  /// arenas and the slab arenas at retained capacity — and, over the
  /// loopback/tcp transport, the live worker group — instead of
  /// reallocating (respawning) per sort. Each reuse bumps the
  /// engine.arena_reuse_hits metric when metrics are on. Defined in
  /// primitives.cpp.
  std::vector<std::size_t> distributed_sorted_order(
      const std::vector<Word>& keys);

  /// One pooled internal sort cluster (see distributed_sorted_order).
  /// `slabs` holds the previous sort's result slabs once the permutation
  /// has been read off them; the next sort clears and refills them as its
  /// input slabs at their retained capacity, instead of allocating one
  /// fresh arena per machine.
  struct SortClusterSlot {
    std::size_t machines;
    std::size_t words_per_machine;
    std::unique_ptr<Cluster> cluster;
    std::vector<std::vector<Word>> slabs;
  };

  ClusterConfig config_;
  RoundLedger* ledger_;
  engine::Engine* engine_ = nullptr;  // external, or owned_engine_.get()
  // Lazily built by ensure_engine(); handed out as a raw pointer, so the
  // owning context must outlive every sub-context and cluster using it
  // (pipelines satisfy this by construction: sub-contexts are locals
  // inside the owner's scope).
  std::unique_ptr<engine::Engine> owned_engine_;
  // Lazily built by level1_sort_grounding().
  std::unique_ptr<RoundLedger> grounding_ledger_;
  // Declared last: pooled clusters may reference owned_engine_, so they
  // must be destroyed before it.
  std::vector<SortClusterSlot> sort_pool_;
};

}  // namespace arbor::mpc

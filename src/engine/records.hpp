// Fixed-width record utilities for the engine's flat word arenas.
//
// A "record" is `width` consecutive Words inside a flat arena; the first
// `key_words` of them form the sort key, compared lexicographically (word 0
// most significant). This is the wire format the Level-1 record sort
// (mpc/sample_sort.cpp) and its benches move multi-word payloads through:
// arenas of whole records travel as ordinary messages, so the routing and
// delivery phases never need to know the width — only the endpoints do.
// The helpers live here, next to the arenas the records travel through;
// engine/ still depends only on util/.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "engine/inbox.hpp"
#include "engine/outbox.hpp"
#include "engine/types.hpp"
#include "util/assert.hpp"

namespace arbor::engine {

/// Number of whole records in an arena of `arena_words` words; rejects
/// arenas that are not a whole number of records.
inline std::size_t record_count(std::size_t arena_words, std::size_t width) {
  ARBOR_CHECK(width > 0);
  ARBOR_CHECK_MSG(arena_words % width == 0,
                  "arena is not a whole number of records");
  return arena_words / width;
}

/// Lexicographic three-way compare of two keys of `key_words` words.
inline int compare_keys(const Word* a, const Word* b,
                        std::size_t key_words) {
  for (std::size_t i = 0; i < key_words; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

namespace radix_detail {

/// LSD radix sort of `n` whole-key records of `width` words (see
/// stable_sort_records). Words are visited last to first; for each, one
/// OR-of-XOR pass against the first record finds the bits that vary, and
/// each byte holding such a bit then gets one stable counting pass, low
/// byte to high. Bytes that never vary cost nothing. (Which bits vary is
/// a property of the word's multiset of values, so the passes over later
/// words, which only permute records, cannot change it.) The passes
/// ping-pong between the arena and `scratch`, resized to the arena's
/// size, copying back only after an odd number of passes. `kFixedWidth`
/// (when non-zero) compiles the hot shapes to unrolled record copies; the
/// caller must pass the same value as `width`.
template <std::size_t kFixedWidth>
inline void radix_sort_whole_keys(std::vector<Word>& arena, std::size_t n,
                                  std::size_t width,
                                  std::vector<Word>& scratch) {
  const std::size_t w = kFixedWidth != 0 ? kFixedWidth : width;
  scratch.resize(arena.size());
  Word* src = arena.data();
  Word* dst = scratch.data();
  std::uint32_t count[256];
  for (std::size_t j = w; j-- > 0;) {
    Word varying = 0;
    for (std::size_t i = 1; i < n; ++i) varying |= src[i * w + j] ^ src[j];
    for (unsigned shift = 0; shift < 64; shift += 8) {
      if (((varying >> shift) & 0xff) == 0) continue;
      std::fill_n(count, 256, 0u);
      for (std::size_t i = 0; i < n; ++i)
        ++count[(src[i * w + j] >> shift) & 0xff];
      std::uint32_t sum = 0;
      for (std::uint32_t& c : count) {
        const std::uint32_t bucket = c;
        c = sum;
        sum += bucket;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const Word* rec = src + i * w;
        Word* out = dst + std::size_t{count[(rec[j] >> shift) & 0xff]++} * w;
        if constexpr (kFixedWidth != 0) {
          for (std::size_t k = 0; k < kFixedWidth; ++k) out[k] = rec[k];
        } else {
          std::copy_n(rec, w, out);
        }
      }
      std::swap(src, dst);
    }
  }
  if (src != arena.data()) std::copy_n(src, arena.size(), arena.data());
}

}  // namespace radix_detail

/// Stable in-place sort of the records in `arena` by their key prefix.
///
/// Whole-key records (`key_words == width`: single words, and the Level-1
/// `(key, index)` pairs) take an LSD radix sort over the bytes that vary.
/// Equal whole keys are identical records, so its output is exactly
/// std::sort's, and it is stable by construction. Partial keys
/// sort a permutation with std::stable_sort and gather once, so records
/// move exactly one time regardless of width.
inline void stable_sort_records(std::vector<Word>& arena, std::size_t width,
                                std::size_t key_words) {
  ARBOR_CHECK(key_words > 0 && key_words <= width);
  const std::size_t n = record_count(arena.size(), width);
  if (n <= 1) return;
  ARBOR_CHECK_MSG(n <= UINT32_MAX,
                  "record count exceeds the 32-bit permutation index");
  if (key_words == width) {
    // One scratch arena per thread, sized to the largest arena sorted on
    // it: a wide cluster sorts once per simulated machine per round, tens
    // of thousands of ~125-record sorts that would otherwise each pay an
    // allocation.
    static thread_local std::vector<Word> scratch;
    if (width == 2)
      radix_detail::radix_sort_whole_keys<2>(arena, n, 2, scratch);
    else
      radix_detail::radix_sort_whole_keys<0>(arena, n, width, scratch);
    return;
  }
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t lhs, std::uint32_t rhs) {
                     return compare_keys(arena.data() + lhs * width,
                                         arena.data() + rhs * width,
                                         key_words) < 0;
                   });
  std::vector<Word> sorted(arena.size());
  for (std::size_t i = 0; i < n; ++i)
    std::copy_n(arena.data() + order[i] * width, width,
                sorted.data() + i * width);
  arena.swap(sorted);
}

/// First index in [lo, hi) satisfying the monotone predicate (false…true);
/// hi when none does. Galloping doubles the probe gap from `lo` before the
/// final binary search, so the cost is O(log distance-from-lo) rather than
/// O(log (hi − lo)) — one comparison total when the answer IS `lo`.
template <typename Pred>
inline std::size_t gallop_lower(std::size_t lo, std::size_t hi, Pred pred) {
  std::size_t step = 1;
  while (lo < hi) {
    std::size_t probe = lo + step - 1;
    if (probe >= hi) probe = hi - 1;
    if (pred(probe)) {
      hi = probe;  // answer is in [lo, probe]
      break;
    }
    lo = probe + 1;
    step *= 2;
  }
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (pred(mid))
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

namespace merge_detail {

/// Stable two-way merge of sorted record runs: `a` is the earlier-source
/// run, so ties take from `a` (`cmp(b, a) < 0` is the only case that takes
/// from `b`). Writes exactly the combined word count at `out` and returns
/// the write head one past it. `kFixedWidth` (when non-zero) lets hot
/// record shapes compile to an unrolled copy instead of a runtime-width
/// loop — the caller must pass the same value as `width`.
template <std::size_t kFixedWidth, typename Cmp>
inline Word* merge_two_runs(const Word* a, const Word* a_end, const Word* b,
                            const Word* b_end, std::size_t width, Cmp cmp,
                            Word* out) {
  const std::size_t w = kFixedWidth != 0 ? kFixedWidth : width;
  while (a != a_end && b != b_end) {
    const bool take_b = cmp(b, a) < 0;
    const Word* s = take_b ? b : a;
    if constexpr (kFixedWidth != 0) {
      for (std::size_t i = 0; i < kFixedWidth; ++i) out[i] = s[i];
    } else {
      for (std::size_t i = 0; i < w; ++i) out[i] = s[i];
    }
    out += w;
    (take_b ? b : a) += w;
  }
  out = std::copy(a, a_end, out);
  return std::copy(b, b_end, out);
}

/// Bottom-up cascade of stable two-way merges: adjacent runs pair up
/// level by level (⌈log₂ k⌉ levels), ping-ponging between two scratch
/// buffers, with the final level writing straight into `out` (which the
/// caller has already reserved — no reallocation races with the scratch
/// reads). Pairing ADJACENT runs keeps the left operand the earlier
/// source at every level, so tie-to-`a` two-way merges compose into the
/// global earliest-run tie-break — bit-identical to std::stable_sort of
/// the concatenation. Each record moves once per level through tight
/// sequential loops; against the alternative heap-of-cursors this trades
/// 2·log k indirect comparator calls per record for log k direct ones,
/// which is what lets the merge beat a re-sort at the pipeline's shapes.
/// Requires `count >= 2` non-empty runs totalling `total` words.
template <typename MergeTwo>
inline void merge_runs_cascade(const std::span<const Word>* runs,
                               std::size_t count, std::size_t total,
                               MergeTwo merge_two, std::vector<Word>& out) {
  const std::size_t base = out.size();
  if (count == 2) {
    out.resize(base + total);
    merge_two(runs[0].data(), runs[0].data() + runs[0].size(),
              runs[1].data(), runs[1].data() + runs[1].size(),
              out.data() + base);
    return;
  }
  static thread_local std::vector<Word> ping, pong;
  static thread_local std::vector<std::size_t> cuts, next_cuts;
  ping.resize(total);
  cuts.clear();
  Word* w = ping.data();
  for (std::size_t i = 0; i + 1 < count; i += 2) {
    cuts.push_back(static_cast<std::size_t>(w - ping.data()));
    w = merge_two(runs[i].data(), runs[i].data() + runs[i].size(),
                  runs[i + 1].data(), runs[i + 1].data() + runs[i + 1].size(),
                  w);
  }
  if (count % 2 != 0) {
    cuts.push_back(static_cast<std::size_t>(w - ping.data()));
    w = std::copy(runs[count - 1].data(),
                  runs[count - 1].data() + runs[count - 1].size(), w);
  }
  cuts.push_back(total);
  while (cuts.size() - 1 > 2) {
    const std::size_t n = cuts.size() - 1;
    pong.resize(total);
    next_cuts.clear();
    Word* d = pong.data();
    for (std::size_t i = 0; i + 1 < n; i += 2) {
      next_cuts.push_back(static_cast<std::size_t>(d - pong.data()));
      d = merge_two(ping.data() + cuts[i], ping.data() + cuts[i + 1],
                    ping.data() + cuts[i + 1], ping.data() + cuts[i + 2], d);
    }
    if (n % 2 != 0) {
      next_cuts.push_back(static_cast<std::size_t>(d - pong.data()));
      d = std::copy(ping.data() + cuts[n - 1], ping.data() + cuts[n], d);
    }
    next_cuts.push_back(total);
    ping.swap(pong);
    cuts.swap(next_cuts);
  }
  out.resize(base + total);
  merge_two(ping.data() + cuts[0], ping.data() + cuts[1],
            ping.data() + cuts[1], ping.data() + cuts[2], out.data() + base);
}

}  // namespace merge_detail

/// Stable k-way merge of key-sorted record runs, appended to `out`. Ties
/// across runs resolve to the EARLIEST run (and records keep their order
/// within a run), so the result is bit-identical to std::stable_sort of
/// the runs' concatenation in run order: inbox delivery order (source
/// machine ascending, send order within a source) is the run order, so the
/// sort pipeline's merges are deterministic in every mode. Empty runs and empty run lists are fine; each run must be a whole
/// number of records and key-sorted.
inline void merge_sorted_runs(std::span<const std::span<const Word>> runs,
                              std::size_t width, std::size_t key_words,
                              std::vector<Word>& out) {
  ARBOR_CHECK(key_words > 0 && key_words <= width);
  static thread_local std::vector<std::span<const Word>> live;
  live.clear();
  std::size_t total = 0;
  for (const std::span<const Word>& run : runs) {
    if (record_count(run.size(), width) == 0) continue;
    live.push_back(run);
    total += run.size();
  }
  out.reserve(out.size() + total);
  if (live.empty()) return;
  if (live.size() == 1) {
    out.insert(out.end(), live[0].begin(), live[0].end());
    return;
  }
  if (total < 4 * width * live.size()) {
    // Adaptive cutoff: runs average under four records, so there is no
    // sorted structure worth exploiting — a merge would pay its ⌈log₂ k⌉
    // levels to discover what a sort finds directly. Concatenate in run
    // order and stable-sort, which is the merge's own specification
    // (earliest-run tie-break == concatenation order under a stable
    // sort), so the output is bit-identical either way. Whole-key runs
    // (every hot caller's) take stable_sort_records' radix kernel.
    static thread_local std::vector<Word> pooled;
    std::vector<Word>& dst = out.empty() ? out : pooled;
    dst.clear();
    dst.reserve(total);
    for (const std::span<const Word>& run : live)
      dst.insert(dst.end(), run.begin(), run.end());
    stable_sort_records(dst, width, key_words);
    if (&dst != &out) out.insert(out.end(), dst.begin(), dst.end());
    return;
  }
  if (width == 2 && key_words == 2) {
    // The Level-1 record shape (two-word whole keys): unrolled copies
    // and an inline two-word compare, so the merge stays ahead of a
    // re-sort on runs long enough to skip the cutoff above.
    merge_detail::merge_runs_cascade(
        live.data(), live.size(), total,
        [](const Word* a, const Word* a_end, const Word* b,
           const Word* b_end, Word* d) {
          return merge_detail::merge_two_runs<2>(
              a, a_end, b, b_end, 2,
              [](const Word* x, const Word* y) {
                if (x[0] != y[0]) return x[0] < y[0] ? -1 : 1;
                return x[1] < y[1] ? -1 : (x[1] > y[1] ? 1 : 0);
              },
              d);
        },
        out);
    return;
  }
  merge_detail::merge_runs_cascade(
      live.data(), live.size(), total,
      [width, key_words](const Word* a, const Word* a_end, const Word* b,
                         const Word* b_end, Word* d) {
        return merge_detail::merge_two_runs<0>(
            a, a_end, b, b_end, width,
            [key_words](const Word* x, const Word* y) {
              return compare_keys(x, y, key_words);
            },
            d);
      },
      out);
}

/// Merge a machine's inbox — every message a key-sorted run — into `out`.
/// Message order is delivery order (source ascending, send order), so the
/// result equals stable-sorting the concatenated inbox.
inline void merge_sorted_inbox(const InboxView& inbox, std::size_t width,
                               std::size_t key_words, std::vector<Word>& out) {
  const std::size_t total = inbox.total_words();
  if (out.empty() && total < 4 * width * inbox.size()) {
    // The inbox's runs average under four records (the bucket-placement
    // shape: one tiny span per sender) — merge_sorted_runs would take its
    // adaptive concat-and-sort cutoff anyway, so gather straight from the
    // messages and skip building the span list twice.
    out.reserve(total);
    for (std::size_t i = 0; i < inbox.size(); ++i) {
      const std::span<const Word> span = inbox[i].span();
      out.insert(out.end(), span.begin(), span.end());
    }
    stable_sort_records(out, width, key_words);
    return;
  }
  static thread_local std::vector<std::span<const Word>> runs;
  runs.clear();
  runs.reserve(inbox.size());
  for (std::size_t i = 0; i < inbox.size(); ++i)
    runs.push_back(inbox[i].span());
  merge_sorted_runs(runs, width, key_words, out);
}

/// Walk a key-sorted record slab bucket by bucket, invoking
/// `fn(bucket, span)` once per NON-EMPTY bucket in ascending bucket order
/// (bucket of a record = count of splitters ≤ its key, like
/// std::upper_bound; records keep slab order inside a bucket). Walks the
/// slab span by span instead of computing all k+2 fenceposts, and both
/// searches gallop from the position the previous span established: a
/// one-record slab whose bucket continues where the last span left off
/// (the fine route of a wide cluster handles many such fragments) costs
/// O(1) comparisons, not O(k) and not even O(log k), even when slabs are
/// far smaller than the bucket count.
template <typename SpanFn>
inline void for_each_bucket_span(std::span<const Word> slab, std::size_t width,
                                 std::size_t key_words,
                                 std::span<const Word> splitters, SpanFn&& fn) {
  ARBOR_CHECK(key_words > 0 && key_words <= width);
  const std::size_t n = record_count(slab.size(), width);
  const std::size_t k = record_count(splitters.size(), key_words);
  std::size_t i = 0;
  std::size_t b = 0;  // lowest candidate bucket for record i
  while (i < n) {
    const Word* key = slab.data() + i * width;
    // Bucket of record i = count of splitters ≤ its key; every splitter
    // below b is already known to be ≤, so search only [b, k) — and the
    // bucket is usually b itself or close to it, which the gallop turns
    // into a comparison or two.
    b = gallop_lower(b, k, [&](std::size_t s) {
      return compare_keys(splitters.data() + s * key_words, key, key_words) >
             0;
    });
    // End of bucket b's span: first record with key ≥ splitter b. Spans
    // are short when buckets outnumber records, so gallop from i + 1.
    std::size_t j = n;
    if (b < k) {
      const Word* split = splitters.data() + b * key_words;
      j = gallop_lower(i + 1, n, [&](std::size_t r) {
        return compare_keys(slab.data() + r * width, split, key_words) >= 0;
      });
    }
    fn(b, slab.subspan(i * width, (j - i) * width));
    i = j;
    // Record j (if any) has key ≥ splitter b, so its bucket is at least
    // b + 1 — the next search never revisits this bucket.
    ++b;
  }
}

/// Bulk route of a key-sorted record slab: emit each non-empty bucket as
/// ONE contiguous message to `dst_of(bucket)`. Records keep slab order
/// inside a bucket, buckets are emitted in ascending index order, and
/// empty buckets send nothing. Records move exactly once, slab → outbox
/// arena.
template <typename DstFn>
inline void send_records(Sender& send, std::span<const Word> slab,
                         std::size_t width, std::size_t key_words,
                         std::span<const Word> splitters, DstFn&& dst_of) {
  for_each_bucket_span(slab, width, key_words, splitters,
                       [&send, &dst_of](std::size_t b,
                                        std::span<const Word> span) {
                         send.send(dst_of(b), span);
                       });
}

/// Evenly-spaced sample of at most `max_samples` key prefixes from a
/// key-sorted record arena. The sample count is clamped to the record
/// count, so every sampled index is distinct — small slabs contribute each
/// key at most once instead of repeating their first records.
inline std::vector<Word> sample_record_keys(const std::vector<Word>& arena,
                                            std::size_t width,
                                            std::size_t key_words,
                                            std::size_t max_samples) {
  ARBOR_CHECK(key_words > 0 && key_words <= width);
  const std::size_t n = record_count(arena.size(), width);
  const std::size_t samples = std::min(max_samples, n);
  std::vector<Word> out;
  out.reserve(samples * key_words);
  for (std::size_t i = 0; i < samples; ++i) {
    const std::size_t idx = i * n / samples;  // strictly increasing: s ≤ n
    const Word* key = arena.data() + idx * width;
    out.insert(out.end(), key, key + key_words);
  }
  return out;
}

}  // namespace arbor::engine

#include "local/list_coloring.hpp"

#include "util/assert.hpp"
#include "util/epoch_marks.hpp"

namespace arbor::local {

namespace {
constexpr graph::Color kUncolored = 0xffffffffu;
}

ListColoringResult list_color(const ConflictView& conflicts,
                              std::span<const std::uint64_t> vertex_keys,
                              const RangePalettes& palettes,
                              const util::StatelessCoin& coin,
                              std::uint64_t phase_tag,
                              std::size_t max_rounds) {
  const auto& offsets = conflicts.offsets;
  const auto& targets = conflicts.targets;
  const auto& excl_offsets = palettes.exclusion_offsets;
  const auto& exclusions = palettes.exclusions;
  ARBOR_CHECK(!offsets.empty());
  const std::size_t n = offsets.size() - 1;
  const graph::Color base = palettes.base;
  const std::size_t count = palettes.count;
  ARBOR_CHECK(offsets[0] == 0 && offsets[n] == targets.size());
  ARBOR_CHECK(vertex_keys.size() == n);
  // The range stays clear of the kUncolored sentinel.
  ARBOR_CHECK(count <= kUncolored - base);
  ARBOR_CHECK(excl_offsets.size() == n + 1 && excl_offsets[0] == 0 &&
              excl_offsets[n] == exclusions.size());
  for (graph::VertexId w : targets) ARBOR_CHECK(w < n);

  // marks[c - base]: colour c is unavailable to the current proposer.
  util::EpochMarks marks;
  marks.grow_to(count);
  // Marks v's in-range exclusions; returns how many distinct ones.
  const auto mark_exclusions = [&](graph::VertexId v) {
    std::size_t marked = 0;
    for (std::size_t e = excl_offsets[v]; e < excl_offsets[v + 1]; ++e) {
      // A colour below base wraps past count; colours outside the range
      // cannot shrink it.
      const graph::Color offset = exclusions[e] - base;
      if (offset < count && marks.mark(offset)) ++marked;
    }
    return marked;
  };
  for (graph::VertexId v = 0; v < n; ++v) {
    ARBOR_CHECK(offsets[v] <= offsets[v + 1] &&
                excl_offsets[v] <= excl_offsets[v + 1]);
    marks.next_epoch();
    const std::size_t palette_size = count - mark_exclusions(v);
    ARBOR_CHECK_MSG(palette_size >= offsets[v + 1] - offsets[v] + 1,
                    "list coloring needs |palette| >= degree+1");
  }

  ListColoringResult result;
  result.colors.assign(n, kUncolored);
  std::size_t uncolored = n;

  std::vector<graph::Color> proposal(n, kUncolored);

  for (std::size_t round = 1; round <= max_rounds && uncolored > 0; ++round) {
    result.rounds = round;
    // Propose the pick-th available colour in ascending order, where the
    // available colours are the palette minus the neighbours' committed
    // colours: a deterministic function of the palette and the committed
    // colours, whatever order either is listed in, so cone replays agree.
    for (graph::VertexId v = 0; v < n; ++v) {
      proposal[v] = kUncolored;
      if (result.colors[v] != kUncolored) continue;
      marks.next_epoch();
      std::size_t marked = mark_exclusions(v);
      for (std::size_t e = offsets[v]; e < offsets[v + 1]; ++e) {
        const graph::Color offset = result.colors[targets[e]] - base;
        if (offset < count && marks.mark(offset)) ++marked;
      }
      ARBOR_CHECK_MSG(marked < count,
                      "palette exhausted — degree+1 precondition violated");
      auto pick = static_cast<std::size_t>(
          coin.below(count - marked, phase_tag, vertex_keys[v], round));
      graph::Color offset = 0;
      for (;; ++offset) {
        if (marks.marked(offset)) continue;
        if (pick == 0) break;
        --pick;
      }
      proposal[v] = base + offset;
    }
    // Commit unless a neighbor proposed the same color this round. The
    // check reads only the proposal array (round-start state), never the
    // colors committed earlier in this same loop — synchronous semantics.
    // proposal[w] != kUncolored exactly for the vertices that were
    // uncolored at round start, so equality of proposals is the full test.
    for (graph::VertexId v = 0; v < n; ++v) {
      if (proposal[v] == kUncolored) continue;
      bool conflict = false;
      for (std::size_t e = offsets[v]; e < offsets[v + 1]; ++e) {
        if (proposal[targets[e]] == proposal[v]) {
          conflict = true;
          break;
        }
      }
      if (!conflict) {
        result.colors[v] = proposal[v];
        --uncolored;
      }
    }
  }

  result.complete = (uncolored == 0);
  return result;
}

}  // namespace arbor::local

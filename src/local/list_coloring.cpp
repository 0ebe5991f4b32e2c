#include "local/list_coloring.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace arbor::local {

namespace {

constexpr graph::Color kUncolored = 0xffffffffu;

constexpr std::uint64_t kEveryByte = 0x0101010101010101u;

/// Ones in each byte of x (the first steps of the broadword popcount, kept
/// inline: std::popcount calls libgcc on a baseline x86-64 build).
constexpr std::uint64_t byte_ones(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555u;
  x = (x & 0x3333333333333333u) + ((x >> 2) & 0x3333333333333333u);
  return (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fu;
}

constexpr std::size_t ones(std::uint64_t x) {
  return static_cast<std::size_t>((byte_ones(x) * kEveryByte) >> 56);
}

/// Ones in the mask `words[0 .. count)`.
std::size_t ones(const std::uint64_t* words, std::size_t count) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < count; ++i) total += ones(words[i]);
  return total;
}

/// Offset of the pick-th set bit (from 0, ascending) of the mask `words`;
/// the mask has more than pick set bits. Within the word, byte prefix sums
/// find the byte, then at most seven lowest bits are cleared.
std::size_t select_bit(const std::uint64_t* words, std::size_t pick) {
  std::size_t w = 0;
  for (;; ++w) {
    const std::size_t in_word = ones(words[w]);
    if (pick < in_word) break;
    pick -= in_word;
  }
  const std::uint64_t x = words[w];
  // Byte i of `through`: ones in bytes 0..i, at most 64. Byte i of
  // `passed` has its top bit set iff that count is ≤ pick (no byte
  // borrows: 0x80 + pick exceeds every count), and the bytes so marked
  // are exactly those before the one holding the bit.
  const std::uint64_t through = byte_ones(x) * kEveryByte;
  const std::uint64_t passed =
      ((pick * kEveryByte | 0x8080808080808080u) - through) &
      0x8080808080808080u;
  const auto shift =
      static_cast<unsigned>(8 * (((passed >> 7) * kEveryByte) >> 56));
  pick -= ((through << 8) >> shift) & 0xff;
  std::uint64_t bits = (x >> shift) & 0xff;
  for (; pick > 0; --pick) bits &= bits - 1;
  return 64 * w + shift + static_cast<std::size_t>(std::countr_zero(bits));
}

}  // namespace

ListColoringRun list_color(const ConflictView& conflicts,
                           std::span<const std::uint64_t> vertex_keys,
                           const RangePalettes& palettes,
                           const util::StatelessCoin& coin,
                           std::uint64_t phase_tag, std::size_t max_rounds,
                           ListColoringScratch& scratch,
                           std::span<graph::Color> colors) {
  const auto& offsets = conflicts.offsets;
  const auto& targets = conflicts.targets;
  const auto& excl_offsets = palettes.exclusion_offsets;
  const auto& exclusions = palettes.exclusions;
  ARBOR_CHECK(!offsets.empty());
  const std::size_t n = offsets.size() - 1;
  const graph::Color base = palettes.base;
  const std::size_t count = palettes.count;
  ARBOR_CHECK(offsets[0] == 0 && offsets[n] == targets.size());
  ARBOR_CHECK(vertex_keys.size() == n && colors.size() == n);
  // The range stays clear of the kUncolored sentinel.
  ARBOR_CHECK(count <= kUncolored - base);
  ARBOR_CHECK(excl_offsets.size() == n + 1 && excl_offsets[0] == 0 &&
              excl_offsets[n] == exclusions.size());
  for (graph::VertexId w : targets) ARBOR_CHECK(w < n);

  // masks[v·words ..]: bit o set while colour base + o is still open to v.
  const std::size_t words = (count + 63) / 64;
  const std::uint64_t last_word =
      count % 64 == 0 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << (count % 64)) - 1;
  if (scratch.masks.size() < n * words) scratch.masks.resize(n * words);
  std::uint64_t* const masks = scratch.masks.data();
  for (graph::VertexId v = 0; v < n; ++v) {
    ARBOR_CHECK(offsets[v] <= offsets[v + 1] &&
                excl_offsets[v] <= excl_offsets[v + 1]);
    std::uint64_t* const mask = masks + v * words;
    std::fill(mask, mask + words, ~std::uint64_t{0});
    if (words != 0) mask[words - 1] = last_word;
    for (std::size_t e = excl_offsets[v]; e < excl_offsets[v + 1]; ++e) {
      // A colour below base wraps past count; colours outside the range
      // cannot shrink it, and repeats clear a bit already clear.
      const graph::Color offset = exclusions[e] - base;
      if (offset < count)
        mask[offset / 64] &= ~(std::uint64_t{1} << (offset % 64));
    }
    const std::size_t palette_size = ones(mask, words);
    ARBOR_CHECK_MSG(palette_size >= offsets[v + 1] - offsets[v] + 1,
                    "list coloring needs |palette| >= degree+1");
  }

  std::fill(colors.begin(), colors.end(), kUncolored);
  std::vector<graph::VertexId>& active = scratch.active;
  active.resize(n);
  for (graph::VertexId v = 0; v < n; ++v) active[v] = v;
  if (scratch.proposal.size() < n) scratch.proposal.resize(n);
  graph::Color* const proposal = scratch.proposal.data();

  ListColoringRun run;
  for (std::size_t round = 1; round <= max_rounds && !active.empty();
       ++round) {
    run.rounds = round;
    // Propose the pick-th open colour in ascending order: the palette minus
    // the neighbours' committed colours, a deterministic function of the
    // palette and the committed colours whatever order either is listed
    // in, so cone replays agree.
    for (graph::VertexId v : active) {
      const std::uint64_t* const mask = masks + v * words;
      const std::size_t open = ones(mask, words);
      ARBOR_CHECK_MSG(open != 0,
                      "palette exhausted — degree+1 precondition violated");
      const auto pick = static_cast<std::size_t>(
          coin.below(open, phase_tag, vertex_keys[v], round));
      proposal[v] = base + static_cast<graph::Color>(select_bit(mask, pick));
    }
    // Commit unless a neighbour proposed the same colour this round, and
    // keep the rest active. The check reads only proposals. A vertex
    // coloured in an earlier round still holds its colour there, which no
    // neighbour can propose: its commit cleared that bit from their masks.
    // So equality of proposals is the full test, and a commit clearing
    // bits in this loop cannot change another commit of the same round.
    std::size_t kept = 0;
    for (graph::VertexId v : active) {
      const graph::Color c = proposal[v];
      bool conflict = false;
      for (std::size_t e = offsets[v]; e < offsets[v + 1]; ++e) {
        if (proposal[targets[e]] == c) {
          conflict = true;
          break;
        }
      }
      if (conflict) {
        active[kept++] = v;
        continue;
      }
      colors[v] = c;
      const std::size_t offset = c - base;
      const std::uint64_t clear = ~(std::uint64_t{1} << (offset % 64));
      for (std::size_t e = offsets[v]; e < offsets[v + 1]; ++e)
        masks[targets[e] * words + offset / 64] &= clear;
    }
    active.resize(kept);
  }

  run.complete = active.empty();
  return run;
}

}  // namespace arbor::local

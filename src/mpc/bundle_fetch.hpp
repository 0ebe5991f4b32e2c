// The Lemma 4.1 primitive: every node u holds an information bundle B_u and
// a request list L_u of nodes whose bundles it wants; deliver all bundles in
// O(1) MPC rounds.
//
// The paper's implementation (proof sketch of Lemma 4.1) is:
//  1. one sort to compute k_v = #requesters of each v,
//  2. broadcast trees of fan-out n^{δ/2} to make k_v copies of B_v,
//  3. one sort + rank matching to route copy i of B_v to its requester.
// We execute those semantics and charge exactly that round breakdown. The
// graph-exponentiation steps of Algorithm 2 and the directed exponentiation
// of the coloring algorithm are both expressed as bundle fetches.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/cluster.hpp"
#include "mpc/primitives.hpp"
#include "util/assert.hpp"

namespace arbor::net {
class Registry;
}

namespace arbor::mpc {

struct BundleFetchStats {
  std::size_t rounds_charged = 0;
  std::size_t total_delivered_words = 0;  ///< Lemma 4.1 condition (B) gauge
  std::size_t max_request_list = 0;       ///< Lemma 4.1 condition (A) gauge
  std::size_t max_bundle_words = 0;
  std::size_t max_requester_words = 0;  ///< largest per-machine delivery
  std::size_t max_copies = 0;           ///< largest k_v
};

/// Every vertex's bundle B_v in one arena. The fetch reads the size of
/// every bundle (its max/total volume gauges) but delivers only requested
/// ones, so an unrequested bundle needs only its word count (set_words);
/// requested ones carry a payload (add), laid out back to back.
class BundleArena {
 public:
  /// `vertices` bundles, all empty and without payload.
  explicit BundleArena(std::size_t vertices = 0) { reset(vertices); }

  void reset(std::size_t vertices);

  /// One bundle with a payload per element of `bundles`.
  static BundleArena from(const std::vector<std::vector<Word>>& bundles);

  std::size_t size() const noexcept { return words_.size(); }
  std::size_t words(std::size_t v) const { return words_.at(v); }
  bool has_payload(std::size_t v) const { return offset_.at(v) != kNone; }
  std::span<const Word> payload(std::size_t v) const {
    ARBOR_CHECK_MSG(has_payload(v), "bundle has no payload");
    return {arena_.data() + offset_[v], words_[v]};
  }

  /// Records |B_v| = `words` without shipping a payload.
  void set_words(std::size_t v, std::size_t words) {
    ARBOR_CHECK_MSG(!has_payload(v), "bundle already has a payload");
    words_[v] = words;
  }

  /// Sets |B_v| = `words` and appends B_v's payload, returned for the
  /// caller to fill at once (a later add may move the arena).
  std::span<Word> add(std::size_t v, std::size_t words);

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> words_;
  std::vector<std::size_t> offset_;  // payload start in arena_, or kNone
  std::vector<Word> arena_;
};

/// `requests[u]` is the list L_u. Returns, for each requester u, the
/// requested bundles aligned with requests[u]: delivered(u, slot) is
/// B_{requests[u][slot]}, a span into the bundle arena (valid until the
/// arena is reset, grown or destroyed). Records footprints with the
/// context's ledger; the stats let callers assert the lemma's
/// preconditions at their chosen budgets.
struct BundleFetchResult {
  std::vector<std::size_t> first;  ///< u's copies: [first[u], first[u+1])
  std::vector<std::span<const Word>> copies;
  BundleFetchStats stats;

  std::span<const Word> delivered(std::size_t u, std::size_t slot) const {
    ARBOR_CHECK_MSG(first.at(u) + slot < first.at(u + 1),
                    "no such delivered slot");
    return copies[first[u] + slot];
  }
};

BundleFetchResult fetch_bundles(
    MpcContext& ctx, const BundleArena& bundles,
    const std::vector<std::vector<graph::VertexId>>& requests,
    const std::string& label);

/// The executable Level-0 counterpart of fetch_bundles: the same
/// request/serve dataflow run as a real RoundProgram on `cluster`, under
/// its per-machine traffic caps. Bundle owners and requesters are
/// block-assigned to machines (vertex v lives on machine v / ceil(n/M));
/// three rounds: route requests to owners, serve the bundle copies back,
/// and a compute-only assembly round in which every requester machine
/// slots the copies into request order. `delivered` is bit-identical to
/// fetch_bundles' — tests/level0_programs_test.cpp locks the equivalence —
/// so the analytic charge is grounded by a program the scheduler can
/// pipeline.
struct Level0BundleFetchResult {
  std::vector<std::vector<std::vector<Word>>> delivered;
  std::size_t rounds = 0;
};

Level0BundleFetchResult fetch_bundles_program(
    Cluster& cluster, const std::vector<std::vector<Word>>& bundles,
    const std::vector<std::vector<graph::VertexId>>& requests);

/// Worker-side factory ("mpc.fetch_bundles") for the multi-process
/// backend (net::Registry::builtin() calls this).
void register_bundle_fetch_program(net::Registry& registry);

}  // namespace arbor::mpc

// A real distributed sample sort executed on the Level-0 cluster.
//
// This is the [GSZ11]-style constant-round sort the Level-1 primitives
// charge for: every machine holds a slab of fixed-width records (single
// words are width 1); splitters are agreed on, every machine routes its
// data to the splitter-assigned bucket machine, and buckets sort locally.
// Exists so the analytic costs are backed by an executable dataflow under
// the same traffic caps (see tests/level0_programs_test.cpp, which
// cross-checks the round counts against MpcContext::sort_rounds and
// grounds the per-round traffic against the model's S-cap).
//
// Splitters are agreed on through a ⌈√p⌉-ary splitter relay tree.
// Machines send clamped, evenly-spaced samples up a height-2 fan-in tree
// (each relay pools its ≤ ⌈√p⌉ children's samples and re-samples the pool
// down to its own sample budget); the root picks the p−1 splitters and
// relays them back down the same tree, giving each relay only the G−1
// group-boundary splitters plus its own group's in-group splitters.
// Records then route in two hops: by boundary splitters to a spread
// member of the destination group, then by that group's fine splitters to
// the final bucket machine. Per-machine send/receive volume of every
// splitter round is O(√p·s) words (s = samples per machine), so the
// dataflow fits the model's S-cap at any machine count. Rounds: 7 (up, up,
// pick, down, route, route, and the compute-only bucket sort).
//
// Protocol notes:
//  * samples are clamped to the slab size, so a machine never repeats an
//    index (splitter quality on tiny skewed slabs);
//  * splitter packets are ALWAYS present, even when the splitter set is
//    empty (machines == 1, or an all-empty input pool): every down packet
//    carries an explicit [n_coarse, n_fine] header, so the routing rounds
//    rely on the message being present, never on an accident of the
//    protocol. A relay with no children's samples forwards clean headers,
//    not zero-width frames;
//  * records are ordered by a key prefix (see src/mpc/README.md for the
//    wire format); there is one sort program for every width.
#pragma once

#include <cstddef>
#include <vector>

#include "mpc/cluster.hpp"

namespace arbor::net {
class Registry;
}

namespace arbor::mpc {

/// Sort fixed-width records by their leading key words.
///
/// `input[m]` is machine m's initial slab: a flat arena of whole records,
/// `record_width` words each; the first `key_words` words of a record form
/// its sort key, compared lexicographically (`key_words == 0` means "the
/// whole record is the key"). After the sort each machine holds a
/// key-sorted slab and the concatenation in machine order is globally
/// key-sorted. With a full-record key and distinct records the
/// concatenation is the unique total order (this is how MpcContext gets
/// bit-identical stable sorts: the original index rides along as the last
/// key word). With a partial key, tie order within a bucket is
/// deterministic (fixed by the delivery order source-asc, send-order) but
/// depends on the routing shape and is not stable across the whole input.
struct RecordSortResult {
  std::vector<std::vector<Word>> slabs;  ///< key-sorted record arenas
  std::size_t rounds = 0;  ///< always 7, incl. the compute-only
                           ///< bucket-sort round
};

/// `input` is taken by value: callers whose slabs are throwaway (the
/// Level-1 sort path) move them in, and the sort moves them on — into its
/// machine state in process, or into the RemoteSpec a multi-process
/// backend ships to its workers — so the driver never copies the data.
/// Every slab and every bucket must fit in the cluster's per-machine word
/// budget; the sort fails loudly (capacity check in the cluster)
/// otherwise. `samples_per_machine` controls splitter quality (default
/// 8); the tree needs ≥ ⌈√p⌉ samples per machine for its root pool to
/// cover p−1 splitters — fewer still sorts correctly, with coarser
/// buckets.
RecordSortResult sample_sort_records(
    Cluster& cluster, std::vector<std::vector<Word>> input,
    std::size_t record_width, std::size_t key_words = 0,
    std::size_t samples_per_machine = 8);

/// Relay-tree fanout for a `machines`-wide sort: r = ⌈√machines⌉, the
/// group size of the splitter tree. Exposed so callers sizing a sort
/// cluster (the Level-1 internals) derive their sample budgets and
/// splitter-round slack from the SAME radix the tree builder uses —
/// s ≥ r keeps the root's thinned pool (G·s keys) ≥ machines−1.
std::size_t sample_sort_tree_fanout(std::size_t machines);

/// Worker-side factory ("mpc.sample_sort_records") for the multi-process
/// backend (net::Registry::builtin() calls this).
void register_sample_sort_programs(net::Registry& registry);

}  // namespace arbor::mpc

// Shared routing-storm workload for the engine measurement binaries
// (bench_engine_scaling, engine_throughput).
//
// Every machine scatters one-word messages from its slab to hashed
// destinations each round, so the measurement is dominated by the engine's
// send/route/deliver path. The workload is deterministic for a given
// (slabs, rounds) regardless of ExecutionPolicy, and the inbox fingerprint
// lets callers assert that executors agree bit-for-bit.
//
// NOTE: step functions run concurrently under a parallel policy — the storm
// therefore computes its words-moved total outside the lambda instead of
// mutating shared state from it.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/cluster.hpp"
#include "mpc/ledger.hpp"
#include "net/storm.hpp"
#include "util/hashing.hpp"

namespace arbor::bench {

/// Checksum of every machine's inbox contents, message boundaries included.
inline std::uint64_t inbox_fingerprint(const mpc::Cluster& cluster) {
  std::uint64_t h = util::mix64(3);
  for (std::size_t m = 0; m < cluster.num_machines(); ++m) {
    for (const auto& msg : cluster.inbox(m)) {
      h = util::hash_combine(h, msg.size());
      for (mpc::Word w : msg) h = util::hash_combine(h, w);
    }
    h = util::hash_combine(h, m);
  }
  return h;
}

/// Partition each edge's endpoint words round-robin across machines.
inline std::vector<std::vector<mpc::Word>> edge_slabs(
    const graph::Graph& g, std::size_t machines) {
  std::vector<std::vector<mpc::Word>> slabs(machines);
  std::size_t cursor = 0;
  for (const auto& e : g.edges()) {
    slabs[cursor % machines].push_back(e.u);
    slabs[cursor % machines].push_back(e.v);
    ++cursor;
  }
  return slabs;
}

struct StormOutcome {
  double secs = 0;
  std::size_t rounds = 0;
  std::size_t words_moved = 0;
  std::size_t ledger_rounds = 0;
  std::size_t peak_traffic = 0;
  std::size_t engine_width = 1;  ///< actual worker width (after hw clamp)
  std::uint64_t fingerprint = 0;
};

/// Run `rounds` storm rounds on a cluster built from `cfg` (including its
/// ExecutionPolicy); each non-empty machine sends words_per_machine/8
/// one-word messages per round.
inline StormOutcome run_storm(const std::vector<std::vector<mpc::Word>>& slabs,
                              mpc::ClusterConfig cfg, std::size_t rounds) {
  const std::size_t machines = cfg.num_machines;
  const std::size_t batch = cfg.words_per_machine / 8;
  mpc::RoundLedger ledger(cfg);
  mpc::Cluster cluster(cfg, &ledger);
  StormOutcome out;
  std::size_t active_machines = 0;
  for (const auto& slab : slabs)
    if (!slab.empty()) ++active_machines;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t round = 0; round < rounds; ++round) {
    cluster.run_round([&](std::size_t m, const auto&, mpc::Sender& send) {
      const auto& slab = slabs[m];
      if (slab.empty()) return;
      for (std::size_t i = 0; i < batch; ++i) {
        const mpc::Word w = slab[(round * batch + i) % slab.size()];
        const std::size_t dst = util::hash_words(13, w, round) % machines;
        send.send(dst, std::span<const mpc::Word>(&w, 1));
      }
    });
  }
  out.secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  out.words_moved = rounds * batch * active_machines;
  out.engine_width = cluster.engine().worker_threads();
  out.rounds = cluster.rounds_executed();
  out.ledger_rounds = ledger.total_rounds();
  out.peak_traffic = ledger.peak_round_traffic();
  out.fingerprint = inbox_fingerprint(cluster);
  return out;
}

/// The same storm declared as ONE RoundProgram of `rounds` machine-
/// independent steps instead of `rounds` imperative run_round calls. The
/// messages are identical (each step depends only on the immutable slabs
/// and its round index), so fingerprints and ledger totals must match
/// run_storm exactly. The program is the shared
/// net::make_storm_program build; on a cluster whose config selects the
/// loopback/tcp transport it ships with its RemoteSpec and executes
/// across the worker group instead (the "multiprocess" bench rows).
inline StormOutcome run_storm_program(
    const std::vector<std::vector<mpc::Word>>& slabs, mpc::ClusterConfig cfg,
    std::size_t rounds) {
  const std::size_t machines = cfg.num_machines;
  const std::size_t batch = cfg.words_per_machine / 8;
  mpc::RoundLedger ledger(cfg);
  mpc::Cluster cluster(cfg, &ledger);
  StormOutcome out;
  std::size_t active_machines = 0;
  for (const auto& slab : slabs)
    if (!slab.empty()) ++active_machines;

  auto st = std::make_shared<net::StormState>();
  st->slabs = slabs;
  st->machines = machines;
  st->batch = batch;
  st->rounds = rounds;
  const mpc::RoundProgram program =
      cluster.distributed() ? net::make_distributable_storm_program(st)
                            : net::make_storm_program(st);

  const auto start = std::chrono::steady_clock::now();
  cluster.run_program(program);
  out.secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  out.words_moved = rounds * batch * active_machines;
  out.engine_width = cluster.engine().worker_threads();
  out.rounds = cluster.rounds_executed();
  out.ledger_rounds = ledger.total_rounds();
  out.peak_traffic = ledger.peak_round_traffic();
  out.fingerprint = inbox_fingerprint(cluster);
  return out;
}

}  // namespace arbor::bench

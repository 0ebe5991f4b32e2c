#include "mpc/bundle_fetch.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "check/ownership.hpp"
#include "net/registry.hpp"
#include "net/wire.hpp"
#include "obs/cost_model.hpp"
#include "util/assert.hpp"

namespace arbor::mpc {

void BundleArena::reset(std::size_t vertices) {
  words_.assign(vertices, 0);
  offset_.assign(vertices, kNone);
  arena_.clear();
}

BundleArena BundleArena::from(const std::vector<std::vector<Word>>& bundles) {
  BundleArena arena(bundles.size());
  for (std::size_t v = 0; v < bundles.size(); ++v) {
    const std::span<Word> dst = arena.add(v, bundles[v].size());
    std::copy(bundles[v].begin(), bundles[v].end(), dst.begin());
  }
  return arena;
}

std::span<Word> BundleArena::add(std::size_t v, std::size_t words) {
  ARBOR_CHECK_MSG(!has_payload(v), "bundle already has a payload");
  words_[v] = words;
  offset_[v] = arena_.size();
  arena_.resize(arena_.size() + words);
  return {arena_.data() + offset_[v], words};
}

BundleFetchResult fetch_bundles(
    MpcContext& ctx, const BundleArena& bundles,
    const std::vector<std::vector<graph::VertexId>>& requests,
    const std::string& label) {
  ARBOR_CHECK_MSG(requests.size() <= bundles.size() || bundles.size() == 0,
                  "more requesters than vertices with bundles");
  BundleFetchResult result;

  // Step 1: k_v = number of requesters per vertex (one sort in the model).
  std::vector<std::size_t> copies(bundles.size(), 0);
  std::size_t total_requests = 0;
  for (std::size_t u = 0; u < requests.size(); ++u) {
    result.stats.max_request_list =
        std::max(result.stats.max_request_list, requests[u].size());
    for (graph::VertexId v : requests[u]) {
      ARBOR_CHECK_MSG(v < bundles.size(), "request for unknown vertex");
      ARBOR_CHECK_MSG(bundles.has_payload(v),
                      "request for a bundle without payload");
      ++copies[v];
      ++total_requests;
    }
  }
  const std::size_t count_sort_rounds =
      ctx.sort_rounds(total_requests + 2 * bundles.size());

  // Step 2: replication via broadcast trees; rounds bounded by the deepest
  // tree (largest k_v).
  for (std::size_t v = 0; v < bundles.size(); ++v) {
    result.stats.max_copies = std::max(result.stats.max_copies, copies[v]);
    result.stats.max_bundle_words =
        std::max(result.stats.max_bundle_words, bundles.words(v));
    result.stats.total_delivered_words += copies[v] * bundles.words(v);
  }
  const std::size_t replicate_rounds =
      ctx.broadcast_rounds(std::max<std::size_t>(1, result.stats.max_copies));

  // Step 3: route copies to requesters (one sort over delivered volume),
  // executed here as read-only views of the requested payloads.
  result.first.reserve(requests.size() + 1);
  result.copies.reserve(total_requests);
  result.first.push_back(0);
  for (std::size_t u = 0; u < requests.size(); ++u) {
    std::size_t requester_words = 0;
    for (graph::VertexId v : requests[u]) {
      result.copies.push_back(bundles.payload(v));
      requester_words += result.copies.back().size();
    }
    result.first.push_back(result.copies.size());
    result.stats.max_requester_words =
        std::max(result.stats.max_requester_words, requester_words);
  }
  const std::size_t route_sort_rounds = ctx.sort_rounds(
      std::max<std::size_t>(1, result.stats.total_delivered_words));

  result.stats.rounds_charged =
      count_sort_rounds + replicate_rounds + route_sort_rounds;
  ctx.charge(result.stats.rounds_charged, label);
  ctx.note_global_words(result.stats.total_delivered_words);
  ctx.note_local_words(result.stats.max_requester_words);
  return result;
}

namespace {

/// Owner machine of vertex/requester id under block assignment (the last
/// machine also absorbs the clamp remainder).
std::size_t owner_of(std::size_t id, std::size_t count,
                     std::size_t machines) {
  const std::size_t block =
      (count + machines - 1) / std::max<std::size_t>(machines, 1);
  return block == 0 ? std::size_t{0} : std::min(id / block, machines - 1);
}

/// Machine m's contiguous id block under owner_of.
std::pair<std::size_t, std::size_t> id_block_of(std::size_t m,
                                                std::size_t count,
                                                std::size_t machines) {
  const std::size_t block =
      (count + machines - 1) / std::max<std::size_t>(machines, 1);
  const std::size_t lo = std::min(m * block, count);
  const std::size_t hi =
      m + 1 == machines ? count : std::min(lo + block, count);
  return {lo, hi};
}

/// Machine-local state of a Level-0 bundle fetch. Built by the driver as
/// non-owning views over the caller's vectors; rebuilt by a worker as
/// owning storage filled for its machine block only.
struct FetchState {
  std::vector<std::vector<Word>> owned_bundles;
  std::vector<std::vector<graph::VertexId>> owned_requests;
  std::vector<std::vector<std::vector<Word>>> owned_delivered;
  const std::vector<std::vector<Word>>* bundles = nullptr;
  const std::vector<std::vector<graph::VertexId>>* requests = nullptr;
  std::vector<std::vector<std::vector<Word>>>* delivered = nullptr;
  std::size_t machines = 0;
};

// Three machine-independent steps; every step touches only its machine's
// inbox and the delivered/bundle slots its block owns.
engine::RoundProgram make_fetch_program(std::shared_ptr<FetchState> st) {
  const std::size_t machines = st->machines;
  engine::RoundProgram program;

  // Step 1: each requester machine routes (u, slot, v) triples to the
  // machine hosting v's bundle — scanning only its own requester block.
  program.independent("fetch.route", [st, machines](std::size_t m,
                                                    const auto&,
                                                    Sender& send) {
    const auto& requests = *st->requests;
    std::vector<std::vector<Word>> outgoing(machines);
    const auto [u_lo, u_hi] = id_block_of(m, requests.size(), machines);
    for (std::size_t u = u_lo; u < u_hi; ++u) {
      for (std::size_t slot = 0; slot < requests[u].size(); ++slot) {
        const graph::VertexId v = requests[u][slot];
        auto& out = outgoing[owner_of(v, st->bundles->size(), machines)];
        out.push_back(u);
        out.push_back(slot);
        out.push_back(v);
      }
    }
    for (std::size_t dst = 0; dst < machines; ++dst)
      if (!outgoing[dst].empty()) send.send(dst, outgoing[dst]);
  });

  // Step 2: each owner machine serves every request in its inbox with a
  // (u, slot, length, payload...) record addressed to u's host machine.
  program.independent("fetch.serve", [st, machines](std::size_t,
                                                    const auto& inbox,
                                                    Sender& send) {
    const auto& bundles = *st->bundles;
    std::vector<std::vector<Word>> outgoing(machines);
    for (const auto& msg : inbox) {
      for (std::size_t i = 0; i + 2 < msg.size(); i += 3) {
        const auto u = static_cast<std::size_t>(msg[i]);
        const Word slot = msg[i + 1];
        const auto v = static_cast<std::size_t>(msg[i + 2]);
        auto& out = outgoing[owner_of(u, st->requests->size(), machines)];
        out.push_back(u);
        out.push_back(slot);
        out.push_back(bundles[v].size());
        out.insert(out.end(), bundles[v].begin(), bundles[v].end());
      }
    }
    for (std::size_t dst = 0; dst < machines; ++dst)
      if (!outgoing[dst].empty()) send.send(dst, outgoing[dst]);
  });

  // Step 3 (compute-only): each requester machine unpacks the served
  // copies into request order — delivered[u][slot] slots are owned by u's
  // host machine, so the assembly parallelizes across the cluster.
  program.independent("fetch.unpack", [st](std::size_t, const auto& inbox,
                                           Sender&) {
    for (const auto& msg : inbox) {
      std::size_t i = 0;
      while (i + 2 < msg.size()) {
        const auto u = static_cast<std::size_t>(msg[i]);
        const auto slot = static_cast<std::size_t>(msg[i + 1]);
        const auto len = static_cast<std::size_t>(msg[i + 2]);
        i += 3;
        auto& dst = (*st->delivered)[u][slot];
        dst.assign(msg.begin() + i, msg.begin() + i + len);
        i += len;
      }
    }
  });

  // delivered[u] — the only state the steps mutate — is owned by u's host
  // machine (the same block mapping step 2 routes by).
  auto own = std::make_shared<check::Ownership>();
  own->nested("delivered", st->delivered,
              [st, machines](std::size_t u) {
                return owner_of(u, st->requests->size(), machines);
              })
      .keep_alive(st);
  program.owned(std::move(own));

  // Route and serve are data-movement rounds (request triples, then the
  // copies themselves) — bounded only by the machine capacity S; unpack is
  // compute-only and must move exactly zero words.
  auto cost = std::make_shared<obs::CostModel>("mpc.fetch_bundles");
  cost->bound("fetch.route", obs::kWordsCapacity, 1,
              "<= S (3 words per request triple)");
  cost->bound("fetch.serve", obs::kWordsCapacity, 1,
              "<= S (3-word header + bundle payload per copy)");
  cost->bound("fetch.unpack", 0, 1,
              "0 (machine-local assembly; moves no words)");
  program.costed(std::move(cost));
  return program;
}

}  // namespace

Level0BundleFetchResult fetch_bundles_program(
    Cluster& cluster, const std::vector<std::vector<Word>>& bundles,
    const std::vector<std::vector<graph::VertexId>>& requests) {
  const std::size_t machines = cluster.num_machines();
  const std::size_t start_rounds = cluster.rounds_executed();

  Level0BundleFetchResult result;
  result.delivered.resize(requests.size());
  for (std::size_t u = 0; u < requests.size(); ++u) {
    result.delivered[u].resize(requests[u].size());
    for (graph::VertexId v : requests[u])
      ARBOR_CHECK_MSG(v < bundles.size(), "request for unknown vertex");
  }

  auto st = std::make_shared<FetchState>();
  st->machines = machines;
  st->bundles = &bundles;
  st->requests = &requests;
  st->delivered = &result.delivered;

  engine::RoundProgram program = make_fetch_program(st);
  if (cluster.distributed()) {
    engine::RemoteSpec spec;
    spec.name = "mpc.fetch_bundles";
    spec.scalars = {static_cast<Word>(requests.size()),
                    static_cast<Word>(bundles.size())};
    // inputs[m]: the requester lists and bundles machine m hosts —
    //   [u_count, {len, v...} * u_count, v_count, {len, words...} * v_count]
    spec.inputs.resize(machines);
    for (std::size_t m = 0; m < machines; ++m) {
      std::vector<Word>& input = spec.inputs[m];
      const auto [u_lo, u_hi] = id_block_of(m, requests.size(), machines);
      input.push_back(u_hi - u_lo);
      for (std::size_t u = u_lo; u < u_hi; ++u) {
        input.push_back(requests[u].size());
        for (graph::VertexId v : requests[u]) input.push_back(v);
      }
      const auto [v_lo, v_hi] = id_block_of(m, bundles.size(), machines);
      input.push_back(v_hi - v_lo);
      for (std::size_t v = v_lo; v < v_hi; ++v) {
        input.push_back(bundles[v].size());
        input.insert(input.end(), bundles[v].begin(), bundles[v].end());
      }
    }
    spec.has_output = true;
    // outputs[m]: delivered slots of machine m's requester block —
    //   [{nslots, {len, words...} * nslots} * requesters]
    spec.output_sink = [st, machines](std::size_t m,
                                      std::span<const Word> slab) {
      net::WireReader reader(slab, "fetch-output");
      const auto [u_lo, u_hi] =
          id_block_of(m, st->delivered->size(), machines);
      for (std::size_t u = u_lo; u < u_hi; ++u) {
        auto& slots = (*st->delivered)[u];
        const std::size_t nslots = reader.count();
        ARBOR_CHECK(nslots == slots.size());
        for (std::size_t s = 0; s < nslots; ++s) {
          const std::span<const Word> words = reader.words(reader.count());
          slots[s].assign(words.begin(), words.end());
        }
      }
      reader.expect_end();
    };
    program.distributable(std::move(spec));
  }

  cluster.run_program(program);
  result.rounds = cluster.rounds_executed() - start_rounds;
  return result;
}

void register_bundle_fetch_program(net::Registry& registry) {
  registry.add("mpc.fetch_bundles", 2, [](const net::ProgramInputs& in) {
    auto st = std::make_shared<FetchState>();
    st->machines = in.machines;
    const auto num_requesters = static_cast<std::size_t>(in.scalars[0]);
    const auto num_bundles = static_cast<std::size_t>(in.scalars[1]);
    st->owned_requests.resize(num_requesters);
    st->owned_bundles.resize(num_bundles);
    st->owned_delivered.resize(num_requesters);
    for (std::size_t m = in.block_begin; m < in.block_end; ++m) {
      net::WireReader reader(in.inputs[m - in.block_begin], "fetch-input");
      const auto [u_lo, u_hi] = id_block_of(m, num_requesters, in.machines);
      ARBOR_CHECK(reader.count() == u_hi - u_lo);
      for (std::size_t u = u_lo; u < u_hi; ++u) {
        const std::span<const Word> vs = reader.words(reader.count());
        st->owned_requests[u].assign(vs.begin(), vs.end());
        st->owned_delivered[u].resize(vs.size());
      }
      const auto [v_lo, v_hi] = id_block_of(m, num_bundles, in.machines);
      ARBOR_CHECK(reader.count() == v_hi - v_lo);
      for (std::size_t v = v_lo; v < v_hi; ++v) {
        const std::span<const Word> words = reader.words(reader.count());
        st->owned_bundles[v].assign(words.begin(), words.end());
      }
      reader.expect_end();
    }
    st->bundles = &st->owned_bundles;
    st->requests = &st->owned_requests;
    st->delivered = &st->owned_delivered;
    net::WorkerProgram out;
    out.program = make_fetch_program(st);
    out.state = st;
    out.output = [st](std::size_t m) {
      std::vector<Word> slab;
      const auto [u_lo, u_hi] =
          id_block_of(m, st->owned_delivered.size(), st->machines);
      for (std::size_t u = u_lo; u < u_hi; ++u) {
        slab.push_back(st->owned_delivered[u].size());
        for (const std::vector<Word>& words : st->owned_delivered[u]) {
          slab.push_back(words.size());
          slab.insert(slab.end(), words.begin(), words.end());
        }
      }
      return slab;
    };
    return out;
  });
}

}  // namespace arbor::mpc

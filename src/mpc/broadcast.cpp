#include "mpc/broadcast.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "check/ownership.hpp"
#include "net/registry.hpp"
#include "obs/cost_model.hpp"
#include "util/assert.hpp"

namespace arbor::mpc {

namespace {

/// Tree numbering with machine ids relabeled so `root` is node 0:
/// node x's children are x·fanout + 1 .. x·fanout + fanout.
std::size_t relabel(std::size_t machine, std::size_t root,
                    std::size_t machines) {
  return (machine + machines - root) % machines;
}
std::size_t unlabel(std::size_t node, std::size_t root,
                    std::size_t machines) {
  return (node + root) % machines;
}

/// Depth of the deepest node the tree needs to cover `machines` nodes —
/// the number of rounds both trees run for.
std::size_t tree_height(std::size_t machines, std::size_t fanout) {
  std::size_t height = 0;
  for (std::size_t reach = 1; reach < machines; reach = reach * fanout + 1)
    ++height;
  return height;
}

std::size_t depth_of(std::size_t node, std::size_t fanout) {
  std::size_t d = 0;
  while (node != 0) {
    node = (node - 1) / fanout;
    ++d;
  }
  return d;
}

// Machine-local state of a broadcast; the same builder serves the
// driver's full-cluster run and a worker's block share. Per-machine flags
// are one byte per machine, NOT vector<bool>: its packed bits are not
// disjoint objects, so concurrent writes to neighbouring machines' flags
// would be a data race under a parallel policy.
struct BroadcastState {
  std::vector<std::vector<Word>> holds;
  std::vector<char> has;
  std::size_t machines = 0;
  std::size_t root = 0;
  std::size_t fanout = 0;
};

// All nodes within depth d hold the payload after round d, so the tree
// height is the exact round count — the program is declared up front as
// height identical machine-independent steps. Each step touches only
// machine-owned slots (has[m], holds[m]) and its own inbox: a machine
// adopts the payload the moment its copy arrives, then fans it out to
// its children.
engine::RoundProgram make_broadcast_program(
    std::shared_ptr<BroadcastState> st) {
  const std::size_t height = tree_height(st->machines, st->fanout);
  engine::RoundProgram program;
  for (std::size_t round = 0; round < height; ++round) {
    program.independent("broadcast.tree.level", [st, round](
                                                    std::size_t m,
                                                    const InboxView& inbox,
                                                    Sender& send) {
      // Adopt the payload delivered by the previous level. Round 0 must
      // not look at the inbox: it may still hold traffic from whatever the
      // cluster ran before this program.
      if (round > 0 && !st->has[m] && !inbox.empty()) {
        st->holds[m].assign(inbox.front().begin(), inbox.front().end());
        st->has[m] = 1;
      }
      if (!st->has[m]) return;
      const std::size_t node = relabel(m, st->root, st->machines);
      for (std::size_t c = 1; c <= st->fanout; ++c) {
        const std::size_t child = node * st->fanout + c;
        if (child >= st->machines) break;
        send.send(unlabel(child, st->root, st->machines), st->holds[m]);
      }
    });
  }
  auto own = std::make_shared<check::Ownership>();
  own->slabs("holds", &st->holds).elems("has", &st->has).keep_alive(st);
  program.owned(std::move(own));

  // Per level, a holder fans at most `fanout` payload copies out and every
  // node hears from its single parent — fanout·|payload| words per machine
  // per round, for exactly `height` rounds. (Worker blocks that do not
  // contain the root see an empty holds[root]; the bound audit is
  // driver-side, where the payload is always present.)
  const std::size_t payload = st->holds[st->root].size();
  auto cost = std::make_shared<obs::CostModel>("mpc.broadcast_tree");
  cost->bound("broadcast.tree.level", st->fanout * payload, height,
              "fanout*|payload| per level, height = ceil(log_fanout p) "
              "levels");
  program.costed(std::move(cost));
  return program;
}

struct ConvergeState {
  std::vector<Word> partial;
  std::size_t machines = 0;
  std::size_t root = 0;
  std::size_t fanout = 0;
};

// Leaves first: a node at depth d sends its partial sum to its parent in
// round (height - d), by which time all of its children — depth d+1,
// sending one round earlier — have reported. Each step folds the inbox
// into the machine's own partial sum and forwards it if this is the
// machine's send round; partial[m] is machine-owned, so every step is
// machine-independent.
engine::RoundProgram make_converge_program(std::shared_ptr<ConvergeState> st) {
  const std::size_t height = tree_height(st->machines, st->fanout);
  engine::RoundProgram program;
  for (std::size_t round = 0; round < height; ++round) {
    program.independent("converge.tree.level", [st, round, height](
                                                   std::size_t m,
                                                   const InboxView& inbox,
                                                   Sender& send) {
      // Children of this machine report in round (height - depth - 1);
      // fold their sums in one round later. Round 0 has no converge
      // traffic yet — only possibly stale messages from an earlier
      // program — so it must not touch the inbox.
      if (round > 0)
        for (const auto& msg : inbox)
          for (Word w : msg) st->partial[m] += w;
      const std::size_t node = relabel(m, st->root, st->machines);
      if (node == 0) return;
      if (depth_of(node, st->fanout) == height - round) {
        const std::size_t parent = (node - 1) / st->fanout;
        send.send(unlabel(parent, st->root, st->machines), {st->partial[m]});
      }
    });
  }
  auto own = std::make_shared<check::Ownership>();
  own->elems("partial", &st->partial).keep_alive(st);
  program.owned(std::move(own));

  // Per level, a node sends one single-word partial and a parent hears
  // from at most `fanout` children — fanout words per machine per round,
  // for exactly `height` rounds.
  auto cost = std::make_shared<obs::CostModel>("mpc.converge_sum");
  cost->bound("converge.tree.level", st->fanout, height,
              "fanout one-word partials per level, height = "
              "ceil(log_fanout p) levels");
  program.costed(std::move(cost));
  return program;
}

}  // namespace

BroadcastResult broadcast_tree(Cluster& cluster, std::size_t root,
                               std::vector<Word> payload,
                               std::size_t fanout) {
  const std::size_t machines = cluster.num_machines();
  ARBOR_CHECK(root < machines);
  ARBOR_CHECK(fanout >= 2);
  const std::size_t start = cluster.rounds_executed();

  auto st = std::make_shared<BroadcastState>();
  st->machines = machines;
  st->root = root;
  st->fanout = fanout;
  st->holds.resize(machines);
  st->holds[root] = std::move(payload);
  st->has.assign(machines, 0);
  st->has[root] = 1;

  const std::size_t height = tree_height(machines, fanout);
  if (height == 0) {  // single machine: the root already holds the payload
    BroadcastResult result;
    result.copies = std::move(st->holds);
    result.rounds = 0;
    return result;
  }

  engine::RoundProgram program = make_broadcast_program(st);
  if (cluster.distributed()) {
    engine::RemoteSpec spec;
    spec.name = "mpc.broadcast_tree";
    spec.scalars = {static_cast<Word>(root), static_cast<Word>(fanout)};
    spec.inputs.resize(machines);
    spec.inputs[root] = st->holds[root];
    spec.has_output = true;
    // Output slab per machine: [has, payload words...]; the sink restores
    // the worker-side adoptions the in-process steps would have written.
    spec.output_sink = [st](std::size_t m, std::span<const Word> slab) {
      ARBOR_CHECK(!slab.empty());
      st->has[m] = slab[0] != 0 ? 1 : 0;
      st->holds[m].assign(slab.begin() + 1, slab.end());
    };
    program.distributable(std::move(spec));
  }
  cluster.run_program(program);

  // The deepest level receives in the final round; its copies sit in the
  // inboxes when the program returns (there is no later step to adopt
  // them), exactly like the imperative loop's post-round processing.
  for (std::size_t m = 0; m < machines; ++m) {
    if (st->has[m]) continue;
    const auto inbox = cluster.inbox(m);
    if (!inbox.empty()) {
      st->holds[m].assign(inbox.front().begin(), inbox.front().end());
      st->has[m] = 1;
    }
  }

  BroadcastResult result;
  result.copies = std::move(st->holds);
  result.rounds = cluster.rounds_executed() - start;
  return result;
}

ConvergeResult converge_sum(Cluster& cluster, std::size_t root,
                            const std::vector<Word>& per_machine_value,
                            std::size_t fanout) {
  const std::size_t machines = cluster.num_machines();
  ARBOR_CHECK_MSG(root < machines,
                  "mpc.converge_sum: root " + std::to_string(root) +
                      " is outside the " + std::to_string(machines) +
                      "-machine cluster");
  ARBOR_CHECK(per_machine_value.size() == machines);
  ARBOR_CHECK(fanout >= 2);
  const std::size_t start = cluster.rounds_executed();

  const std::size_t height = tree_height(machines, fanout);
  auto st = std::make_shared<ConvergeState>();
  st->machines = machines;
  st->root = root;
  st->fanout = fanout;
  st->partial = per_machine_value;

  if (height > 0) {
    engine::RoundProgram program = make_converge_program(st);
    if (cluster.distributed()) {
      engine::RemoteSpec spec;
      spec.name = "mpc.converge_sum";
      spec.scalars = {static_cast<Word>(root), static_cast<Word>(fanout)};
      spec.inputs.resize(machines);
      for (std::size_t m = 0; m < machines; ++m)
        spec.inputs[m] = {per_machine_value[m]};
      spec.has_output = true;
      spec.output_sink = [st](std::size_t m, std::span<const Word> slab) {
        ARBOR_CHECK(slab.size() == 1);
        st->partial[m] = slab[0];
      };
      program.distributable(std::move(spec));
    }
    cluster.run_program(program);
    // The depth-1 children report in the final round; their messages sit
    // in the root's inbox when the program returns.
    for (const auto& msg : cluster.inbox(root))
      for (Word w : msg) st->partial[root] += w;
  }

  ConvergeResult result;
  result.sum = st->partial[root];
  result.rounds = cluster.rounds_executed() - start;
  return result;
}

void register_broadcast_programs(net::Registry& registry) {
  registry.add("mpc.broadcast_tree", 2, [](const net::ProgramInputs& in) {
    auto st = std::make_shared<BroadcastState>();
    st->machines = in.machines;
    st->root = static_cast<std::size_t>(in.scalars[0]);
    st->fanout = static_cast<std::size_t>(in.scalars[1]);
    ARBOR_CHECK(st->root < st->machines && st->fanout >= 2);
    st->holds.resize(in.machines);
    st->has.assign(in.machines, 0);
    if (st->root >= in.block_begin && st->root < in.block_end) {
      st->holds[st->root] = in.inputs[st->root - in.block_begin];
      st->has[st->root] = 1;
    }
    net::WorkerProgram out;
    out.program = make_broadcast_program(st);
    out.state = st;
    out.output = [st](std::size_t m) {
      std::vector<Word> slab{st->has[m] ? Word{1} : Word{0}};
      slab.insert(slab.end(), st->holds[m].begin(), st->holds[m].end());
      return slab;
    };
    return out;
  });

  registry.add("mpc.converge_sum", 2, [](const net::ProgramInputs& in) {
    auto st = std::make_shared<ConvergeState>();
    st->machines = in.machines;
    st->root = static_cast<std::size_t>(in.scalars[0]);
    st->fanout = static_cast<std::size_t>(in.scalars[1]);
    ARBOR_CHECK(st->root < st->machines && st->fanout >= 2);
    st->partial.assign(in.machines, 0);
    for (std::size_t m = in.block_begin; m < in.block_end; ++m) {
      const std::vector<Word>& input = in.inputs[m - in.block_begin];
      ARBOR_CHECK_MSG(input.size() == 1,
                      "mpc.converge_sum expects one word per machine");
      st->partial[m] = input[0];
    }
    net::WorkerProgram out;
    out.program = make_converge_program(st);
    out.state = st;
    out.output = [st](std::size_t m) {
      return std::vector<Word>{st->partial[m]};
    };
    return out;
  });
}

}  // namespace arbor::mpc

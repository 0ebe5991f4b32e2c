// Declarative multi-round protocols: a RoundProgram is the unit the
// Scheduler executes.
//
// A protocol used to drive Cluster::run_round imperatively, one lambda per
// round. A RoundProgram instead declares the whole protocol up front as a
// sequence of step descriptors, each tagged with the contract its step
// function keeps (StepKind — checked execution verifies the tag). Programs
// are also the single choke point the multi-process backend needs — a
// program is data, an ad-hoc lambda chain is not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/inbox.hpp"
#include "engine/outbox.hpp"

namespace arbor::check {
class Ownership;  // check/ownership.hpp
}  // namespace arbor::check

namespace arbor::obs {
class CostModel;  // obs/cost_model.hpp
}  // namespace arbor::obs

namespace arbor::engine {

/// Step function: (machine id, messages received last round, sender).
///
/// CONCURRENCY CONTRACT: under a parallel policy the step function is
/// invoked concurrently for different machines. It may freely read shared
/// immutable state (the graph, slabs loaded before the program) but must
/// only write state owned by its machine id (disjoint slots of per-machine
/// arrays, its Sender). Mutating shared accumulators from inside a step is
/// a data race; aggregate per-machine results in a RoundProgram continue
/// callback or after the program returns.
using StepFn =
    std::function<void(std::size_t, const InboxView&, Sender&)>;

/// Which contract a step function keeps. Execution is identical for both
/// kinds — every step is one synchronous round — but checked execution
/// replays machine-independent steps under an adversarial machine order
/// (check/monitor.hpp) to prove the tag honest.
enum class StepKind : std::uint8_t {
  /// MACHINE-INDEPENDENT CONTRACT (strictly stronger than the StepFn
  /// concurrency contract above): machine m's invocation depends only on
  ///   (a) machine m's own inbox for this round,
  ///   (b) state owned by machine m (including values machine m's earlier
  ///       steps wrote), and
  ///   (c) shared state that is immutable for the whole program.
  /// In particular it must NOT read per-machine state written by OTHER
  /// machines' step invocations, nor global aggregates updated between
  /// rounds. Under this contract machine m's output is the same whatever
  /// order the machines run in.
  kMachineIndependent,
  /// The step may read state a continue callback or another machine's
  /// earlier step maintains, so it relies on the previous round being
  /// fully committed on every machine before any compute starts.
  kBarrier,
};

/// Ledger/diagnostic label of a step that has not declared its own name.
inline constexpr const char* kDefaultStepName = "cluster.round";

struct ProgramStep {
  StepFn fn;
  StepKind kind = StepKind::kBarrier;
  /// Per-round label: clusters charge their ledgers under this name and
  /// cap-violation errors quote it, so a multi-round protocol's traffic is
  /// attributable round by round (e.g. "sample_sort.tree.up"). Defaults to
  /// the anonymous round label.
  std::string name = kDefaultStepName;
};

/// Serializable description of a RoundProgram, for execution backends that
/// cannot ship the step closures across an address-space boundary (the
/// multi-process transport in src/net/). A step function is code; its
/// *inputs* are data. A program that wants to run distributed therefore
/// names a registered worker-side factory (src/net/registry.hpp) and
/// carries everything that factory needs to rebuild the exact same program
/// over worker-local state:
///
///   * `scalars` — protocol parameters (fanout, record width, ...);
///   * `inputs`  — one word slab per machine, scattered so each worker
///     process receives only its machine block's share;
///   * `output_sink` — driver-side receiver for per-machine output slabs
///     the workers extract after the final round (protocols whose results
///     are written by compute-only steps rather than read from inboxes);
///   * `continue_with_votes` — driver-side replacement for
///     RoundProgram::continue_fn: at each pass barrier every worker
///     reduces a per-machine vote word over its block, the driver sums the
///     votes and this callback decides whether another pass runs (the
///     worker-side factory supplies the matching vote function).
///
/// Programs without a spec still execute on the in-process scheduler under
/// every backend — the spec is an opt-in contract, not a requirement.
struct RemoteSpec {
  std::string name;                       ///< registry key (net/registry.hpp)
  std::vector<Word> scalars;              ///< protocol parameters
  std::vector<std::vector<Word>> inputs;  ///< per-machine input slabs
  bool has_output = false;                ///< workers ship output slabs back
  bool has_vote = false;                  ///< pass continuation is voted
  std::function<void(std::size_t machine, std::span<const Word>)> output_sink;
  std::function<bool(std::size_t passes, Word vote_total)> continue_with_votes;
};

/// A declarative multi-round protocol: an ordered list of steps, optionally
/// repeated. Build with the fluent helpers:
///
///   engine::RoundProgram program;
///   program.independent(sample_step)
///          .independent(splitter_step)
///          .independent(route_step);
///   cluster.run_program(program);
///
/// Loops whose trip count is data-dependent (e.g. peeling until no vertex
/// moves) use repeat_while: after every full pass over `steps` — a full
/// barrier, all deliveries complete — the continue callback runs on the
/// calling thread, may inspect and update driver state, and decides whether
/// to run another pass.
struct RoundProgram {
  /// Post-pass decision hook: `passes` is the number of completed passes
  /// (1 after the first). Runs at a barrier on the calling thread.
  using ContinueFn = std::function<bool(std::size_t passes)>;

  std::vector<ProgramStep> steps;
  ContinueFn continue_fn;     ///< null: run the steps exactly once
  /// Safety cap on the pass count, consulted after continue_fn. The steps
  /// always execute at least one pass (the first pass runs before either
  /// is consulted) — a loop whose bound may be zero must guard the whole
  /// run_program call (see embedded_threshold_peeling's max_rounds == 0).
  std::size_t max_passes = 1;
  /// Serializable counterpart of the steps, set by distributable(). Null:
  /// the program can only execute in-process. Shared, not owned, so that
  /// copying a program (run_round wraps steps by value) stays cheap.
  std::shared_ptr<RemoteSpec> remote;
  /// Which machine owns which slice of the protocol's mutable state, set
  /// by owned() — the declaration ExecutionPolicy checked mode verifies
  /// the StepFn contracts against (check/ownership.hpp). Null: checked
  /// runs still replay independent steps and accept owned_span()
  /// registrations, but have no up-front state map. Shared like `remote`
  /// and for the same reason.
  std::shared_ptr<check::Ownership> ownership;
  /// Declared analytic cost model, set by costed() — per step label, the
  /// words/machine and round-count bounds the run is audited against after
  /// every Cluster::run_program (obs/cost_model.hpp). The program verifier
  /// requires every distributable program to either declare one or opt out
  /// explicitly with exempt_cost(). Shared like `remote`, same reason.
  std::shared_ptr<const obs::CostModel> cost;
  /// Explicit opt-out from the CostModel requirement, set by exempt_cost().
  /// Reserved for programs whose traffic is intentionally unmodeled (the
  /// adversarial check.* self-checks); real protocols declare bounds.
  bool cost_exempt = false;

  RoundProgram& independent(StepFn fn) {
    steps.push_back({std::move(fn), StepKind::kMachineIndependent});
    return *this;
  }

  /// Named variant: the round is charged to the ledger under `name` and
  /// cap-violation errors quote it.
  RoundProgram& independent(std::string name, StepFn fn) {
    steps.push_back(
        {std::move(fn), StepKind::kMachineIndependent, std::move(name)});
    return *this;
  }

  RoundProgram& barrier(StepFn fn) {
    steps.push_back({std::move(fn), StepKind::kBarrier});
    return *this;
  }

  RoundProgram& barrier(std::string name, StepFn fn) {
    steps.push_back({std::move(fn), StepKind::kBarrier, std::move(name)});
    return *this;
  }

  RoundProgram& repeat_while(
      ContinueFn fn,
      std::size_t passes = std::numeric_limits<std::size_t>::max()) {
    continue_fn = std::move(fn);
    max_passes = passes;
    return *this;
  }

  /// Attach the serializable description that lets a multi-process backend
  /// execute this program across address spaces (see RemoteSpec).
  RoundProgram& distributable(RemoteSpec spec) {
    remote = std::make_shared<RemoteSpec>(std::move(spec));
    return *this;
  }

  /// Attach the ownership declaration checked execution verifies the
  /// step contracts against (check/ownership.hpp).
  RoundProgram& owned(std::shared_ptr<check::Ownership> declaration) {
    ownership = std::move(declaration);
    return *this;
  }

  /// Attach the declared analytic cost model the post-run bound audit
  /// checks measured traffic against (obs/cost_model.hpp).
  RoundProgram& costed(std::shared_ptr<const obs::CostModel> model) {
    cost = std::move(model);
    return *this;
  }

  /// Explicitly opt out of the CostModel requirement (see `cost_exempt`).
  RoundProgram& exempt_cost() {
    cost_exempt = true;
    return *this;
  }

  /// Rounds one pass over the steps executes.
  std::size_t steps_per_pass() const noexcept { return steps.size(); }
};

/// Suffix quoting a step's name in round-indexed error messages, shared by
/// the in-process scheduler and the multi-process worker runtime so a cap
/// violation reads identically whichever side detects it. Anonymous steps
/// keep the bare message.
inline std::string step_name_suffix(const std::string& name) {
  return name == kDefaultStepName ? std::string() : " (" + name + ")";
}

/// What one executed round looked like, for ledger charging.
struct RoundStats {
  std::size_t max_sent = 0;      ///< largest per-machine send volume
  std::size_t max_received = 0;  ///< largest per-machine receive volume

  std::size_t max_traffic() const noexcept {
    return max_sent > max_received ? max_sent : max_received;
  }
};

/// What one executed program looked like.
struct ProgramStats {
  std::size_t rounds = 0;      ///< rounds fully executed (delivered)
  std::size_t passes = 0;      ///< passes over the step list
};

}  // namespace arbor::engine

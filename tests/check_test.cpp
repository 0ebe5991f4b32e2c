// Tests for the checker subsystem (src/check/): the always-on program
// verifier (malformed programs and RemoteSpec footguns rejected by name
// before anything executes), the model-race Monitor (deliberately
// mis-tagged and shared-accumulator programs caught with step + machines
// named, identically across in-process, loopback, and tcp execution), and
// the positive matrix — every registered protocol runs checked-clean on
// {serial, parallel} x {in-process, loopback:2, tcp:2} with outputs
// bit-identical to the unchecked serial reference.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/monitor.hpp"
#include "check/ownership.hpp"
#include "check/selfcheck.hpp"
#include "check/verify.hpp"
#include "graph/generators.hpp"
#include "local/mpc_embedding.hpp"
#include "mpc/broadcast.hpp"
#include "mpc/bundle_fetch.hpp"
#include "mpc/cluster.hpp"
#include "mpc/sample_sort.hpp"
#include "net/registry.hpp"
#include "net/storm.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace arbor::check {
namespace {

using engine::ExecutionPolicy;
using engine::Word;
using mpc::ClusterConfig;
using mpc::TransportConfig;

/// Expect an InvariantError whose message contains every needle.
template <typename Fn>
void expect_rejected(const Fn& fn,
                     const std::vector<std::string>& needles) {
  try {
    fn();
    FAIL() << "expected rejection naming \"" << needles.front() << "\"";
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    for (const std::string& needle : needles)
      EXPECT_NE(what.find(needle), std::string::npos)
          << "missing \"" << needle << "\" in: " << what;
  }
}

// -------------------------------------------------- program verifier

VerifyContext context(std::size_t machines = 4, std::size_t capacity = 256) {
  VerifyContext ctx;
  ctx.machines = machines;
  ctx.capacity = capacity;
  return ctx;
}

engine::StepFn noop_step() {
  return [](std::size_t, const engine::InboxView&, engine::Sender&) {};
}

TEST(ProgramVerifier, EmptyAndNullStepsRejected) {
  expect_rejected([] { verify_program({}, context()); },
                  {"program verifier: ", "no steps"});

  engine::RoundProgram null_fn;
  null_fn.steps.push_back({nullptr, engine::StepKind::kBarrier, "s"});
  expect_rejected([&] { verify_program(null_fn, context()); },
                  {"program verifier: ", "\"s\"", "null step function"});
}

TEST(ProgramVerifier, StepNameMustNotFlipKind) {
  engine::RoundProgram program;
  program.independent("level", noop_step());
  program.barrier("level", noop_step());
  expect_rejected(
      [&] { verify_program(program, context()); },
      {"program verifier: ", "\"level\"", "machine-independent",
       "barrier"});

  // Reusing a name at the SAME kind is legal (sample sort charges every
  // tree level to one label), and so are anonymous steps of mixed kinds.
  engine::RoundProgram reuse;
  reuse.independent("level", noop_step()).independent("level", noop_step());
  verify_program(reuse, context());
  engine::RoundProgram anonymous;
  anonymous.independent(noop_step()).barrier(noop_step());
  verify_program(anonymous, context());
}

TEST(ProgramVerifier, PassControlConsistency) {
  engine::RoundProgram program;
  program.barrier("s", noop_step());
  program.max_passes = 5;  // but no repeat_while
  expect_rejected([&] { verify_program(program, context()); },
                  {"program verifier: ", "max_passes is 5",
                   "no continue callback"});

  engine::RoundProgram zero;
  zero.barrier("s", noop_step());
  zero.repeat_while([](std::size_t) { return false; }, 3);
  zero.max_passes = 0;
  expect_rejected([&] { verify_program(zero, context()); },
                  {"program verifier: ", "max_passes 0"});
}

// The RemoteSpec footgun this subsystem was built to close: a spec whose
// flags and callbacks disagree used to surface deep inside the transport
// (or silently drop output). Now it is an early named error.
TEST(ProgramVerifier, RemoteSpecFootgunsRejectedByName) {
  const auto distributable = [](engine::RemoteSpec spec) {
    engine::RoundProgram program;
    program.barrier("spec.step", noop_step());
    program.distributable(std::move(spec));
    return program;
  };

  engine::RemoteSpec null_sink;
  null_sink.name = "spec.null_sink";
  null_sink.has_output = true;  // ...but no output_sink
  expect_rejected(
      [&] { verify_program(distributable(std::move(null_sink)), context()); },
      {"program verifier: ", "\"spec.null_sink\"",
       "has_output is true but output_sink is null"});

  engine::RemoteSpec sink_only;
  sink_only.name = "spec.sink_only";
  sink_only.output_sink = [](std::size_t, std::span<const Word>) {};
  expect_rejected(
      [&] { verify_program(distributable(std::move(sink_only)), context()); },
      {"program verifier: ", "output_sink is set but has_output is false"});

  engine::RemoteSpec vote_flag;
  vote_flag.name = "spec.vote_flag";
  vote_flag.has_vote = true;  // ...but no continue_with_votes
  expect_rejected(
      [&] { verify_program(distributable(std::move(vote_flag)), context()); },
      {"program verifier: ", "\"spec.vote_flag\"",
       "has_vote is true but continue_with_votes is null"});

  engine::RemoteSpec vote_cb;
  vote_cb.name = "spec.vote_cb";
  vote_cb.continue_with_votes = [](std::size_t, Word) { return false; };
  expect_rejected(
      [&] { verify_program(distributable(std::move(vote_cb)), context()); },
      {"program verifier: ", "continue_with_votes is set but has_vote is "
                             "false"});
}

TEST(ProgramVerifier, DistributableProgramsMustNameEveryStep) {
  engine::RoundProgram program;
  program.independent("named.step", noop_step());
  program.barrier(noop_step());  // anonymous
  engine::RemoteSpec spec;
  spec.name = "spec.anonymous";
  program.distributable(std::move(spec));
  expect_rejected([&] { verify_program(program, context()); },
                  {"program verifier: ", "\"spec.anonymous\"", "step 1",
                   "unnamed"});
}

TEST(ProgramVerifier, InputSlabsCheckedAgainstMachinesAndCapacity) {
  const auto with_inputs = [](std::vector<std::vector<Word>> inputs) {
    engine::RoundProgram program;
    program.barrier("spec.step", noop_step());
    engine::RemoteSpec spec;
    spec.name = "spec.inputs";
    spec.inputs = std::move(inputs);
    program.distributable(std::move(spec));
    return program;
  };

  expect_rejected(
      [&] { verify_program(with_inputs({{1}, {2}}), context(4, 256)); },
      {"program verifier: ", "2 slabs for 4 machines"});
  expect_rejected(
      [&] {
        verify_program(with_inputs({{}, {}, {}, std::vector<Word>(300, 7)}),
                       context(4, 256));
      },
      {"program verifier: ", "machine 3", "300 words",
       "per-machine budget S = 256"});
}

// Deep pass: the driver-side program must agree with what the registered
// factory rebuilds, because that is the program every worker actually runs.
TEST(ProgramVerifier, FactoryRebuildCrossChecked) {
  VerifyContext ctx = context(4, 4096);
  ctx.registry = &net::Registry::builtin();

  // A spec naming an unregistered program fails the lookup by name.
  engine::RoundProgram unknown;
  unknown.barrier("spec.step", noop_step());
  unknown.exempt_cost();  // fixtures probe the rebuild rules, not bounds
  engine::RemoteSpec spec;
  spec.name = "check.no_such_program";
  unknown.distributable(std::move(spec));
  expect_rejected([&] { verify_program(unknown, ctx); },
                  {"check.no_such_program"});

  // A driver program whose shape drifted from the registered factory's
  // rebuild is caught step by step. net.storm rebuilds one step named
  // "net.storm.scatter"; claim a different name on the driver side.
  engine::RoundProgram drift;
  drift.independent("net.storm.renamed", noop_step());
  drift.exempt_cost();
  engine::RemoteSpec storm_spec;
  storm_spec.name = "net.storm";
  // batch 16, ONE round: the factory builds one scatter step per round,
  // and the driver side declares exactly one (renamed) step.
  storm_spec.scalars = {16, 1};
  drift.distributable(std::move(storm_spec));
  expect_rejected([&] { verify_program(drift, ctx); },
                  {"program verifier: ", "\"net.storm\"",
                   "\"net.storm.renamed\" on the driver but "
                   "\"net.storm.scatter\" in the factory rebuild"});
}

// Verification is wired into Cluster::run_program unconditionally — the
// regression: a footgun spec must be named BEFORE any round executes.
TEST(ProgramVerifier, ClusterRejectsFootgunSpecBeforeExecuting) {
  ClusterConfig cfg{4, 256};
  mpc::Cluster cluster(cfg, nullptr);
  engine::RoundProgram program;
  program.barrier("spec.step", noop_step());
  engine::RemoteSpec spec;
  spec.name = "spec.null_sink";
  spec.has_output = true;
  program.distributable(std::move(spec));
  expect_rejected([&] { cluster.run_program(program); },
                  {"program verifier: ", "output_sink is null"});
  EXPECT_EQ(cluster.rounds_executed(), 0u);
}

// ----------------------------------------- checked-execution negatives

/// Run `make(machines)` under checked execution on every transport and
/// expect the same named violation from each.
void expect_caught_everywhere(engine::RoundProgram (*make)(std::size_t),
                              const std::vector<std::string>& needles) {
  for (const TransportConfig& transport :
       {TransportConfig{}, TransportConfig::loopback(2),
        TransportConfig::tcp(2)}) {
    ClusterConfig cfg{4, 256};
    cfg.transport = transport;
    cfg.execution = ExecutionPolicy::checked();
    mpc::Cluster cluster(cfg, nullptr);
    expect_rejected([&] { cluster.run_program(make(4)); }, needles);
  }
}

TEST(CheckedExecution, CrossMachineWriteCaughtWithStepAndMachinesNamed) {
  expect_caught_everywhere(
      make_cross_write_selfcheck,
      {"checked execution", "\"check.cross_write.step\"",
       "wrote state owned by machine", "slots["});
}

TEST(CheckedExecution, MisTaggedIndependentStepCaughtByOrderReplay) {
  expect_caught_everywhere(
      make_order_dependent_selfcheck,
      {"checked execution", "\"check.order_dependent.step\"",
       "machine execution order"});
}

TEST(CheckedExecution, SharedAccumulatorCaughtThroughOwnedSpan) {
  expect_caught_everywhere(
      make_shared_accumulator_selfcheck,
      {"checked execution", "\"check.shared_accumulator.step\"",
       "wrote state owned by machine 0"});
}

TEST(CheckedExecution, ContinueCallbackMutationCaught) {
  expect_caught_everywhere(
      make_continue_mutation_selfcheck,
      {"checked execution", "mutated state owned by machine",
       "machine-independent step \"check.continue_mutation.step\""});
}

// The violating write is identified precisely: cross_write's descending
// probe runs machine 3 first, which writes its successor's slot 0.
TEST(CheckedExecution, ViolationIsDeterministic) {
  for (int repeat = 0; repeat < 3; ++repeat) {
    ClusterConfig cfg{4, 256};
    cfg.execution = ExecutionPolicy::checked();
    mpc::Cluster cluster(cfg, nullptr);
    expect_rejected([&] { cluster.run_program(make_cross_write_selfcheck(4)); },
                    {"machine 3 wrote state owned by machine 0"});
  }
}

TEST(CheckedExecution, ParallelPolicyCatchesTheSameViolation) {
  ClusterConfig cfg{4, 256};
  cfg.execution = ExecutionPolicy::parallel(2).with_check(true);
  mpc::Cluster cluster(cfg, nullptr);
  expect_rejected([&] { cluster.run_program(make_cross_write_selfcheck(4)); },
                  {"\"check.cross_write.step\"",
                   "machine 3 wrote state owned by machine 0"});
}

TEST(CheckedExecution, OwnedSpanIsANoOpWhenNoCheckedRunIsActive) {
  std::vector<Word> state(4, 7);
  owned_span(2, std::span<Word>(state));  // must not throw or touch state
  EXPECT_EQ(state, (std::vector<Word>{7, 7, 7, 7}));
}

TEST(CheckedExecution, CleanSelfOwnedProgramPassesChecked) {
  // The shared_accumulator shape minus the violation: every machine
  // accumulates into ITS OWN slot through owned_span.
  auto slots = std::make_shared<std::vector<Word>>(4, 0);
  engine::RoundProgram program;
  program.independent("check_test.clean.step",
                      [slots](std::size_t m, const engine::InboxView&,
                              engine::Sender& send) {
                        owned_span(m, {slots->data() + m, 1});
                        (*slots)[m] += static_cast<Word>(m + 1);
                        send.send(m, std::vector<Word>{(*slots)[m]});
                      });
  ClusterConfig cfg{4, 256};
  cfg.execution = ExecutionPolicy::checked();
  mpc::Cluster cluster(cfg, nullptr);
  cluster.run_program(program);
  EXPECT_EQ(*slots, (std::vector<Word>{1, 2, 3, 4}));
}

// ------------------------------------------------- positive matrix

/// Run `body(cluster, first)` once unchecked on the serial in-process
/// reference, then under checked execution on {serial, parallel(2)} x
/// {in-process, loopback:2, tcp:2}. The body captures its reference
/// output on the first call and EXPECTs equality after — checked
/// execution must change nothing observable.
template <typename RunFn>
void expect_checked_clean(const char* what, const RunFn& body,
                          std::size_t machines = 8,
                          std::size_t capacity = 4096) {
  {
    const ClusterConfig cfg{machines, capacity};
    mpc::Cluster cluster(cfg, nullptr);
    body(cluster, true);
  }
  int mode = 0;
  for (const ExecutionPolicy& policy :
       {ExecutionPolicy::checked(),
        ExecutionPolicy::parallel(2).with_check(true)}) {
    for (const TransportConfig& transport :
         {TransportConfig{}, TransportConfig::loopback(2),
          TransportConfig::tcp(2)}) {
      SCOPED_TRACE(std::string(what) + " checked mode " +
                   std::to_string(mode++));
      ClusterConfig cfg{machines, capacity};
      cfg.execution = policy;
      cfg.transport = transport;
      mpc::Cluster cluster(cfg, nullptr);
      body(cluster, false);
    }
  }
}

std::vector<std::vector<Word>> random_slabs(std::size_t machines,
                                            std::size_t per_machine,
                                            std::uint64_t seed) {
  util::SplitRng rng(seed);
  std::vector<std::vector<Word>> slabs(machines);
  for (auto& slab : slabs)
    for (std::size_t i = 0; i < per_machine; ++i)
      slab.push_back(rng.next_below(1u << 20));
  return slabs;
}

TEST(CheckedMatrix, SampleSortTree) {
  const auto input = random_slabs(8, 48, 221);
  std::vector<std::vector<Word>> reference;
  expect_checked_clean("sample_sort", [&](mpc::Cluster& cluster, bool first) {
    const mpc::RecordSortResult result = sample_sort_records(cluster, input, 1);
    if (first)
      reference = result.slabs;
    else
      EXPECT_EQ(result.slabs, reference);
  });
}

TEST(CheckedMatrix, RecordSampleSort) {
  util::SplitRng rng(223);
  std::vector<std::vector<Word>> input(8);
  std::size_t payload = 0;
  for (auto& slab : input)
    for (int r = 0; r < 24; ++r) {
      slab.push_back(rng.next_below(8));
      slab.push_back(payload++);
    }
  std::vector<std::vector<Word>> reference;
  expect_checked_clean(
      "sample_sort_records", [&](mpc::Cluster& cluster, bool first) {
        const mpc::RecordSortResult result =
            sample_sort_records(cluster, input, 2, 1);
        if (first)
          reference = result.slabs;
        else
          EXPECT_EQ(result.slabs, reference);
      });
}

TEST(CheckedMatrix, BroadcastAndConverge) {
  std::vector<std::vector<Word>> reference_copies;
  expect_checked_clean("broadcast", [&](mpc::Cluster& cluster, bool first) {
    const mpc::BroadcastResult result =
        broadcast_tree(cluster, 3, {7, 8, 9}, 2);
    if (first)
      reference_copies = result.copies;
    else
      EXPECT_EQ(result.copies, reference_copies);
  });
  expect_checked_clean("converge", [&](mpc::Cluster& cluster, bool) {
    std::vector<Word> values(cluster.num_machines());
    for (std::size_t m = 0; m < values.size(); ++m) values[m] = m * 3 + 1;
    const mpc::ConvergeResult result = converge_sum(cluster, 2, values, 2);
    EXPECT_EQ(result.sum, 92u);
  });
}

TEST(CheckedMatrix, BundleFetch) {
  std::vector<std::vector<Word>> bundles(12);
  std::vector<std::vector<graph::VertexId>> requests(12);
  util::SplitRng rng(224);
  for (std::size_t v = 0; v < bundles.size(); ++v)
    for (std::size_t i = 0; i <= rng.next_below(3); ++i)
      bundles[v].push_back(v * 100 + i);
  for (std::size_t u = 0; u < requests.size(); ++u)
    for (std::size_t i = 0; i < rng.next_below(4); ++i)
      requests[u].push_back(rng.next_below(bundles.size()));
  std::vector<std::vector<std::vector<Word>>> reference;
  expect_checked_clean(
      "bundle_fetch", [&](mpc::Cluster& cluster, bool first) {
        const mpc::Level0BundleFetchResult result =
            fetch_bundles_program(cluster, bundles, requests);
        if (first)
          reference = result.delivered;
        else
          EXPECT_EQ(result.delivered, reference);
      });
}

TEST(CheckedMatrix, EmbeddedPeeling) {
  util::SplitRng rng(225);
  const graph::Graph g = graph::gnm(200, 600, rng);
  std::vector<std::uint32_t> reference_layers;
  std::uint32_t reference_num_layers = 0;
  expect_checked_clean("peeling", [&](mpc::Cluster& cluster, bool first) {
    const local::EmbeddedPeelingResult result =
        local::embedded_threshold_peeling(g, 6, cluster, 100);
    if (first) {
      reference_layers = result.layer;
      reference_num_layers = result.num_layers;
    } else {
      EXPECT_EQ(result.layer, reference_layers);
      EXPECT_EQ(result.num_layers, reference_num_layers);
    }
  });
}

TEST(CheckedMatrix, Storm) {
  const auto make_storm = [](std::size_t machines) {
    auto st = std::make_shared<net::StormState>();
    st->machines = machines;
    st->batch = 16;
    st->rounds = 8;
    st->slabs = random_slabs(machines, 16, 226);
    return net::make_distributable_storm_program(st);
  };
  std::vector<std::vector<std::vector<Word>>> reference;
  expect_checked_clean("storm", [&](mpc::Cluster& cluster, bool first) {
    cluster.run_program(make_storm(cluster.num_machines()));
    std::vector<std::vector<std::vector<Word>>> inboxes;
    for (std::size_t m = 0; m < cluster.num_machines(); ++m) {
      inboxes.emplace_back();
      for (const auto& msg : cluster.inbox(m))
        inboxes.back().emplace_back(msg.begin(), msg.end());
    }
    if (first)
      reference = inboxes;
    else
      EXPECT_EQ(inboxes, reference);
  });
}

// Every registered builtin program name resolves — the registry the
// verifier's deep pass trusts is the one the workers use.
TEST(CheckedMatrix, SelfCheckProgramsAreRegistered) {
  const net::Registry& registry = net::Registry::builtin();
  for (const char* name :
       {"check.cross_write", "check.order_dependent",
        "check.shared_accumulator", "check.underdeclared",
        "check.continue_mutation"})
    EXPECT_NO_THROW(registry.find(name)) << name;
}

}  // namespace
}  // namespace arbor::check

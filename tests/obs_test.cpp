// Tests for the round observatory (src/obs/): every registered protocol
// runs with its declared CostModel and inside its bounds, RunReports are
// structurally identical across {serial, parallel} x {in-process,
// loopback, tcp}, the post-run bound audit catches an under-declared
// program by name in checked mode (and counts it in unchecked mode), the
// stall watchdog flags an artificially slow step, histogram drop
// accounting surfaces, and the analytic pipeline's ledger audits clean
// against pipeline_cost_model.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/selfcheck.hpp"
#include "check/verify.hpp"
#include "core/layering_pipeline.hpp"
#include "core/orientation_mpc.hpp"
#include "graph/generators.hpp"
#include "local/mpc_embedding.hpp"
#include "mpc/broadcast.hpp"
#include "mpc/bundle_fetch.hpp"
#include "mpc/cluster.hpp"
#include "mpc/config.hpp"
#include "mpc/ledger.hpp"
#include "mpc/primitives.hpp"
#include "mpc/sample_sort.hpp"
#include "net/storm.hpp"
#include "obs/cost_model.hpp"
#include "obs/report.hpp"
#include "obs/watchdog.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace arbor::obs {
namespace {

using engine::ExecutionPolicy;
using engine::Word;
using mpc::ClusterConfig;
using mpc::TransportConfig;

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

std::shared_ptr<net::StormState> storm_state(std::size_t machines,
                                             std::size_t batch,
                                             std::size_t rounds,
                                             std::uint64_t seed) {
  auto st = std::make_shared<net::StormState>();
  st->machines = machines;
  st->batch = batch;
  st->rounds = rounds;
  st->slabs = random_slabs(machines, 16, seed);
  return st;
}

/// The most recent report for `program` must exist, cover every label
/// with a declared bound, and violate none of them.
void expect_bounded_clean(const std::string& program) {
  const auto report = ReportLog::global().last(program);
  ASSERT_TRUE(report.has_value()) << "no RunReport logged for " << program;
  ASSERT_FALSE(report->labels.empty()) << program;
  for (const LabelReport& label : report->labels) {
    EXPECT_TRUE(label.bounded)
        << program << " label \"" << label.label << "\" has no bound";
    EXPECT_FALSE(label.violates_bound())
        << program << " label \"" << label.label << "\" peak "
        << label.peak_words << " vs bound " << label.bound_words;
    EXPECT_LE(label.headroom, 1.0) << program << " " << label.label;
  }
}

// ------------------------------------------------- declared cost coverage

// Every registered protocol runs with a CostModel whose bounds hold on a
// real execution — the acceptance criterion behind the lint rule and the
// verifier's CostModel requirement.
TEST(CostModels, AllSixRegisteredProtocolsRunBounded) {
  ReportLog::global().clear();

  {  // mpc.sample_sort
    mpc::Cluster cluster(ClusterConfig{8, 8192}, nullptr);
    sample_sort(cluster, random_slabs(8, 32, 11));
    expect_bounded_clean("mpc.sample_sort");
  }
  {  // mpc.sample_sort_records
    mpc::Cluster cluster(ClusterConfig{8, 8192}, nullptr);
    sample_sort_records(cluster, random_slabs(8, 32, 13), 2, 1);
    expect_bounded_clean("mpc.sample_sort_records");
  }
  {  // mpc.broadcast_tree + mpc.converge_sum
    mpc::Cluster cluster(ClusterConfig{8, 1024}, nullptr);
    mpc::broadcast_tree(cluster, 0, {1, 2, 3}, 2);
    expect_bounded_clean("mpc.broadcast_tree");
    mpc::converge_sum(cluster, 0, std::vector<Word>(8, 2), 2);
    expect_bounded_clean("mpc.converge_sum");
  }
  {  // mpc.fetch_bundles
    mpc::Cluster cluster(ClusterConfig{4, 4096}, nullptr);
    std::vector<std::vector<Word>> bundles(8);
    std::vector<std::vector<graph::VertexId>> requests(8);
    for (std::size_t v = 0; v < 8; ++v) {
      bundles[v] = {static_cast<Word>(v), static_cast<Word>(v + 100)};
      requests[v] = {static_cast<graph::VertexId>((v + 1) % 8),
                     static_cast<graph::VertexId>((v + 3) % 8)};
    }
    mpc::fetch_bundles_program(cluster, bundles, requests);
    expect_bounded_clean("mpc.fetch_bundles");
  }
  {  // local.embedded_peeling
    util::SplitRng rng(14);
    const graph::Graph g = graph::gnm(200, 600, rng);
    mpc::Cluster cluster(ClusterConfig{8, 1 << 14}, nullptr);
    const auto result = local::embedded_threshold_peeling(g, 6, cluster, 100);
    EXPECT_TRUE(result.complete);
    expect_bounded_clean("local.embedded_peeling");
  }
}

// ----------------------------------------------- RunReport determinism

// The structural subset of a RunReport (rounds, peaks, totals, bounds,
// headroom per label) is built from driver-side RoundStats, which are
// bit-identical on every backend — so the serialized structural document
// must not change across policies or transports.
TEST(RunReport, StructuralJsonIdenticalAcrossBackends) {
  std::vector<std::string> documents;
  for (const ExecutionPolicy& policy :
       {ExecutionPolicy::serial(), ExecutionPolicy::parallel(2)}) {
    for (const TransportConfig& transport :
         {TransportConfig{}, TransportConfig::loopback(2),
          TransportConfig::tcp(2)}) {
      ClusterConfig cfg{8, 4096};
      cfg.execution = policy;
      cfg.transport = transport;
      mpc::RoundLedger ledger(cfg);
      mpc::Cluster cluster(cfg, &ledger);
      ReportLog::global().clear();
      cluster.run_program(
          net::make_distributable_storm_program(storm_state(8, 16, 12, 9)));
      const auto report = ReportLog::global().last("net.storm");
      ASSERT_TRUE(report.has_value());
      EXPECT_FALSE(report->labels.empty());
      documents.push_back(report->structural_json());
    }
  }
  for (std::size_t i = 1; i < documents.size(); ++i)
    EXPECT_EQ(documents[i], documents[0]) << "backend " << i;
}

// --------------------------------------------------------- bound audit

/// Expect fn() to raise a VerifyError whose message contains every needle.
template <typename Fn>
void expect_bound_rejected(const Fn& fn,
                           const std::vector<std::string>& needles) {
  try {
    fn();
    FAIL() << "expected a bound-audit VerifyError";
  } catch (const check::VerifyError& e) {
    const std::string what = e.what();
    for (const std::string& needle : needles)
      EXPECT_NE(what.find(needle), std::string::npos)
          << "missing \"" << needle << "\" in: " << what;
  }
}

TEST(BoundAudit, UnderdeclaredProgramCaughtByNameOnEveryBackend) {
  for (const TransportConfig& transport :
       {TransportConfig{}, TransportConfig::loopback(2),
        TransportConfig::tcp(2)}) {
    ClusterConfig cfg{4, 256};
    cfg.transport = transport;
    cfg.execution = ExecutionPolicy::checked();
    mpc::Cluster cluster(cfg, nullptr);
    expect_bound_rejected(
        [&] { cluster.run_program(check::make_underdeclared_selfcheck(4)); },
        {"bound audit", "\"check.underdeclared\"",
         "\"check.underdeclared.step\"", "exceeds declared bound"});
  }
}

TEST(BoundAudit, UncheckedRunCountsTheViolationInsteadOfThrowing) {
  trace::MetricsRegistry& metrics = trace::Tracer::global().metrics();
  const std::uint64_t before =
      metrics.counter("obs.bound_violations").value_or(0);
  mpc::Cluster cluster(ClusterConfig{4, 256}, nullptr);
  cluster.run_program(check::make_underdeclared_selfcheck(4));  // no throw
  EXPECT_GT(metrics.counter("obs.bound_violations").value_or(0), before);
}

TEST(BoundAudit, EnforceBoundsNamesLabelAndFormula) {
  auto cost = std::make_shared<CostModel>("obs_test.program");
  cost->bound("obs_test.step", 10, 2, "10 words (test formula)");
  std::vector<LabelUsage> usage;
  usage.push_back({"obs_test.step", 1, 25, 25});
  const RunReport report = make_run_report("obs_test.program", "serial", 4,
                                           256, 0, usage, cost.get());
  ASSERT_EQ(report.labels.size(), 1u);
  EXPECT_TRUE(report.labels[0].violates_bound());
  EXPECT_GT(report.labels[0].headroom, 1.0);
  expect_bound_rejected(
      [&] { enforce_bounds(report, /*checked=*/true); },
      {"bound audit", "\"obs_test.program\"", "\"obs_test.step\"",
       "test formula"});
  EXPECT_EQ(enforce_bounds(report, /*checked=*/false), 1u);
}

// ------------------------------------------------------------ watchdog

TEST(Watchdog, FlagsAnArtificiallyStalledStep) {
  Watchdog& dog = Watchdog::global();
  const WatchdogConfig saved = dog.config();
  WatchdogConfig aggressive;
  aggressive.enabled = true;
  aggressive.factor = 2.0;
  aggressive.floor_ms = 20;
  dog.configure(aggressive);
  const std::uint64_t before = dog.stalls_flagged();

  // A few fast rounds seed the trailing median, then one step sleeps far
  // past max(floor, factor x median) so the monitor thread (polling every
  // ~10 ms) must flag it while it is still running.
  engine::RoundProgram program;
  for (int r = 0; r < 3; ++r)
    program.independent("obs_test.fast",
                        [](std::size_t m, const engine::InboxView&,
                           engine::Sender& send) {
                          send.send(m, std::vector<Word>{1});
                        });
  program.independent("obs_test.stall",
                      [](std::size_t m, const engine::InboxView&,
                         engine::Sender&) {
                        if (m == 0)
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(250));
                      });
  mpc::Cluster cluster(ClusterConfig{2, 64}, nullptr);
  cluster.run_program(program);

  EXPECT_GT(dog.stalls_flagged(), before);
  dog.configure(saved);
}

TEST(Watchdog, KnobParsesStrictly) {
  EXPECT_FALSE(parse_watchdog_flag("off", "ARBOR_WATCHDOG").enabled);
  const WatchdogConfig on = parse_watchdog_flag("on", "ARBOR_WATCHDOG");
  EXPECT_TRUE(on.enabled);
  EXPECT_DOUBLE_EQ(on.factor, 8.0);
  EXPECT_EQ(on.floor_ms, 100u);
  const WatchdogConfig tuned =
      parse_watchdog_flag("on:4:250", "ARBOR_WATCHDOG");
  EXPECT_DOUBLE_EQ(tuned.factor, 4.0);
  EXPECT_EQ(tuned.floor_ms, 250u);
  EXPECT_THROW(parse_watchdog_flag("sometimes", "ARBOR_WATCHDOG"),
               InvariantError);
  EXPECT_THROW(parse_watchdog_flag("on:0.5", "ARBOR_WATCHDOG"),
               InvariantError);
}

// ---------------------------------------------------- histogram drops

TEST(Metrics, HistogramDropCountSurfacesPastTheSampleCap) {
  trace::MetricsRegistry metrics;
  for (std::size_t i = 0; i < trace::kMaxHistogramSamples + 5; ++i)
    metrics.observe("obs_test.hist", 1.0);
  const auto hist = metrics.histogram("obs_test.hist");
  ASSERT_TRUE(hist.has_value());
  EXPECT_EQ(hist->count, trace::kMaxHistogramSamples + 5);
  EXPECT_EQ(hist->samples.size(), trace::kMaxHistogramSamples);
  EXPECT_EQ(hist->dropped(), 5u);
}

// ------------------------------------------------- pipeline ledger audit

TEST(PipelineBounds, RealLayeringRunAuditsCleanAgainstTheModel) {
  util::SplitRng rng(3);
  const graph::Graph g = graph::forest_union(300, 3, rng);
  const auto cfg =
      mpc::ClusterConfig::for_problem(g.num_vertices(), g.num_edges(), 0.6);
  mpc::RoundLedger ledger(cfg);
  mpc::MpcContext ctx(cfg, &ledger);
  const std::size_t k = core::estimate_density_parameter(g);
  const auto result =
      core::complete_layering(g, core::PipelineParams::practical(k), ctx);
  EXPECT_TRUE(result.assignment.is_complete());

  const auto model = pipeline_cost_model(g.num_vertices());
  const auto violations =
      audit_ledger_bounds(ledger.rounds_by_label(),
                          ledger.peak_traffic_by_label(), *model,
                          cfg.words_per_machine);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: " << violations.front();

  // The same ledger against a deliberately tiny model must be flagged.
  ASSERT_TRUE(ledger.rounds_by_label().count("layering.peel"));
  CostModel tiny("obs_test.tiny");
  tiny.bound("layering.peel", kWordsCapacity, 1,
             "1 round (deliberately tiny)");
  EXPECT_FALSE(audit_ledger_bounds(ledger.rounds_by_label(),
                                   ledger.peak_traffic_by_label(), tiny,
                                   cfg.words_per_machine)
                   .empty());
}

// ---------------------------------------------- verifier cost coverage

engine::StepFn noop_step() {
  return [](std::size_t, const engine::InboxView&, engine::Sender&) {};
}

TEST(CostVerifier, DistributableProgramsMustDeclareOrExempt) {
  check::VerifyContext ctx;
  ctx.machines = 4;
  ctx.capacity = 256;
  const auto make = [] {
    engine::RoundProgram program;
    program.barrier("obs_test.step", noop_step());
    engine::RemoteSpec spec;
    spec.name = "obs_test.program";
    program.distributable(std::move(spec));
    return program;
  };

  expect_bound_rejected([&] { check::verify_program(make(), ctx); },
                        {"no CostModel declared", "exempt_cost"});

  {  // a bound naming a step that does not exist
    engine::RoundProgram program = make();
    auto cost = std::make_shared<CostModel>("obs_test.model");
    cost->bound("obs_test.step", 1, 1, "1");
    cost->bound("obs_test.ghost", 1, 1, "1");
    program.costed(std::move(cost));
    expect_bound_rejected([&] { check::verify_program(program, ctx); },
                          {"\"obs_test.ghost\"", "names no step"});
  }
  {  // a step with no declared bound
    engine::RoundProgram program = make();
    program.costed(std::make_shared<CostModel>("obs_test.model"));
    expect_bound_rejected([&] { check::verify_program(program, ctx); },
                          {"\"obs_test.step\"", "no declared bound"});
  }
  {  // explicit opt-out passes
    engine::RoundProgram program = make();
    program.exempt_cost();
    check::verify_program(program, ctx);
  }
}

}  // namespace
}  // namespace arbor::obs

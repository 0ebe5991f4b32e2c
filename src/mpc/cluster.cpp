#include "mpc/cluster.hpp"

#include <utility>

#include "check/verify.hpp"
#include "net/process_group.hpp"
#include "net/registry.hpp"
#include "obs/cost_model.hpp"
#include "obs/report.hpp"
#include "obs/watchdog.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace arbor::mpc {
namespace {

engine::Engine& deref_engine(engine::Engine* e) {
  ARBOR_CHECK_MSG(e != nullptr, "Cluster requires a non-null engine");
  return *e;
}

// Tracing is opt-in per ClusterConfig but recorded globally (the engine
// and driver-side net spans go through Tracer::global()). raise_mode never
// lowers: a traced cluster coexisting with untraced ones keeps tracing.
void arm_tracer(const ClusterConfig& config) {
  if (config.trace.mode == trace::Mode::kOff) return;
  trace::Tracer& tracer = trace::Tracer::global();
  tracer.raise_mode(config.trace.mode);
  if (!config.trace.path.empty()) tracer.set_path(config.trace.path);
}

// RunReport backend string — diagnostic only (structural_json excludes it;
// a shared-engine cluster reports its config's transport even though the
// owning context may have installed a different backend).
std::string backend_string(const ClusterConfig& config) {
  switch (config.transport.kind) {
    case TransportConfig::Kind::kLoopback:
      return "loopback:" + std::to_string(config.transport.workers);
    case TransportConfig::Kind::kTcp:
      return "tcp:" + std::to_string(config.transport.workers);
    default:
      break;
  }
  if (config.execution.is_parallel())
    return "parallel(" + std::to_string(config.execution.threads) + ")";
  return config.execution.check ? "checked" : "serial";
}

// Arena high-water mark: words of message storage the cluster's RoundState
// currently retains (capacity, not size — what a pooled cluster holds on
// to between programs).
std::size_t arena_high_water(const engine::RoundState& state) {
  std::size_t words = 0;
  for (const engine::Inbox& inbox : state.inboxes)
    words += inbox.held.capacity();
  for (const auto& bank : state.outbox_banks)
    for (const engine::Outbox& outbox : bank) words += outbox.words.capacity();
  return words;
}

}  // namespace

Cluster::Cluster(ClusterConfig config, RoundLedger* ledger)
    : config_(config),
      ledger_(ledger),
      owned_engine_(std::make_unique<engine::Engine>(config.execution)),
      engine_(owned_engine_.get()),
      state_(config.num_machines) {
  ARBOR_CHECK(config.num_machines > 0);
  ARBOR_CHECK(config.words_per_machine > 0);
  arm_tracer(config);
  if (!config.transport.in_process()) {
    backend_ = net::make_multiprocess_backend(config);
    owned_engine_->set_backend(backend_.get());
  }
}

Cluster::Cluster(ClusterConfig config, RoundLedger* ledger,
                 engine::Engine* engine)
    : config_(config),
      ledger_(ledger),
      engine_(&deref_engine(engine)),
      state_(config.num_machines) {
  ARBOR_CHECK(config.num_machines > 0);
  ARBOR_CHECK(config.words_per_machine > 0);
  arm_tracer(config);
}

void Cluster::preload(std::size_t dst, std::span<const Word> payload) {
  ARBOR_CHECK(dst < state_.num_machines());
  state_.preload(dst, payload, config_.words_per_machine);
}

engine::ProgramStats Cluster::run_program(const RoundProgram& program) {
  // Static verification before the first compute phase: a malformed
  // program (null sink behind has_output, vote flag without a callback,
  // unnamed distributable step, ...) fails here with a VerifyError quoting
  // step and field, while the stack still points at the code that built
  // it. Checked execution additionally cross-checks the spec against its
  // registered worker-side factory — the rebuild every remote worker runs.
  check::VerifyContext vctx;
  vctx.machines = config_.num_machines;
  vctx.capacity = config_.words_per_machine;
  if (config_.execution.check && program.remote)
    vctx.registry = &net::Registry::builtin();
  check::verify_program(program, vctx);

  // Rounds are charged as they commit (caps validated, stats final), so a
  // program that throws mid-way leaves the ledger reflecting exactly the
  // rounds the imperative run_round loop would have charged — in every
  // mode. Each round is charged under its step's name (the hook fires
  // once per round in step order on every backend, so the label is
  // recovered from the per-program round counter). The same hook
  // accumulates the per-label usage the post-run RunReport and bound audit
  // consume — driver-side aggregates, bit-identical across backends and
  // transports.
  std::vector<obs::LabelUsage> usage;
  usage.reserve(program.steps_per_pass());
  obs::Watchdog::ProgramScope watchdog(obs::Watchdog::global(), program,
                                       obs::program_name(program));
  std::size_t program_round = 0;
  const engine::ProgramStats stats = engine_->run_program(
      state_, config_.words_per_machine, rounds_, program,
      [this, &program, &program_round, &usage,
       &watchdog](const engine::RoundStats& round_stats) {
        const std::string& label =
            program.steps[program_round % program.steps_per_pass()].name;
        ++program_round;
        ++rounds_;
        if (ledger_) {
          ledger_->charge(1, label);
          ledger_->note_round_traffic(round_stats.max_traffic(), label);
        }
        trace::Tracer& tracer = trace::Tracer::global();
        if (tracer.metrics_on()) {
          // Mirror of the ledger charge above, so the telemetry report can
          // be cross-checked against ledger totals word for word
          // (tests/trace_test.cpp).
          trace::MetricsRegistry& metrics = tracer.metrics();
          metrics.add("cluster.rounds." + label, 1);
          metrics.add("cluster.round_words." + label,
                      round_stats.max_traffic());
        }
        obs::LabelUsage* entry = nullptr;
        for (obs::LabelUsage& candidate : usage)
          if (candidate.label == label) {
            entry = &candidate;
            break;
          }
        if (entry == nullptr) {
          usage.push_back(obs::LabelUsage{label, 0, 0, 0});
          entry = &usage.back();
        }
        ++entry->rounds;
        const std::size_t traffic = round_stats.max_traffic();
        entry->total_words += traffic;
        if (traffic > entry->peak_words) entry->peak_words = traffic;
        watchdog.round_committed();
      });

  // Join what the run measured with what the program declared, log the
  // report, and audit: headroom > 1.0 is a named VerifyError under checked
  // execution, a warning counter otherwise (obs/report.hpp).
  obs::RunReport report = obs::make_run_report(
      obs::program_name(program), backend_string(config_),
      config_.num_machines, config_.words_per_machine,
      arena_high_water(state_), std::move(usage), program.cost.get());
  obs::ReportLog::global().record(report);  // logged even when the audit throws
  obs::enforce_bounds(report, config_.execution.check);
  return stats;
}

void Cluster::run_round(const StepFn& step) {
  RoundProgram program;
  program.barrier(step);
  run_program(program);
}

InboxView Cluster::inbox(std::size_t m) const {
  ARBOR_CHECK(m < state_.num_machines());
  return state_.inbox(m);
}

}  // namespace arbor::mpc

// Level-0 MPC simulator: explicit machines exchanging word-counted messages
// in synchronous rounds, with the model's per-machine traffic cap enforced.
//
// The algorithm layer (core/, baselines/) is written against the Level-1
// primitives in mpc/primitives.hpp, which charge analytic costs. This
// cluster exists to ground those costs: the framework tests execute real
// distributed dataflows (sample sort, broadcast trees) on it and check they
// respect the same budgets the primitives charge. It also backs the LOCAL
// model embedding used by baseline round-per-round simulation.
//
// Round execution is delegated to engine::Engine (src/engine/): the
// ExecutionPolicy knob on ClusterConfig selects the serial reference
// executor or the thread-pool-backed parallel engine. Protocols declare
// their rounds as engine::RoundPrograms (run_program) — a sequence of step
// descriptors, each tagged machine-independent or barrier (checked
// execution verifies the tag); run_round survives as the one-step program.
// Every mode — serial, parallel, or checked — produces bit-identical
// inboxes and ledger totals (tests/engine_test.cpp,
// tests/level0_programs_test.cpp), so any program written against this API
// can be flipped between executors without behavioural change — PROVIDED
// its step functions honour the engine::StepFn concurrency contract (and,
// for steps tagged machine-independent, the stricter contract in
// src/engine/program.hpp): under a parallel policy steps run concurrently
// for different machines and must only write machine-owned state.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "engine/engine.hpp"
#include "engine/inbox.hpp"
#include "engine/outbox.hpp"
#include "mpc/config.hpp"
#include "mpc/ledger.hpp"

namespace arbor::mpc {

/// Outgoing-message sink handed to the per-machine step function; enforces
/// the sender-side traffic cap as messages are queued.
using Sender = engine::Sender;

/// Read-only views over a machine's received messages.
using InboxView = engine::InboxView;
using MessageView = engine::MessageView;

/// Declarative multi-round protocol descriptor (see engine/program.hpp).
using RoundProgram = engine::RoundProgram;

class Cluster {
 public:
  /// Step function: (machine id, messages received last round, sender).
  using StepFn = engine::StepFn;

  /// Executes with an engine built from `config.execution`. When
  /// `config.transport` selects the loopback or tcp transport, a
  /// net::MultiProcessBackend (owning the worker group) is installed on
  /// that engine: distributable programs then execute across the workers,
  /// programs without a RemoteSpec keep running in-process.
  Cluster(ClusterConfig config, RoundLedger* ledger);

  /// Executes on `engine` (not owned; must outlive the cluster). Lets many
  /// clusters share one worker pool, e.g. via MpcContext::engine().
  /// `config.transport` is ignored here — a shared engine's backend is the
  /// engine owner's decision.
  Cluster(ClusterConfig config, RoundLedger* ledger, engine::Engine* engine);

  std::size_t num_machines() const noexcept { return config_.num_machines; }
  std::size_t capacity() const noexcept { return config_.words_per_machine; }
  std::size_t rounds_executed() const noexcept { return rounds_; }
  const engine::Engine& engine() const noexcept { return *engine_; }
  const ClusterConfig& config() const noexcept { return config_; }

  /// Repoint the ledger the next program's rounds are charged to. Exists
  /// for pooled clusters (MpcContext's internal sort pool): one long-lived
  /// cluster serves many sorts, each of which grounds its rounds on its
  /// own short-lived ledger. Null detaches (rounds still execute, nothing
  /// is charged) — callers must detach before their ledger dies.
  void set_ledger(RoundLedger* ledger) noexcept { ledger_ = ledger; }

  /// Reset for pooled reuse across programs: drop every queued inbox
  /// message, keeping arena capacity. Without this a reused cluster would
  /// hand the previous program's final inboxes to the next program's first
  /// round — and the net/ transport would re-ship them as preinbox
  /// frames. Outbox banks need no reset (every round clears its own), and
  /// the round counter keeps accumulating (callers diff rounds_executed()).
  void reset_inboxes() noexcept { state_.clear_inboxes(); }

  /// True when a multi-process backend is installed: distributable
  /// programs will execute across worker runtimes. Protocols use this to
  /// skip building the (input-copying) RemoteSpec when nothing would read
  /// it.
  bool distributed() const noexcept { return engine_->backend() != nullptr; }

  /// Deliver `payload` into machine `dst`'s inbox before the first round
  /// (input loading; not charged as a round). Copies straight into the
  /// inbox storage; the caller keeps ownership of its buffer.
  void preload(std::size_t dst, std::span<const Word> payload);
  void preload(std::size_t dst, std::initializer_list<Word> payload) {
    preload(dst, std::span<const Word>(payload.begin(), payload.size()));
  }

  /// Execute a RoundProgram: every step is one synchronous round charged
  /// to the ledger individually. Returns the program's execution stats
  /// (rounds, passes).
  engine::ProgramStats run_program(const RoundProgram& program);

  /// Execute one synchronous round — a one-step barrier program: every
  /// machine sees its inbox, emits messages; receiver-side volume is
  /// validated once per machine; inboxes swap.
  void run_round(const StepFn& step);

  /// Messages currently waiting at machine `m` (for inspection/tests).
  InboxView inbox(std::size_t m) const;

 private:
  ClusterConfig config_;
  RoundLedger* ledger_;  // not owned; may be null
  std::size_t rounds_ = 0;
  /// Multi-process transport backend when config_.transport asks for one
  /// (installed on the owned engine; distributable programs route through
  /// it, everything else keeps running in-process). Declared before the
  /// engine so the engine's pointer never outlives it.
  std::unique_ptr<engine::ProgramBackend> backend_;
  std::unique_ptr<engine::Engine> owned_engine_;
  engine::Engine* engine_;  // owned_engine_.get() or external
  engine::RoundState state_;
};

}  // namespace arbor::mpc

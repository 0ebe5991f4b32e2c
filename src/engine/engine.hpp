// Parallel round executor for Cluster-style synchronous MPC rounds.
//
// The Engine bundles the worker pool and a Scheduler (scheduler.hpp — the
// actual round executor) but holds no per-cluster state;
// RoundState (round_state.hpp, owned by each Cluster) carries the inboxes
// and outbox banks. One Engine may therefore be shared by several clusters,
// as long as calls into it are serialized — the scheduler's reentrancy
// guard enforces this loudly.
//
// Protocols are expressed as RoundPrograms (program.hpp) and executed with
// run_program (Cluster::run_round wraps a one-step program around it).
#pragma once

#include <cstddef>
#include <memory>

#include "engine/execution_policy.hpp"
#include "engine/program.hpp"
#include "engine/round_state.hpp"
#include "engine/scheduler.hpp"
#include "engine/thread_pool.hpp"
#include "engine/types.hpp"

namespace arbor::engine {

/// Alternative executor for RoundPrograms that carry a RemoteSpec — the
/// seam the multi-process transport backend (src/net/) plugs into. A
/// backend observes the same contract as the in-process scheduler: every
/// step is one synchronous round with both traffic caps enforced,
/// `on_round` fires once per committed round with exact stats, and the
/// RoundState's inboxes hold the final round's delivery when run_program
/// returns (so post-program inbox reads behave identically).
class ProgramBackend {
 public:
  virtual ~ProgramBackend() = default;

  virtual ProgramStats run_program(RoundState& state, std::size_t capacity,
                                   std::size_t first_round_index,
                                   const RoundProgram& program,
                                   const RoundHook& on_round) = 0;
};

class Engine {
 public:
  explicit Engine(ExecutionPolicy policy);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const ExecutionPolicy& policy() const noexcept { return policy_; }

  /// Route programs that carry a RemoteSpec through `backend` (borrowed;
  /// must outlive the engine or be reset first). Programs without a spec —
  /// ad-hoc run_round lambdas, framework test programs — keep executing on
  /// the in-process scheduler, so installing a backend never breaks a
  /// protocol that has not opted in to distribution.
  void set_backend(ProgramBackend* backend) noexcept { backend_ = backend; }
  ProgramBackend* backend() const noexcept { return backend_; }

  /// Worker threads backing the compute/deliver phases (1 when inline).
  std::size_t worker_threads() const noexcept {
    return pool_ ? pool_->size() : 1;
  }

  /// Execute a RoundProgram: every step is one synchronous round (capacity
  /// caps enforced on both sides; see scheduler.hpp). `first_round_index`
  /// only feeds error messages; `on_round` fires once per completed round
  /// for ledger charging. Not thread-safe: serialize calls per Engine.
  ProgramStats run_program(RoundState& state, std::size_t capacity,
                           std::size_t first_round_index,
                           const RoundProgram& program,
                           const RoundHook& on_round = {});

 private:
  ExecutionPolicy policy_;
  std::unique_ptr<ThreadPool> pool_;  // null => phases run inline
  std::unique_ptr<Scheduler> scheduler_;
  ProgramBackend* backend_ = nullptr;  // not owned; null => in-process only
};

}  // namespace arbor::engine

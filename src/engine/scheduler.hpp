// Executes RoundPrograms over a RoundState, one synchronous round per step.
//
// Every round is two phases:
//
//   compute — machines are partitioned into contiguous blocks, one per
//             worker thread; each machine's step function writes into its
//             own flat Outbox (no sharing, no locks). Checked execution
//             runs the phase through the Monitor instead, single-threaded.
//   deliver — a zero-copy pass (route_and_deliver_direct) counts the
//             per-destination volume, validates the receiver-side caps,
//             and records each Inbox as spans into the frozen outbox bank;
//             the banks flip, and the next compute reads the spans where
//             they lie — no payload word moves.
//
// Every executor — serial, parallel(k), checked — delivers in the same ONE
// source-major pass with no routing table; the pool, when there is one,
// runs only the compute phase. The caps are validated before any inbox
// mutation, so a violating round leaves the previous round's inboxes
// current. Every inbox is held (Inbox::hold) before run() returns, so
// nothing outside a running program reads a span into an outbox bank.
//
// Delivery order is (source machine asc, send order) for every destination
// under every executor, so inboxes, fingerprints, and ledger totals are
// bit-identical across {serial, parallel, checked} (tests/engine_test.cpp,
// tests/level0_programs_test.cpp).
// Traffic accounting is computed from per-machine totals, so it is exact
// under concurrency without atomics.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

#include "engine/execution_policy.hpp"
#include "engine/program.hpp"
#include "engine/round_state.hpp"
#include "engine/thread_pool.hpp"

namespace arbor::check {
class Monitor;  // check/monitor.hpp
}  // namespace arbor::check

namespace arbor::engine {

/// Per-round commit hook: invoked once per round when the round is
/// committed — compute done, caps validated, traffic stats final, inboxes
/// delivered. It is for accounting (clusters charge their ledgers here),
/// and the charged totals are identical in every mode, including
/// mid-program throws.
using RoundHook = std::function<void(const RoundStats&)>;

class Scheduler {
 public:
  /// `pool` may be null (compute runs inline on the calling thread); it is
  /// borrowed, not owned.
  Scheduler(ExecutionPolicy policy, ThreadPool* pool)
      : policy_(policy), pool_(pool) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Execute `program` on `state`. `first_round_index` only feeds error
  /// messages; `on_round` (optional) fires once per completed round. Not
  /// thread-safe and not reentrant: a shared scheduler executes one program
  /// at a time and fails loudly otherwise.
  ProgramStats run(RoundState& state, std::size_t capacity,
                   std::size_t first_round_index, const RoundProgram& program,
                   const RoundHook& on_round);

 private:
  /// The only pooled phase: machines run in contiguous blocks, one per
  /// worker. `monitor` non-null routes the phase through checked execution
  /// (inline, single-threaded) instead.
  void compute(RoundState& state, std::size_t capacity,
               const ProgramStep& step, check::Monitor* monitor);
  /// Zero-copy route+delivery in ONE source-major pass: count
  /// per-destination volume, stage span references into the frozen outbox
  /// bank, validate the caps, then commit and flip banks so the spans
  /// survive the next compute. The caps are validated before any inbox
  /// state changes, so a violating round leaves the previous round's
  /// inboxes intact.
  RoundStats route_and_deliver_direct(RoundState& state, std::size_t capacity,
                                      std::size_t round_index,
                                      const std::string& step_name);
  /// Receiver-side cap over recv_words_, validated once per machine and
  /// naming the offender; folds the largest receive volume into `stats`.
  void check_receive_caps(std::size_t capacity, std::size_t round_index,
                          const std::string& step_name,
                          RoundStats& stats) const;

  ExecutionPolicy policy_;
  ThreadPool* pool_;  // null => compute runs inline
  // Reentrancy/concurrency guard. Atomic so that a step function calling
  // back into a shared scheduler from a worker thread is reported as the
  // programming error it is instead of being a data race on the flag.
  std::atomic<bool> in_program_{false};

  // Per-destination receive volume of the round being delivered.
  std::vector<std::size_t> recv_words_;
  // Staging inboxes for route_and_deliver_direct: spans are collected here
  // and swapped into the state only after the caps validate, so a cap
  // violation leaves the previous round's inboxes untouched.
  std::vector<Inbox> staging_;
};

}  // namespace arbor::engine

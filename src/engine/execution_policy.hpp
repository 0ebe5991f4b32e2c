// How a cluster executes its synchronous rounds.
//
// serial() steps machines one after another on the calling thread — the
// reference ORDER semantics the framework tests were written against.
// parallel(k) partitions machines across k worker threads. checked() runs
// every compute phase through the Monitor, which verifies the step
// contracts. Every mode delivers through the scheduler's one zero-copy
// route+deliver pass and produces bit-identical inboxes and ledger totals
// (tests/engine_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <thread>

namespace arbor::engine {

struct ExecutionPolicy {
  enum class Mode : std::uint8_t { kSerial, kParallel };

  Mode mode = Mode::kSerial;
  std::size_t threads = 1;

  /// Checked execution (src/check/): every compute phase runs through the
  /// model-race Monitor, which verifies the StepFn ownership contracts and
  /// replays machine-independent steps under an adversarial machine order.
  /// Forces single-threaded compute so violations are deterministic;
  /// outputs stay bit-identical to an unchecked run.
  /// Off by default and zero-cost when off.
  bool check = false;

  static ExecutionPolicy serial() { return {}; }

  /// The serial reference executor with checked execution on.
  static ExecutionPolicy checked() {
    ExecutionPolicy p;
    p.check = true;
    return p;
  }

  /// `threads == 0` means "use the hardware concurrency".
  static ExecutionPolicy parallel(std::size_t threads = 0) {
    if (threads == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      threads = hw == 0 ? 1 : static_cast<std::size_t>(hw);
    }
    return {Mode::kParallel, threads};
  }

  bool is_parallel() const noexcept { return mode == Mode::kParallel; }

  /// Same policy with checked execution forced on or off.
  ExecutionPolicy with_check(bool on) const noexcept {
    ExecutionPolicy p = *this;
    p.check = on;
    return p;
  }

  /// Worker threads the engine will actually run with (≥ 1).
  std::size_t effective_threads() const noexcept {
    return is_parallel() && threads > 0 ? threads : 1;
  }

  friend bool operator==(const ExecutionPolicy&,
                         const ExecutionPolicy&) = default;
};

}  // namespace arbor::engine

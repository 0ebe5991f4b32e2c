#include "engine/scheduler.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "check/monitor.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace arbor::engine {

ProgramStats Scheduler::run(RoundState& state, std::size_t capacity,
                            std::size_t first_round_index,
                            const RoundProgram& program,
                            const RoundHook& on_round) {
  ARBOR_CHECK(state.num_machines() > 0);
  ARBOR_CHECK(capacity > 0);
  ARBOR_CHECK_MSG(!program.steps.empty(), "RoundProgram has no steps");
  // Shared schedulers must serialize programs: the pool and the delivery
  // scratch hold one round at a time. Fail loudly instead of
  // corrupting. (exchange: if the flag was already set we throw without
  // constructing the reset guard, leaving the owner's flag intact.)
  ARBOR_CHECK_MSG(
      !in_program_.exchange(true, std::memory_order_acq_rel),
      "Scheduler re-entered: a shared Engine executes one program at a "
      "time (do not run a program or round from inside a step function, a "
      "continue callback, or a second thread)");
  struct Reset {
    std::atomic<bool>& flag;
    ~Reset() { flag.store(false, std::memory_order_release); }
  } reset{in_program_};
  // Deliveries leave the final round's inboxes as spans into an outbox
  // bank, which the next program's compute overwrites; hold them on every
  // exit path (including a step throwing mid-program — the referenced bank
  // is still frozen then).
  struct Hold {
    RoundState& state;
    ~Hold() {
      for (Inbox& inbox : state.inboxes) inbox.hold();
    }
  } hold{state};

  std::unique_ptr<check::Monitor> monitor;
  if (policy_.check)
    monitor = std::make_unique<check::Monitor>(program, capacity,
                                               state.num_machines());

  trace::Tracer& tracer = trace::Tracer::global();

  ProgramStats stats;
  for (;;) {
    for (const ProgramStep& step : program.steps) {
      const std::string& label = step.name;
      const std::int64_t round_t0 = tracer.metrics_on() ? trace::now_ns() : 0;
      {
        trace::Span span = tracer.span("engine", "compute " + label);
        compute(state, capacity, step, monitor.get());
      }
      RoundStats round_stats;
      {
        trace::Span span = tracer.span("engine", "route+deliver " + label);
        round_stats = route_and_deliver_direct(
            state, capacity, first_round_index + stats.rounds, label);
      }
      ++stats.rounds;
      if (on_round) on_round(round_stats);
      if (tracer.metrics_on()) {
        const double us =
            static_cast<double>(trace::now_ns() - round_t0) / 1000.0;
        tracer.metrics().observe("round_us", us);
        tracer.metrics().observe("round_us." + label, us);
      }
    }
    ++stats.passes;
    if (!program.continue_fn) break;
    bool more;
    if (monitor) {
      // The continue callback runs at a true barrier and may update shared
      // pass state — unless the program has machine-independent steps,
      // whose contract forbids them reading state the callback maintains.
      const std::vector<std::uint64_t> before = monitor->hashes();
      more = program.continue_fn(stats.passes);
      monitor->expect_continue_clean(before, "continue callback");
    } else {
      more = program.continue_fn(stats.passes);
    }
    if (!more) break;
    if (stats.passes >= program.max_passes) break;
  }
  return stats;
}

void Scheduler::compute(RoundState& state, std::size_t capacity,
                        const ProgramStep& step, check::Monitor* monitor) {
  const std::size_t machines = state.num_machines();
  std::vector<Outbox>& out = state.front_outboxes();
  if (monitor) {
    // Checked execution: single-threaded by design, so contract violations
    // are deterministic and reproduce without a thread schedule.
    monitor->run_step(
        step, 0, machines,
        [&state](std::size_t m) { return state.inbox(m); }, out);
    return;
  }
  trace::Tracer& tracer = trace::Tracer::global();
  const auto block = [&](std::size_t begin, std::size_t end) {
    // One span per machine block: pool threads show up as their own trace
    // lanes, and the block spans' alignment makes load imbalance visible.
    trace::Span span = tracer.span("engine", "block " + step.name);
    for (std::size_t m = begin; m < end; ++m) {
      out[m].clear();  // keeps arena capacity from previous rounds
      Sender sender(m, capacity, machines, out[m]);
      step.fn(m, state.inbox(m), sender);
    }
  };
  if (pool_)
    pool_->run_blocks(machines, block);
  else
    block(0, machines);
}

void Scheduler::check_receive_caps(std::size_t capacity,
                                   std::size_t round_index,
                                   const std::string& step_name,
                                   RoundStats& stats) const {
  for (std::size_t dst = 0; dst < recv_words_.size(); ++dst) {
    ARBOR_CHECK_MSG(recv_words_[dst] <= capacity,
                    "machine " + std::to_string(dst) +
                        " exceeded receive capacity: " +
                        std::to_string(recv_words_[dst]) + " > " +
                        std::to_string(capacity) + " words in round " +
                        std::to_string(round_index) +
                        step_name_suffix(step_name));
    stats.max_received = std::max(stats.max_received, recv_words_[dst]);
  }
}

RoundStats Scheduler::route_and_deliver_direct(RoundState& state,
                                               std::size_t capacity,
                                               std::size_t round_index,
                                               const std::string& step_name) {
  const std::size_t machines = state.num_machines();
  const std::vector<Outbox>& outboxes = state.front_outboxes();
  if (staging_.size() != machines) staging_.resize(machines);
  RoundStats stats;

  // One source-major pass: count per-destination volume AND stage span
  // references. Each destination sees its messages in (source asc, send
  // order), and no payload word moves. On a cap violation the staged spans
  // are simply discarded and the previous round's inboxes remain current.
  recv_words_.assign(machines, 0);
  for (Inbox& in : staging_) in.clear();
  for (std::size_t src = 0; src < machines; ++src) {
    const Outbox& out = outboxes[src];
    // Sent volume is the sum of message lengths, not the arena size: a
    // sender that aliases one arena payload under several messages must
    // still be charged per message sent.
    std::size_t sent = 0;
    for (const Outbox::Msg& msg : out.msgs) {
      sent += msg.length;
      recv_words_[msg.dst] += msg.length;
      staging_[msg.dst].refer(out.payload(msg));
    }
    stats.max_sent = std::max(stats.max_sent, sent);
  }
  check_receive_caps(capacity, round_index, step_name, stats);

  // Commit: the staged inboxes become the live ones. The spans alias the
  // current front bank, which flips so the next round's compute writes the
  // other bank and the references stay valid for the round that reads
  // them.
  state.inboxes.swap(staging_);
  state.flip();
  return stats;
}

}  // namespace arbor::engine

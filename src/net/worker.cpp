#include "net/worker.hpp"

#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "check/monitor.hpp"
#include "engine/outbox.hpp"
#include "engine/thread_pool.hpp"
#include "net/registry.hpp"
#include "util/assert.hpp"
#include "util/hashing.hpp"

namespace arbor::net {

namespace {

/// Driver asked the group to wind down (or its connection ended).
struct ShutdownSignal {};

/// A peer worker's connection ended mid-protocol.
struct PeerLost {
  std::size_t rank;
  std::string detail;
};

/// kError payload: [kind, ...]. Kind selects the exception type the
/// driver rethrows, so a simulated machine's InvariantError keeps its
/// type across the wire while fabric failures surface as TransportError.
/// Peer loss is structured ([kind, lost_rank, text]) instead of prose:
/// whichever of "a surviving worker relayed the loss" and "the driver saw
/// the closure itself" wins the race, the driver can blame the worker
/// that actually died.
constexpr Word kErrorKindInvariant = 0;
constexpr Word kErrorKindTransport = 1;
constexpr Word kErrorKindPeerLost = 2;

void send_error(FrameHub& hub, std::size_t driver, Word kind,
                const std::string& text) {
  std::vector<Word> payload{kind};
  put_str(payload, text);
  try {
    hub.send(driver, FrameType::kError, payload);
  } catch (...) {
    // The driver is gone too; nothing left to report to.
  }
}

void send_peer_lost(FrameHub& hub, std::size_t driver, std::size_t lost,
                    const std::string& detail) {
  std::vector<Word> payload{kErrorKindPeerLost, static_cast<Word>(lost)};
  put_str(payload, detail);
  try {
    hub.send(driver, FrameType::kError, payload);
  } catch (...) {
  }
}

}  // namespace

void worker_log(std::size_t rank, std::string_view text) {
  std::string line =
      "[worker:" + std::to_string(rank) + "] " + std::string(text) + "\n";
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
}

std::uint64_t fingerprint_inbox(const engine::Inbox& inbox) {
  std::uint64_t h = util::mix64(0x6e6574);  // "net"
  for (const std::span<const Word> msg : inbox.msgs) {
    h = util::hash_combine(h, msg.size());
    for (Word w : msg) h = util::hash_combine(h, w);
  }
  return h;
}

namespace {

class WorkerRuntime {
 public:
  explicit WorkerRuntime(WorkerWiring& wiring)
      : w_(wiring),
        driver_(driver_source(w_.workers)),
        block_(machine_block(w_.machines, w_.workers, w_.rank)),
        inboxes_(w_.machines),
        staging_(w_.machines),
        outboxes_(w_.machines) {
    for (std::size_t q = 0; q < w_.workers; ++q) {
      if (q != w_.rank) peers_.push_back(q);
      block_bounds_.push_back(machine_block(w_.machines, w_.workers, q).first);
    }
    block_bounds_.push_back(w_.machines);
    if (w_.worker_threads > 1) pool_.emplace(w_.worker_threads);
    tracer_.set_mode(w_.trace);
  }

  void serve() {
    for (;;) {
      const Frame frame =
          w_.hub->expect(driver_, FrameType::kProgram, oob());
      run_program(decode_program_frame(frame.payload, block_size()));
    }
  }

 private:
  std::size_t block_size() const { return block_.second - block_.first; }

  FrameHub::OobHandler oob() {
    return [this](const Event& event) {
      if (event.source == kNoSource)
        throw TransportError(event.error.empty() ? "wait interrupted"
                                                 : event.error);
      if (event.source == driver_) {
        if (event.closed || event.frame.type == FrameType::kShutdown)
          throw ShutdownSignal{};
        throw TransportError(
            std::string("unexpected ") + frame_type_name(event.frame.type) +
            " frame from the driver");
      }
      if (event.closed) throw PeerLost{event.source, event.error};
      throw TransportError(std::string("unexpected ") +
                           frame_type_name(event.frame.type) +
                           " frame from worker " +
                           std::to_string(event.source));
    };
  }

  void compute_block(const engine::ProgramStep& step,
                     check::Monitor* monitor) {
    if (monitor) {
      // Checked compute is single-threaded by design: the Monitor's
      // probe/replay machinery IS the schedule, so the pool stays idle.
      monitor->run_step(
          step, block_.first, block_.second,
          [this](std::size_t m) { return engine::InboxView(inboxes_[m]); },
          outboxes_);
      return;
    }
    const auto body = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t m = block_.first + i;
        outboxes_[m].clear();
        engine::Sender sender(m, w_.capacity, w_.machines, outboxes_[m]);
        step.fn(m, engine::InboxView(inboxes_[m]), sender);
      }
    };
    if (pool_)
      pool_->run_blocks(block_size(), body);
    else
      body(0, block_size());
  }

  /// One round's exchange + cap check + delivery; returns (max_sent,
  /// max_received) over the block. `step_name` feeds the receive-cap error
  /// so it reads identically to the in-process scheduler's.
  std::pair<std::size_t, std::size_t> exchange(std::size_t local_round,
                                               std::size_t global_round,
                                               const std::string& step_name) {
    const bool metrics = tracer_.metrics_on();
    const std::int64_t serialize_t0 = metrics ? trace::now_ns() : 0;
    // One frame per worker's block, this worker's own included (rank order).
    std::vector<std::vector<Word>> frames;
    std::size_t sent_words = 0;
    {
      trace::Span span = tracer_.span("net", "serialize " + step_name);
      frames = encode_outbox_frames(local_round, w_.rank, outboxes_,
                                    block_.first, block_.second,
                                    block_bounds_);
      for (std::size_t q : peers_) sent_words += frames[q].size();
    }
    std::vector<Word> self_frame = std::move(frames[w_.rank]);
    const std::int64_t send_t0 = metrics ? trace::now_ns() : 0;
    {
      trace::Span span = tracer_.span("net", "send " + step_name);
      for (std::size_t q : peers_) {
        try {
          w_.hub->send(q, FrameType::kOutbox, frames[q]);
        } catch (const TransportError& e) {
          // A failed send means the PEER is gone (EPIPE races ahead of the
          // reader thread's closure event) — blame q, not ourselves, so the
          // driver reports the worker that actually died.
          throw PeerLost{q, e.what()};
        }
      }
    }
    frames.clear();
    const std::int64_t wait_t0 = metrics ? trace::now_ns() : 0;
    trace::Span wait_span = tracer_.span("net", "wait " + step_name);
    std::vector<Frame> peer_frames =
        w_.hub->collect(peers_, FrameType::kOutbox, oob());
    wait_span.end();
    const std::int64_t deliver_t0 = metrics ? trace::now_ns() : 0;
    trace::Span deliver_span = tracer_.span("net", "deliver " + step_name);

    // Count tables first (source rank ascending), so every receive cap is
    // checked before any message is delivered.
    std::vector<OutboxFrameView> views;
    views.reserve(w_.workers);
    std::size_t peer_index = 0;
    for (std::size_t q = 0; q < w_.workers; ++q) {
      const std::span<const Word> payload =
          q == w_.rank ? std::span<const Word>(self_frame)
                       : std::span<const Word>(peer_frames[peer_index].payload);
      if (q != w_.rank) ++peer_index;
      views.push_back(decode_outbox_counts(payload, block_size()));
      ARBOR_CHECK_MSG(views.back().src_rank == q,
                      "outbox frame claims source rank " +
                          std::to_string(views.back().src_rank) +
                          ", expected " + std::to_string(q));
      ARBOR_CHECK_MSG(views.back().round == local_round,
                      "outbox frame for round " +
                          std::to_string(views.back().round) +
                          " arrived in round " + std::to_string(local_round));
    }

    std::size_t max_received = 0;
    for (std::size_t i = 0; i < block_size(); ++i) {
      std::size_t total = 0;
      for (const OutboxFrameView& view : views) total += view.dst_words[i];
      ARBOR_CHECK_MSG(total <= w_.capacity,
                      "machine " + std::to_string(block_.first + i) +
                          " exceeded receive capacity: " +
                          std::to_string(total) + " > " +
                          std::to_string(w_.capacity) + " words in round " +
                          std::to_string(global_round) +
                          engine::step_name_suffix(step_name));
      max_received = std::max(max_received, total);
    }

    // Stage spans into this round's frames; swap inboxes and frames in
    // together once all validated, so a rejected frame changes nothing.
    for (std::size_t m = block_.first; m < block_.second; ++m)
      staging_[m].clear();
    for (OutboxFrameView& view : views)
      deliver_outbox_msgs(view, staging_, block_.first, block_.second);
    inboxes_.swap(staging_);
    self_frame_.swap(self_frame);
    peer_frames_.swap(peer_frames);

    // Sent volume is the sum of message lengths, not the arena size — the
    // same accounting the in-process scheduler's route phase uses, so
    // ledger totals agree even for senders that alias arena payloads.
    std::size_t max_sent = 0;
    for (std::size_t m = block_.first; m < block_.second; ++m) {
      std::size_t sent = 0;
      for (const engine::Outbox::Msg& msg : outboxes_[m].msgs)
        sent += msg.length;
      max_sent = std::max(max_sent, sent);
    }
    deliver_span.end();
    if (metrics) {
      const std::int64_t done = trace::now_ns();
      trace::MetricsRegistry& reg = tracer_.metrics();
      reg.add("net.sent_words." + step_name, sent_words);
      reg.add("net.sent_frames." + step_name, peers_.size());
      reg.observe("net.serialize_us." + step_name,
                  static_cast<double>(send_t0 - serialize_t0) / 1000.0);
      reg.observe("net.send_us." + step_name,
                  static_cast<double>(wait_t0 - send_t0) / 1000.0);
      reg.observe("net.wait_us." + step_name,
                  static_cast<double>(deliver_t0 - wait_t0) / 1000.0);
      reg.observe("net.deliver_us." + step_name,
                  static_cast<double>(done - deliver_t0) / 1000.0);
    }
    return {max_sent, max_received};
  }

  void run_program(ProgramFrame frame) {
    const ProgramFactory& factory = Registry::builtin().find(frame.name);
    ProgramInputs inputs;
    inputs.machines = w_.machines;
    inputs.capacity = w_.capacity;
    inputs.block_begin = block_.first;
    inputs.block_end = block_.second;
    inputs.scalars = frame.scalars;
    inputs.inputs = std::move(frame.inputs);
    WorkerProgram wp = factory(inputs);
    ARBOR_CHECK_MSG(
        wp.program.steps.size() == frame.steps,
        "registry program \"" + frame.name + "\" rebuilt with " +
            std::to_string(wp.program.steps.size()) +
            " steps, the driver's program has " + std::to_string(frame.steps));
    ARBOR_CHECK_MSG(!frame.has_output || wp.output,
                    "registry program \"" + frame.name +
                        "\" has no output extractor but the driver expects "
                        "output slabs");
    ARBOR_CHECK_MSG(!frame.has_vote || wp.vote,
                    "registry program \"" + frame.name +
                        "\" has no vote function but the driver expects "
                        "pass votes");

    // Spans into the program frame, which serve() keeps alive until this
    // program returns; the first round's delivery replaces them.
    for (std::size_t m = block_.first; m < block_.second; ++m)
      inboxes_[m] = std::move(frame.preinbox[m - block_.first]);

    // Checked execution: one Monitor per program, built from the rebuilt
    // program's Ownership declaration. RaceErrors it throws are
    // InvariantErrors, so run_worker's relay ships them to the driver
    // with the step/machine naming intact.
    std::unique_ptr<check::Monitor> monitor;
    if (w_.checked)
      monitor =
          std::make_unique<check::Monitor>(wp.program, w_.capacity,
                                           w_.machines);

    trace::Span program_span = tracer_.span("net", "program " + frame.name);
    std::size_t executed = 0;  // rounds completed in this program
    std::size_t passes = 0;
    for (bool more = true; more;) {
      for (const engine::ProgramStep& step : wp.program.steps) {
        const std::int64_t round_t0 =
            tracer_.metrics_on() ? trace::now_ns() : 0;
        {
          trace::Span span = tracer_.span("net", "compute " + step.name);
          compute_block(step, monitor.get());
        }
        const auto [max_sent, max_received] =
            exchange(executed, frame.first_round + executed, step.name);

        std::vector<Word> stats{static_cast<Word>(executed),
                                static_cast<Word>(max_sent),
                                static_cast<Word>(max_received),
                                static_cast<Word>(block_size())};
        for (std::size_t m = block_.first; m < block_.second; ++m)
          stats.push_back(fingerprint_inbox(inboxes_[m]));
        w_.hub->send(driver_, FrameType::kRoundStats, stats);

        const Frame ack =
            w_.hub->expect(driver_, FrameType::kRoundAck, oob());
        WireReader reader(ack.payload, "round-ack");
        ARBOR_CHECK_MSG(reader.word() == executed,
                        "round ack out of order");
        reader.expect_end();
        ++executed;
        if (tracer_.metrics_on()) {
          // "net." prefix: the driver's merged registry keeps the plain
          // "round_us" histogram for its own per-round latency, so worker
          // samples must not fold into it.
          const double us =
              static_cast<double>(trace::now_ns() - round_t0) / 1000.0;
          tracer_.metrics().observe("net.round_us", us);
          tracer_.metrics().observe("net.round_us." + step.name, us);
        }
      }
      ++passes;
      if (!frame.has_vote) break;

      Word vote = 0;
      for (std::size_t m = block_.first; m < block_.second; ++m)
        vote += wp.vote(m);
      const std::vector<Word> ballot{static_cast<Word>(passes), vote};
      w_.hub->send(driver_, FrameType::kVote, ballot);
      const Frame decision =
          w_.hub->expect(driver_, FrameType::kPassDecision, oob());
      WireReader reader(decision.payload, "pass-decision");
      ARBOR_CHECK_MSG(reader.word() == passes, "pass decision out of order");
      more = reader.word() != 0;
      reader.expect_end();
      if (more && wp.on_continue) {
        if (monitor) {
          const auto before = monitor->hashes();
          wp.on_continue();
          monitor->expect_continue_clean(before,
                                         "pass continuation (on_continue)");
        } else {
          wp.on_continue();
        }
      }
    }

    if (frame.has_output) {
      std::vector<Word> payload;
      for (std::size_t m = block_.first; m < block_.second; ++m) {
        const std::vector<Word> slab = wp.output(m);
        payload.push_back(static_cast<Word>(slab.size()));
        payload.insert(payload.end(), slab.begin(), slab.end());
      }
      w_.hub->send(driver_, FrameType::kOutputs, payload);
    }
    w_.hub->send(driver_, FrameType::kInboxDump,
                 encode_inbox_dump(inboxes_, block_.first, block_.second));

    if (w_.trace != trace::Mode::kOff) {
      // Close the program span before draining so it ships with THIS
      // program's blob; the driver collects telemetry right after the
      // inbox dumps, in rank order.
      program_span.end();
      w_.hub->send(driver_, FrameType::kTelemetry,
                   encode_telemetry_frame(w_.rank, tracer_.drain_telemetry()));
    }
  }

  WorkerWiring& w_;
  const std::size_t driver_;
  const std::pair<std::size_t, std::size_t> block_;
  std::vector<std::size_t> peers_;
  // Worker blocks: rank q holds machines [block_bounds_[q], [q + 1]).
  std::vector<std::size_t> block_bounds_;
  // Inboxes are spans into the last delivered round's frames, kept here
  // until the next round's delivery commits.
  std::vector<engine::Inbox> inboxes_;
  std::vector<engine::Inbox> staging_;
  std::vector<Frame> peer_frames_;
  std::vector<Word> self_frame_;
  std::vector<engine::Outbox> outboxes_;
  std::optional<engine::ThreadPool> pool_;
  /// Runtime-local tracer (NOT the process-global one): loopback runtimes
  /// share the driver's address space, so a per-runtime instance keeps
  /// worker spans out of the driver's buffers until they arrive the same
  /// way tcp workers' do — as a kTelemetry frame.
  trace::Tracer tracer_;
};

}  // namespace

void run_worker(WorkerWiring wiring) {
  ARBOR_CHECK(wiring.hub && wiring.workers > 0 &&
              wiring.rank < wiring.workers);
  const std::size_t driver = driver_source(wiring.workers);
  try {
    WorkerRuntime runtime(wiring);
    runtime.serve();
  } catch (const ShutdownSignal&) {
    // Orderly teardown.
  } catch (const PeerLost& lost) {
    // Log before reporting: the driver tears the group down on receipt,
    // and the log line must already be on stderr when it does.
    worker_log(wiring.rank,
               "lost worker " + std::to_string(lost.rank) + ": " + lost.detail);
    send_peer_lost(*wiring.hub, driver, lost.rank, lost.detail);
  } catch (const InvariantError& e) {
    // Relayed to the driver with its type intact; no stderr echo — the
    // driver rethrows it with full context.
    send_error(*wiring.hub, driver, kErrorKindInvariant, e.what());
  } catch (const std::exception& e) {
    worker_log(wiring.rank, e.what());
    send_error(*wiring.hub, driver, kErrorKindTransport, e.what());
  }
  wiring.hub->shutdown_all();
}

int tcp_worker_main(std::uint16_t port, std::size_t rank) {
  try {
    std::unique_ptr<Conn> driver = tcp_connect(port);
    TcpListener listener;
    {
      std::vector<Word> hello{kProtocolVersion, static_cast<Word>(rank),
                              static_cast<Word>(listener.port())};
      driver->send(FrameType::kHello, hello);
    }

    Frame config;
    if (!driver->recv(config))
      throw TransportError("driver closed before sending the config");
    ARBOR_CHECK_MSG(config.type == FrameType::kConfig,
                    std::string("expected config frame, got ") +
                        frame_type_name(config.type));
    WireReader reader(config.payload, "config");
    ARBOR_CHECK_MSG(reader.word() == kProtocolVersion,
                    "protocol version mismatch between driver and worker");
    WorkerWiring wiring;
    wiring.rank = rank;
    wiring.machines = static_cast<std::size_t>(reader.word());
    wiring.capacity = static_cast<std::size_t>(reader.word());
    wiring.workers = static_cast<std::size_t>(reader.word());
    ARBOR_CHECK_MSG(reader.word() == rank, "config addressed to another rank");
    wiring.worker_threads = static_cast<std::size_t>(reader.word());
    const Word trace_word = reader.word();
    ARBOR_CHECK_MSG(trace_word <= static_cast<Word>(trace::Mode::kFull),
                    "config frame carries an unknown trace mode " +
                        std::to_string(trace_word));
    wiring.trace = static_cast<trace::Mode>(trace_word);
    wiring.checked = reader.word() != 0;
    std::vector<std::uint16_t> ports(wiring.workers);
    for (std::uint16_t& p : ports)
      p = static_cast<std::uint16_t>(reader.word());
    reader.expect_end();
    ARBOR_CHECK(rank < wiring.workers);

    // Mesh: dial every lower rank, accept every higher one (identified by
    // the hello each connection opens with).
    std::vector<std::unique_ptr<Conn>> peer_conns(wiring.workers);
    for (std::size_t q = 0; q < rank; ++q) {
      peer_conns[q] = tcp_connect(ports[q]);
      const std::vector<Word> hello{kProtocolVersion, static_cast<Word>(rank),
                                    0};
      peer_conns[q]->send(FrameType::kHello, hello);
    }
    for (std::size_t n = rank + 1; n < wiring.workers; ++n) {
      std::unique_ptr<Conn> conn = listener.accept();
      Frame hello;
      if (!conn->recv(hello))
        throw TransportError("peer closed before sending its hello");
      ARBOR_CHECK(hello.type == FrameType::kHello);
      WireReader hr(hello.payload, "hello");
      ARBOR_CHECK(hr.word() == kProtocolVersion);
      const auto q = static_cast<std::size_t>(hr.word());
      ARBOR_CHECK_MSG(q > rank && q < wiring.workers && !peer_conns[q],
                      "peer hello from unexpected rank " + std::to_string(q));
      peer_conns[q] = std::move(conn);
    }
    driver->send(FrameType::kReady, {});

    wiring.hub = std::make_unique<FrameHub>(wiring.workers + 1);
    for (std::size_t q = 0; q < wiring.workers; ++q)
      if (q != rank) wiring.hub->attach(q, std::move(peer_conns[q]));
    wiring.hub->attach(driver_source(wiring.workers), std::move(driver));
    run_worker(std::move(wiring));
    return 0;
  } catch (const std::exception& e) {
    worker_log(rank, e.what());
    return 1;
  }
}

}  // namespace arbor::net

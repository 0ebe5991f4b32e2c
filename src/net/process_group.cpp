#include "net/process_group.hpp"

#include <limits.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "net/worker.hpp"
#include "util/assert.hpp"
#include "util/env_knob.hpp"
#include "util/hashing.hpp"

namespace arbor::net {

namespace {

constexpr int kConnectTimeoutMs = 30000;

/// How long handle_oob waits for a failed worker's own final kError frame
/// before settling for "hung up" as the diagnosis. Generous on purpose:
/// when every worker of a checked group raises the same RaceError at once,
/// the report can lag the first closure by a whole scheduling quantum on a
/// loaded machine, and a named violation beats a bare lost-worker error.
constexpr std::chrono::milliseconds kLastWordsGrace{2000};

std::string resolve_worker_binary(const std::string& configured) {
  std::string path = configured;
  if (path.empty()) {
    if (const auto env = util::env_knob("ARBOR_WORKER_BIN"))
      path = std::string(*env);
  }
  if (path.empty()) {
    char exe[PATH_MAX];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n > 0) {
      exe[n] = '\0';
      std::string dir(exe);
      const std::size_t slash = dir.rfind('/');
      if (slash != std::string::npos) path = dir.substr(0, slash + 1);
    }
    path += "arbor-worker";
  }
  if (::access(path.c_str(), X_OK) != 0)
    throw TransportError(
        "cannot execute the arbor-worker binary at \"" + path +
        "\" (build the arbor-worker target, or point ARBOR_WORKER_BIN at "
        "it)");
  return path;
}

std::string describe_worker(std::size_t rank, std::size_t machines,
                            std::size_t workers) {
  const auto [begin, end] = machine_block(machines, workers, rank);
  std::string out = "worker " + std::to_string(rank) + " (machines ";
  if (begin == end)
    out += "none";
  else
    out += std::to_string(begin) + ".." + std::to_string(end - 1);
  return out + ")";
}

}  // namespace

ProcessGroup::ProcessGroup(GroupOptions options)
    : options_(std::move(options)) {
  ARBOR_CHECK(options_.machines > 0);
  ARBOR_CHECK(options_.capacity > 0);
  ARBOR_CHECK_MSG(options_.transport.workers >= 1,
                  "a process group needs at least one worker");
  ARBOR_CHECK_MSG(!options_.transport.in_process(),
                  "the in-process transport has no process group");
  for (std::size_t w = 0; w < workers(); ++w) worker_ids_.push_back(w);
  try {
    // Mesh bring-up on the driver lane: fork/exec + hellos + peer mesh +
    // readiness barrier for tcp, channel plumbing for loopback.
    trace::Span span = trace::Tracer::global().span(
        "driver", options_.transport.kind == mpc::TransportConfig::Kind::kTcp
                      ? "mesh bring-up tcp"
                      : "mesh bring-up loopback");
    if (options_.transport.kind == mpc::TransportConfig::Kind::kLoopback)
      spawn_loopback();
    else
      spawn_tcp();
  } catch (...) {
    teardown();
    throw;
  }
  // Spawn counter: pooled clusters (MpcContext's internal sort pool) exist
  // to keep this from incrementing once per sort.
  auto& tracer = trace::Tracer::global();
  if (tracer.metrics_on()) tracer.metrics().add("net.worker_groups_spawned", 1);
}

ProcessGroup::~ProcessGroup() {
  if (!down_ && hub_) {
    for (std::size_t w = 0; w < workers(); ++w) {
      try {
        hub_->send(w, FrameType::kShutdown, {});
      } catch (...) {
        // Already gone; teardown reaps it regardless.
      }
    }
  }
  teardown();
}

pid_t ProcessGroup::worker_pid(std::size_t rank) const {
  ARBOR_CHECK(rank < pids_.size());
  return pids_[rank];
}

void ProcessGroup::spawn_loopback() {
  const std::size_t W = workers();
  hub_ = std::make_unique<FrameHub>(W);
  pids_.assign(W, 0);

  std::vector<WorkerWiring> wirings(W);
  for (std::size_t w = 0; w < W; ++w) {
    wirings[w].rank = w;
    wirings[w].workers = W;
    wirings[w].machines = options_.machines;
    wirings[w].capacity = options_.capacity;
    wirings[w].worker_threads = options_.transport.worker_threads;
    wirings[w].trace = options_.trace;
    wirings[w].checked = options_.checked;
    wirings[w].hub = std::make_unique<FrameHub>(W + 1);
  }
  for (std::size_t w = 0; w < W; ++w) {
    auto [driver_end, worker_end] = loopback_pair();
    hub_->attach(w, std::move(driver_end));
    wirings[w].hub->attach(driver_source(W), std::move(worker_end));
  }
  for (std::size_t a = 0; a < W; ++a) {
    for (std::size_t b = a + 1; b < W; ++b) {
      auto [end_a, end_b] = loopback_pair();
      wirings[a].hub->attach(b, std::move(end_a));
      wirings[b].hub->attach(a, std::move(end_b));
    }
  }
  for (std::size_t w = 0; w < W; ++w) {
    threads_.emplace_back(
        [wiring = std::move(wirings[w])]() mutable {
          run_worker(std::move(wiring));
        });
  }
}

void ProcessGroup::spawn_tcp() {
  const std::size_t W = workers();
  const std::string binary = resolve_worker_binary(options_.worker_binary);
  TcpListener listener;
  const std::string port_arg = std::to_string(listener.port());

  pids_.assign(W, 0);
  for (std::size_t w = 0; w < W; ++w) {
    const std::string rank_arg = std::to_string(w);
    const pid_t pid = ::fork();
    ARBOR_CHECK_MSG(pid >= 0, "fork failed");
    if (pid == 0) {
      // Child: nothing but exec (the parent may hold locks fork does not
      // replicate safely — exec resets the world).
      ::execl(binary.c_str(), binary.c_str(), "--connect", port_arg.c_str(),
              "--rank", rank_arg.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    pids_[w] = pid;
  }

  std::vector<std::unique_ptr<Conn>> conns(W);
  std::vector<std::uint16_t> ports(W, 0);
  for (std::size_t n = 0; n < W; ++n) {
    std::unique_ptr<Conn> conn = listener.accept(kConnectTimeoutMs);
    if (!conn)
      throw TransportError("a worker did not dial in within " +
                           std::to_string(kConnectTimeoutMs / 1000) +
                           "s (" + std::to_string(n) + " of " +
                           std::to_string(W) + " connected)");
    Frame hello;
    if (!conn->recv(hello))
      throw TransportError("worker connection closed before its hello");
    ARBOR_CHECK_MSG(hello.type == FrameType::kHello,
                    std::string("expected hello frame, got ") +
                        frame_type_name(hello.type));
    WireReader reader(hello.payload, "hello");
    ARBOR_CHECK_MSG(reader.word() == kProtocolVersion,
                    "protocol version mismatch between driver and worker");
    const auto rank = static_cast<std::size_t>(reader.word());
    const auto port = static_cast<std::uint16_t>(reader.word());
    reader.expect_end();
    ARBOR_CHECK_MSG(rank < W && !conns[rank],
                    "worker hello from unexpected rank " +
                        std::to_string(rank));
    conns[rank] = std::move(conn);
    ports[rank] = port;
  }

  for (std::size_t w = 0; w < W; ++w) {
    std::vector<Word> config{kProtocolVersion,
                             static_cast<Word>(options_.machines),
                             static_cast<Word>(options_.capacity),
                             static_cast<Word>(W), static_cast<Word>(w),
                             static_cast<Word>(
                                 options_.transport.worker_threads),
                             static_cast<Word>(options_.trace),
                             static_cast<Word>(options_.checked ? 1 : 0)};
    for (std::uint16_t p : ports) config.push_back(p);
    conns[w]->send(FrameType::kConfig, config);
  }

  hub_ = std::make_unique<FrameHub>(W);
  for (std::size_t w = 0; w < W; ++w) hub_->attach(w, std::move(conns[w]));
  hub_->collect(worker_ids_, FrameType::kReady, [&](const Event& event) {
    teardown();
    throw TransportError(describe_worker(event.source, options_.machines, W) +
                         " failed during mesh setup: " +
                         (event.closed ? event.error : "unexpected frame"));
  });
}

void ProcessGroup::teardown() noexcept {
  if (down_) return;
  down_ = true;
  if (hub_) hub_->shutdown_all();
  for (std::thread& thread : threads_)
    if (thread.joinable()) thread.join();
  threads_.clear();
  for (pid_t pid : pids_) {
    if (pid <= 0) continue;
    int status = 0;
    bool reaped = false;
    // Grace period for an orderly exit, then SIGKILL — a test must never
    // leave zombies or stragglers behind.
    for (int spins = 0; spins < 400; ++spins) {
      const pid_t got = ::waitpid(pid, &status, WNOHANG);
      if (got == pid || (got < 0 && errno == ECHILD)) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!reaped) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
    }
  }
  pids_.clear();
}

void ProcessGroup::handle_oob(const Event& event, std::size_t round) {
  if (event.source == kNoSource) {
    // A fabric-wide stall, attributable to no specific worker.
    teardown();
    throw TransportError("no worker produced a frame in round " +
                         std::to_string(round) + ": " + event.error);
  }
  const std::string who =
      describe_worker(event.source, options_.machines, workers());
  // Decode before teardown so the error text survives the hub.
  if (!event.closed && event.frame.type == FrameType::kError) {
    WireReader reader(event.frame.payload, "error");
    const Word kind = reader.word();
    if (kind == 2) {
      // A surviving worker relayed a peer's death. The lost worker's OWN
      // last words may still be in flight on its socket (a cap violation
      // sends kError before the connection closes, but cross-socket
      // arrival order is a race) — give them a grace window, because
      // "machine 2 exceeded send capacity" beats "peer hung up" as a
      // diagnosis. Then blame the worker that actually died, naming its
      // machine block and the round.
      const auto lost = static_cast<std::size_t>(reader.word());
      const std::string detail = reader.str();
      if (lost < workers()) {
        std::optional<Event> own =
            hub_->next_event_from(lost, kLastWordsGrace);
        if (own && !own->closed && own->frame.type == FrameType::kError)
          handle_oob(*own, round);
      }
      teardown();
      throw TransportError(
          "lost " + describe_worker(lost, options_.machines, workers()) +
          " in round " + std::to_string(round) + ": " + detail +
          " (reported by " + who + ")");
    }
    const std::string text = reader.str();
    teardown();
    if (kind == 0) throw InvariantError(who + ": " + text);
    throw TransportError(who + ": " + text);
  }
  if (event.closed) {
    // The closure (or a failed send to the worker) may have raced ahead
    // of the worker's own final kError frame still queued in the hub — a
    // worker that hits a cap violation reports it and THEN closes, and a
    // driver-side send can trip on the closed channel before the report
    // is read. Give the worker's queued last words the same grace window
    // the peer-relay path grants, because "machine X exceeded send
    // capacity" beats "hung up" as a diagnosis; recurse only on an
    // actual kError frame so a bare closure cannot loop.
    const std::optional<Event> last = hub_->next_event_from(
        event.source, kLastWordsGrace);
    if (last && !last->closed && last->frame.type == FrameType::kError)
      handle_oob(*last, round);
    teardown();
    throw TransportError("lost " + who + " in round " + std::to_string(round) +
                         ": " + event.error);
  }
  teardown();
  throw TransportError(std::string("unexpected ") +
                       frame_type_name(event.frame.type) + " frame from " +
                       who + " in round " + std::to_string(round));
}

void ProcessGroup::send_or_fail(std::size_t w, FrameType type,
                                std::span<const Word> payload,
                                std::size_t round) {
  try {
    hub_->send(w, type, payload);
  } catch (const TransportError& e) {
    Event event;
    event.source = w;
    event.closed = true;
    event.error = e.what();
    handle_oob(event, round);
  }
}

engine::ProgramStats ProcessGroup::run(engine::RoundState& state,
                                       std::size_t capacity,
                                       std::size_t first_round_index,
                                       const engine::RoundProgram& program,
                                       const engine::RoundHook& on_round) {
  ARBOR_CHECK_MSG(!down_, "process group is down");
  ARBOR_CHECK_MSG(program.remote, "program has no RemoteSpec");
  ARBOR_CHECK_MSG(!program.steps.empty(), "RoundProgram has no steps");
  const engine::RemoteSpec& spec = *program.remote;
  const std::size_t machines = options_.machines;
  ARBOR_CHECK_MSG(state.num_machines() == machines,
                  "state machine count does not match the process group");
  ARBOR_CHECK_MSG(capacity == options_.capacity,
                  "capacity does not match the process group");
  ARBOR_CHECK_MSG(spec.inputs.empty() || spec.inputs.size() == machines,
                  "RemoteSpec inputs must cover every machine (or none)");
  ARBOR_CHECK_MSG(!program.continue_fn || spec.has_vote,
                  "program \"" + spec.name +
                      "\" declares repeat_while but its RemoteSpec has no "
                      "vote protocol");
  ARBOR_CHECK_MSG(!spec.has_output || spec.output_sink,
                  "RemoteSpec has_output without an output_sink");
  ARBOR_CHECK_MSG(!spec.has_vote || spec.continue_with_votes,
                  "RemoteSpec has_vote without continue_with_votes");

  const std::size_t W = workers();
  std::size_t executed = 0;  // rounds committed, this program
  const auto oob = [&](const Event& event) {
    handle_oob(event, first_round_index + executed);
  };

  trace::Tracer& tracer = trace::Tracer::global();
  trace::Span program_span = tracer.span("driver", "program " + spec.name);

  // Scatter the spec with each block's inputs and current inbox contents.
  trace::Span scatter_span = tracer.span("driver", "scatter " + spec.name);
  for (std::size_t w = 0; w < W; ++w) {
    const auto [begin, end] = machine_block(machines, W, w);
    send_or_fail(w, FrameType::kProgram,
                 encode_program_frame(program, first_round_index,
                                      state.inboxes, begin, end),
                 first_round_index);
  }
  scatter_span.end();

  round_fingerprints_.clear();
  std::size_t passes = 0;
  for (bool more = true; more;) {
    for (std::size_t step = 0; step < program.steps.size(); ++step) {
      const std::string& label = program.steps[step].name;
      const std::int64_t round_t0 = tracer.metrics_on() ? trace::now_ns() : 0;
      trace::Span round_span = tracer.span("driver", "round " + label);
      const std::vector<Frame> stats_frames =
          hub_->collect(worker_ids_, FrameType::kRoundStats, oob);
      engine::RoundStats stats;
      std::uint64_t fp = util::mix64(0x726e6470);  // "rndp"
      std::size_t machine = 0;
      for (std::size_t w = 0; w < W; ++w) {
        WireReader reader(stats_frames[w].payload, "round-stats");
        ARBOR_CHECK_MSG(reader.word() == executed,
                        "round stats out of order from worker " +
                            std::to_string(w));
        stats.max_sent = std::max(
            stats.max_sent, static_cast<std::size_t>(reader.word()));
        stats.max_received = std::max(
            stats.max_received, static_cast<std::size_t>(reader.word()));
        const auto [begin, end] = machine_block(machines, W, w);
        ARBOR_CHECK_MSG(reader.word() == end - begin,
                        "round stats block size mismatch from worker " +
                            std::to_string(w));
        for (std::size_t m = begin; m < end; ++m, ++machine) {
          fp = util::hash_combine(fp, m);
          fp = util::hash_combine(fp, reader.word());
        }
        reader.expect_end();
      }
      ARBOR_CHECK(machine == machines);
      round_fingerprints_.push_back(fp);

      // Commit: the round's caps are validated on the workers and its
      // stats reduced exactly; charge the ledger before anything later
      // can fail, like the in-process scheduler does.
      ++executed;
      if (on_round) on_round(stats);
      const std::vector<Word> ack{static_cast<Word>(executed - 1)};
      for (std::size_t w = 0; w < W; ++w)
        send_or_fail(w, FrameType::kRoundAck, ack,
                     first_round_index + executed);
      round_span.end();
      if (tracer.metrics_on()) {
        const double us =
            static_cast<double>(trace::now_ns() - round_t0) / 1000.0;
        tracer.metrics().observe("round_us", us);
        tracer.metrics().observe("round_us." + label, us);
      }
    }
    ++passes;
    if (!spec.has_vote) break;

    const std::vector<Frame> ballots =
        hub_->collect(worker_ids_, FrameType::kVote, oob);
    Word total = 0;
    for (std::size_t w = 0; w < W; ++w) {
      WireReader reader(ballots[w].payload, "vote");
      ARBOR_CHECK_MSG(reader.word() == passes,
                      "vote out of order from worker " + std::to_string(w));
      total += reader.word();
      reader.expect_end();
    }
    more = spec.continue_with_votes(passes, total) &&
           passes < program.max_passes;
    const std::vector<Word> decision{static_cast<Word>(passes),
                                     more ? Word{1} : Word{0}};
    for (std::size_t w = 0; w < W; ++w)
      send_or_fail(w, FrameType::kPassDecision, decision,
                   first_round_index + executed);
  }

  if (spec.has_output) {
    const std::vector<Frame> outputs =
        hub_->collect(worker_ids_, FrameType::kOutputs, oob);
    for (std::size_t w = 0; w < W; ++w) {
      WireReader reader(outputs[w].payload, "outputs");
      const auto [begin, end] = machine_block(machines, W, w);
      for (std::size_t m = begin; m < end; ++m)
        spec.output_sink(m, reader.words(reader.count()));
      reader.expect_end();
    }
  }

  // Write the workers' final inboxes back so post-program reads (and the
  // next program's preinbox scatter) see exactly what in-process
  // execution would have left behind.
  const std::vector<Frame> dumps =
      hub_->collect(worker_ids_, FrameType::kInboxDump, oob);
  for (std::size_t w = 0; w < W; ++w) {
    const auto [begin, end] = machine_block(machines, W, w);
    decode_inbox_dump(dumps[w].payload, state.inboxes, begin, end);
  }

  // Telemetry last, absorbed in rank order (collect() indexes by source),
  // so the merged metrics report is deterministic. Worker rank r gets
  // process lane r+1 in the trace; the driver is lane 0.
  if (options_.trace != trace::Mode::kOff) {
    trace::Span span = tracer.span("driver", "collect telemetry");
    const std::vector<Frame> blobs =
        hub_->collect(worker_ids_, FrameType::kTelemetry, oob);
    for (std::size_t w = 0; w < W; ++w) {
      const TelemetryFrame telemetry = decode_telemetry_frame(blobs[w].payload);
      ARBOR_CHECK_MSG(telemetry.rank == w,
                      "telemetry frame claims rank " +
                          std::to_string(telemetry.rank) + ", expected " +
                          std::to_string(w));
      tracer.absorb(telemetry.blob, w + 1);
    }
  }

  ++programs_run_;
  engine::ProgramStats out;
  out.rounds = executed;
  out.passes = passes;
  return out;
}

engine::ProgramStats MultiProcessBackend::run_program(
    engine::RoundState& state, std::size_t capacity,
    std::size_t first_round_index, const engine::RoundProgram& program,
    const engine::RoundHook& on_round) {
  return group_.run(state, capacity, first_round_index, program, on_round);
}

std::unique_ptr<MultiProcessBackend> make_multiprocess_backend(
    const mpc::ClusterConfig& config) {
  ARBOR_CHECK_MSG(!config.transport.in_process(),
                  "in-process transport needs no backend");
  GroupOptions options;
  options.transport = config.transport;
  options.machines = config.num_machines;
  options.capacity = config.words_per_machine;
  options.trace = config.trace.mode;
  options.checked = config.execution.check;
  return std::make_unique<MultiProcessBackend>(options);
}

}  // namespace arbor::net

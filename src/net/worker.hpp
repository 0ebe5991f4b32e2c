// Worker runtime of the multi-process backend.
//
// One worker owns a contiguous block of the cluster's machines. Per round
// it computes its block locally (the registry-built step functions,
// optionally spread over a thread pool — the same block-partitioned
// compute the in-process engine runs, just over a slice), exchanges one
// outbox frame with every peer worker, validates its machines' receive
// caps from the frames' count tables BEFORE delivering any message,
// delivers in (source machine asc, send order) — the in-process executor's
// order — as spans into the frames it keeps until the next round's
// delivery, and reports the round's traffic stats and per-machine inbox
// fingerprints to the driver, which commits the round (ledger charge) and
// acks. Pass barriers reduce per-machine votes through the driver; after
// the final round the worker ships its output slabs and final inboxes
// back.
//
// The same run_worker loop serves both transports: the loopback backend
// calls it on an in-process thread, the arbor-worker binary calls it
// after the TCP handshake (tcp_worker_main).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "net/transport.hpp"
#include "trace/trace.hpp"

namespace arbor::net {

/// Wire protocol version; driver and worker must agree exactly.
/// v2: the config frame carries the group's trace mode and workers ship a
/// kTelemetry frame after each program's inbox dump when tracing is on.
/// v3: the config frame carries a checked-execution flag word (after the
/// trace word, before the ports) so remote programs run under the same
/// model-race Monitor the driver's in-process scheduler uses.
inline constexpr std::uint64_t kProtocolVersion = 3;

/// FrameHub source ids: ranks 0..workers-1 are peers, `workers` is the
/// driver.
inline constexpr std::size_t driver_source(std::size_t workers) {
  return workers;
}

/// Contiguous machine block of `rank` among `workers` over `machines`.
inline std::pair<std::size_t, std::size_t> machine_block(
    std::size_t machines, std::size_t workers, std::size_t rank) {
  return {rank * machines / workers, (rank + 1) * machines / workers};
}

/// Order-sensitive checksum of one machine's inbox (message boundaries
/// included); the driver folds these in machine order into the per-round
/// cluster fingerprint.
std::uint64_t fingerprint_inbox(const engine::Inbox& inbox);

/// Everything a worker needs to serve programs: identity, cluster shape,
/// and a FrameHub with every peer (and the driver) already attached.
struct WorkerWiring {
  std::size_t rank = 0;
  std::size_t workers = 0;
  std::size_t machines = 0;
  std::size_t capacity = 0;
  std::size_t worker_threads = 1;
  /// Group trace mode (the driver's decision, from ClusterConfig::trace):
  /// when not off, the runtime records spans/metrics into its own tracer
  /// and ships them as a kTelemetry frame after every program.
  trace::Mode trace = trace::Mode::kOff;
  /// Checked execution (the driver's ExecutionPolicy::check): the block's
  /// compute runs through a check::Monitor and contract violations are
  /// relayed to the driver as invariant errors.
  bool checked = false;
  std::unique_ptr<FrameHub> hub;
};

/// Write one line to stderr as `[worker:<rank>] <text>` (single write, so
/// concurrent worker processes cannot interleave mid-line). Every stderr
/// line a worker runtime emits goes through here — multi-process failure
/// logs stay attributable by rank.
void worker_log(std::size_t rank, std::string_view text);

/// Serve programs until the driver shuts the group down (or a connection
/// dies). Never throws: failures are reported to the driver as kError
/// frames and the function returns, closing every connection.
void run_worker(WorkerWiring wiring);

/// The arbor-worker binary's body: dial the driver on 127.0.0.1:`port`,
/// handshake (hello / config / mesh / ready), then run_worker. Returns a
/// process exit code.
int tcp_worker_main(std::uint16_t port, std::size_t rank);

}  // namespace arbor::net

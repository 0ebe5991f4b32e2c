// Tests for the multi-process transport backend (src/net/): wire-format
// round trips (fuzzed), strict env-override parsing, the transport
// determinism matrix — every distributable RoundProgram must produce
// bit-identical outputs, inbox fingerprints, and ledger totals across
// {in-process, loopback, 2- and 4-worker tcp} — and driver-side failure
// handling (relayed cap violations keep their type and machine name; a
// killed worker surfaces as a TransportError naming the lost worker and
// leaves no zombie processes).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <ranges>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "local/mpc_embedding.hpp"
#include "mpc/broadcast.hpp"
#include "mpc/bundle_fetch.hpp"
#include "mpc/cluster.hpp"
#include "mpc/sample_sort.hpp"
#include "net/process_group.hpp"
#include "net/registry.hpp"
#include "net/storm.hpp"
#include "net/wire.hpp"
#include "net/worker.hpp"
#include "util/assert.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"

namespace arbor::net {
namespace {

using mpc::ClusterConfig;
using mpc::TransportConfig;

// ------------------------------------------------------------ wire fuzz

/// Reference delivery: what the frames must reproduce, in (source asc,
/// send order) per destination.
std::vector<engine::Inbox> reference_delivery(
    const std::vector<engine::Outbox>& outboxes, std::size_t machines) {
  std::vector<engine::Inbox> inboxes(machines);
  for (const engine::Outbox& out : outboxes)
    for (const engine::Outbox::Msg& msg : out.msgs)
      inboxes[msg.dst].append(out.payload(msg));
  return inboxes;
}

/// Random outbox bank: some machines silent, some sending empty payloads,
/// some multi-word records (width 3, as engine/records.hpp moves them),
/// one machine pinned at a max-cap slab when `max_cap` is set.
std::vector<engine::Outbox> random_bank(util::SplitRng& rng,
                                        std::size_t machines,
                                        std::size_t capacity, bool max_cap) {
  std::vector<engine::Outbox> outboxes(machines);
  for (std::size_t m = 0; m < machines; ++m) {
    engine::Sender sender(m, capacity, machines, outboxes[m]);
    if (max_cap && m == 0) {
      // One message of exactly `capacity` words — the largest slab the
      // sender-side cap admits.
      std::vector<Word> slab(capacity, 0xC0FFEE);
      sender.send(rng.next_below(machines), slab);
      continue;
    }
    const std::size_t msgs = rng.next_below(5);
    for (std::size_t i = 0; i < msgs; ++i) {
      std::vector<Word> payload;
      switch (rng.next_below(3)) {
        case 0:  // empty slab
          break;
        case 1:  // single words
          payload.push_back(rng.next_below(1u << 20));
          break;
        default:  // whole multi-word records
          for (std::size_t r = 0; r <= rng.next_below(3); ++r) {
            payload.push_back(rng.next_below(16));  // key
            payload.push_back(rng.next_below(1u << 16));
            payload.push_back(m * 1000 + i);  // provenance word
          }
      }
      sender.send(rng.next_below(machines), payload);
    }
  }
  return outboxes;
}

TEST(WireFormat, OutboxFramesRoundTripBitIdentically) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    util::SplitRng rng(seed);
    const std::size_t machines = 1 + rng.next_below(6);
    const std::size_t workers = 1 + rng.next_below(4);
    const std::size_t capacity = 64 + rng.next_below(128);
    const auto outboxes =
        random_bank(rng, machines, capacity * machines, seed % 5 == 0);
    const auto expected = reference_delivery(outboxes, machines);

    // Carve the machines into worker blocks, ship every (src block, dst
    // block) pair as one frame, deliver in source-rank order. Delivered
    // messages are spans into the frames, so the frames outlive the reads.
    std::vector<engine::Inbox> inboxes(machines);
    std::vector<std::vector<Word>> frames;
    frames.reserve(workers * workers);
    for (std::size_t dst_rank = 0; dst_rank < workers; ++dst_rank) {
      const auto [db, de] = machine_block(machines, workers, dst_rank);
      for (std::size_t src_rank = 0; src_rank < workers; ++src_rank) {
        const auto [sb, se] = machine_block(machines, workers, src_rank);
        const std::vector<Word>& payload =
            frames.emplace_back(encode_outbox_frame(
                /*round=*/7, src_rank, outboxes, sb, se, db, de));
        OutboxFrameView view = decode_outbox_counts(payload, de - db);
        EXPECT_EQ(view.round, 7u);
        EXPECT_EQ(view.src_rank, src_rank);
        deliver_outbox_msgs(view, inboxes, db, de);
      }
    }
    for (std::size_t m = 0; m < machines; ++m) {
      ASSERT_EQ(inboxes[m].msgs.size(), expected[m].msgs.size())
          << "seed " << seed << " machine " << m;
      EXPECT_EQ(inboxes[m].words, expected[m].words)
          << "seed " << seed << " machine " << m;
      for (std::size_t i = 0; i < inboxes[m].msgs.size(); ++i)
        EXPECT_TRUE(
            std::ranges::equal(inboxes[m].msgs[i], expected[m].msgs[i]));
    }
  }
}

/// Message-for-message equality of two inboxes.
void expect_same_inbox(const engine::Inbox& got, const engine::Inbox& want,
                       const std::string& where) {
  ASSERT_EQ(got.msgs.size(), want.msgs.size()) << where;
  EXPECT_EQ(got.words, want.words) << where;
  for (std::size_t i = 0; i < got.msgs.size(); ++i)
    EXPECT_TRUE(std::ranges::equal(got.msgs[i], want.msgs[i]))
        << where << " message " << i;
}

/// Random inboxes over `machines`: every third machine has no messages,
/// and every other machine's first message is zero-length.
std::vector<engine::Inbox> random_inboxes(util::SplitRng& rng,
                                          std::size_t machines) {
  std::vector<engine::Inbox> inboxes(machines);
  for (std::size_t m = 0; m < machines; ++m) {
    if (m % 3 == 0) continue;
    inboxes[m].append({});
    for (std::size_t i = 0; i < rng.next_below(4); ++i)
      inboxes[m].append(
          std::vector<Word>(rng.next_below(4), rng.next_below(1u << 20)));
  }
  return inboxes;
}

/// Per-peer reference encoder: one walk over the block's messages per
/// destination block, keeping those addressed to it, in the documented
/// outbox frame layout.
std::vector<Word> reference_outbox_frame(
    std::size_t round, std::size_t src_rank,
    const std::vector<engine::Outbox>& outboxes, std::size_t src_begin,
    std::size_t src_end, std::size_t dst_begin, std::size_t dst_end) {
  const std::size_t block = dst_end - dst_begin;
  std::vector<Word> out{round, src_rank, block};
  out.resize(3 + block, 0);
  std::vector<Word> msgs;
  Word num_msgs = 0;
  for (std::size_t src = src_begin; src < src_end; ++src)
    for (const engine::Outbox::Msg& msg : outboxes[src].msgs) {
      if (msg.dst < dst_begin || msg.dst >= dst_end) continue;
      out[3 + (msg.dst - dst_begin)] += msg.length;
      msgs.push_back(msg.dst);
      msgs.push_back(msg.length);
      const std::span<const Word> payload = outboxes[src].payload(msg);
      msgs.insert(msgs.end(), payload.begin(), payload.end());
      ++num_msgs;
    }
  out.push_back(num_msgs);
  out.insert(out.end(), msgs.begin(), msgs.end());
  return out;
}

TEST(WireFormat, AllBlockFramesMatchPerBlockReference) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    util::SplitRng rng(seed);
    const std::size_t machines = 1 + rng.next_below(9);
    const std::size_t workers = 1 + rng.next_below(5);
    const std::size_t capacity = 64 + rng.next_below(128);
    const auto outboxes =
        random_bank(rng, machines, capacity * machines, seed % 5 == 0);
    // Every worker's block bounds; workers > machines leaves empty blocks.
    std::vector<std::size_t> bounds;
    for (std::size_t q = 0; q < workers; ++q)
      bounds.push_back(machine_block(machines, workers, q).first);
    bounds.push_back(machines);
    for (std::size_t src_rank = 0; src_rank < workers; ++src_rank) {
      const auto [sb, se] = machine_block(machines, workers, src_rank);
      const std::vector<std::vector<Word>> frames =
          encode_outbox_frames(3, src_rank, outboxes, sb, se, bounds);
      ASSERT_EQ(frames.size(), workers);
      for (std::size_t q = 0; q < workers; ++q) {
        const auto [db, de] = machine_block(machines, workers, q);
        EXPECT_EQ(frames[q], reference_outbox_frame(3, src_rank, outboxes,
                                                     sb, se, db, de))
            << "seed " << seed << " src " << src_rank << " dst " << q;
      }
    }
    // A window of the machines: messages outside it are skipped.
    const std::size_t lo = rng.next_below(machines + 1);
    const std::size_t hi = lo + rng.next_below(machines - lo + 1);
    const std::vector<std::size_t> window{lo, (lo + hi) / 2, hi};
    const std::vector<std::vector<Word>> frames =
        encode_outbox_frames(0, 0, outboxes, 0, machines, window);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0], reference_outbox_frame(0, 0, outboxes, 0, machines,
                                                lo, (lo + hi) / 2));
    EXPECT_EQ(frames[1], reference_outbox_frame(0, 0, outboxes, 0, machines,
                                                (lo + hi) / 2, hi));
  }
}

TEST(WireFormat, ProgramFramesRoundTrip) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    util::SplitRng rng(seed);
    const std::size_t first_round = rng.next_below(100);
    engine::RoundProgram program;
    program.steps.resize(1 + rng.next_below(5));
    program.max_passes = 1 + rng.next_below(50);
    program.remote = std::make_shared<engine::RemoteSpec>();
    engine::RemoteSpec& spec = *program.remote;
    spec.has_output = rng.next_below(2) == 1;
    spec.has_vote = rng.next_below(2) == 1;
    spec.name = seed % 2 ? "mpc.sample_sort_records" : "x";
    for (std::size_t i = 0; i < rng.next_below(4); ++i)
      spec.scalars.push_back(rng.next_below(1u << 30));
    const std::size_t machines = 1 + rng.next_below(6);
    const std::size_t begin = rng.next_below(machines);
    const std::size_t end = begin + 1 + rng.next_below(machines - begin);
    // Every third seed runs a program without inputs.
    spec.inputs.resize(seed % 3 == 0 ? 0 : machines);
    for (std::vector<Word>& input : spec.inputs)
      for (std::size_t i = 0; i < rng.next_below(6); ++i)
        input.push_back(rng.next_below(1u << 20));
    const std::vector<engine::Inbox> inboxes = random_inboxes(rng, machines);

    const std::vector<Word> payload =
        encode_program_frame(program, first_round, inboxes, begin, end);
    const ProgramFrame back = decode_program_frame(payload, end - begin);
    EXPECT_EQ(back.first_round, first_round);
    EXPECT_EQ(back.steps, program.steps.size());
    EXPECT_EQ(back.max_passes, program.max_passes);
    EXPECT_EQ(back.has_output, spec.has_output);
    EXPECT_EQ(back.has_vote, spec.has_vote);
    EXPECT_EQ(back.name, spec.name);
    EXPECT_EQ(back.scalars, spec.scalars);
    ASSERT_EQ(back.inputs.size(), end - begin);
    ASSERT_EQ(back.preinbox.size(), end - begin);
    for (std::size_t m = begin; m < end; ++m) {
      const std::string where =
          "seed " + std::to_string(seed) + " machine " + std::to_string(m);
      EXPECT_EQ(back.inputs[m - begin],
                spec.inputs.empty() ? std::vector<Word>{} : spec.inputs[m])
          << where;
      expect_same_inbox(back.preinbox[m - begin], inboxes[m], where);
      // Preinbox messages are spans into the payload, not copies.
      for (const std::span<const Word> msg : back.preinbox[m - begin].msgs) {
        if (msg.empty()) continue;
        EXPECT_TRUE(msg.data() >= payload.data() &&
                    msg.data() + msg.size() <= payload.data() + payload.size())
            << where;
      }
    }

    // Inbox dumps share the layout; what they write back is held, so it
    // survives the dump payload being overwritten.
    std::vector<Word> dump = encode_inbox_dump(inboxes, begin, end);
    std::vector<engine::Inbox> written(machines);
    decode_inbox_dump(dump, written, begin, end);
    std::fill(dump.begin(), dump.end(), Word{0xDEAD});
    const engine::Inbox untouched;
    for (std::size_t m = 0; m < machines; ++m)
      expect_same_inbox(written[m],
                        m >= begin && m < end ? inboxes[m] : untouched,
                        "dump seed " + std::to_string(seed) + " machine " +
                            std::to_string(m));
  }
}

/// Helper: expect an InvariantError whose message contains `needle`.
template <typename Fn>
void expect_rejected(const Fn& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected rejection naming \"" << needle << "\"";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "got: " << e.what();
  }
}

TEST(WireFormat, TruncatedAndOversizedFramesRejectedByName) {
  // Header defects.
  expect_rejected(
      [] {
        const std::array<Word, 3> bad{kFrameMagic + 1, 5, 0};
        decode_frame_header(bad);
      },
      "bad frame magic");
  expect_rejected(
      [] {
        const std::array<Word, 3> bad{kFrameMagic, 999, 0};
        decode_frame_header(bad);
      },
      "unknown frame type");
  expect_rejected(
      [] {
        const std::array<Word, 3> bad{kFrameMagic, 5,
                                      kMaxFramePayloadWords + 1};
        decode_frame_header(bad);
      },
      "oversized frame");
  expect_rejected([] { encode_frame_header(FrameType::kOutbox,
                                           kMaxFramePayloadWords + 7); },
                  "oversized frame");

  // Payload defects: a valid outbox frame, truncated at every prefix
  // length, must throw a named error — never read out of bounds or
  // deliver short.
  util::SplitRng rng(42);
  const auto outboxes = random_bank(rng, 4, 4096, true);
  const std::vector<Word> payload =
      encode_outbox_frame(0, 0, outboxes, 0, 4, 0, 4);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::vector<Word> short_payload(payload.begin(),
                                          payload.begin() + cut);
    expect_rejected(
        [&] {
          std::vector<engine::Inbox> inboxes(4);
          OutboxFrameView view = decode_outbox_counts(short_payload, 4);
          deliver_outbox_msgs(view, inboxes, 0, 4);
        },
        "truncated outbox frame");
  }
  // Trailing junk the encoder never wrote.
  std::vector<Word> longer = payload;
  longer.push_back(0xDEAD);
  expect_rejected(
      [&] {
        std::vector<engine::Inbox> inboxes(4);
        OutboxFrameView view = decode_outbox_counts(longer, 4);
        deliver_outbox_msgs(view, inboxes, 0, 4);
      },
      "oversized outbox frame");

  // Truncated program frames, same treatment.
  engine::RoundProgram program;
  program.steps.resize(2);
  program.remote = std::make_shared<engine::RemoteSpec>();
  program.remote->name = "net.storm";
  program.remote->scalars = {3, 4};
  program.remote->inputs = {{1, 2, 3}};
  std::vector<engine::Inbox> preinbox(1);
  preinbox[0].append(std::vector<Word>{5});
  preinbox[0].append(std::vector<Word>{6, 7});
  const std::vector<Word> program_payload =
      encode_program_frame(program, 0, preinbox, 0, 1);
  for (std::size_t cut = 0; cut < program_payload.size(); ++cut) {
    const std::vector<Word> short_payload(program_payload.begin(),
                                          program_payload.begin() + cut);
    expect_rejected([&] { decode_program_frame(short_payload, 1); },
                    "truncated program frame");
  }

  // Truncated inbox dumps: the shared inbox reader names the frame, and a
  // rejected dump leaves no span into the payload behind.
  util::SplitRng dump_rng(7);
  const std::vector<engine::Inbox> dumped = random_inboxes(dump_rng, 5);
  const std::vector<Word> dump = encode_inbox_dump(dumped, 0, 5);
  for (std::size_t cut = 0; cut < dump.size(); ++cut) {
    const std::vector<Word> short_dump(dump.begin(), dump.begin() + cut);
    std::vector<engine::Inbox> inboxes(5);
    expect_rejected([&] { decode_inbox_dump(short_dump, inboxes, 0, 5); },
                    "truncated inbox-dump frame");
    for (const engine::Inbox& inbox : inboxes)
      for (const std::span<const Word> msg : inbox.msgs)
        EXPECT_FALSE(msg.data() >= short_dump.data() &&
                     msg.data() < short_dump.data() + short_dump.size());
  }
  std::vector<Word> long_dump = dump;
  long_dump.push_back(0xDEAD);
  expect_rejected(
      [&] {
        std::vector<engine::Inbox> inboxes(5);
        decode_inbox_dump(long_dump, inboxes, 0, 5);
      },
      "oversized inbox-dump frame");
}

TEST(WireFormat, TelemetryFrameRoundTripsAndRejectsDefectsByName) {
  trace::TelemetryBlob blob;
  blob.counters = {{"net.sent_words.sort", 4096}, {"net.sent_frames.sort", 8}};
  trace::HistogramSnapshot hist;
  hist.name = "net.round_us";
  hist.count = 3;
  hist.sum = 6.5;
  hist.samples = {1.0, 2.25, 3.25};
  blob.histograms = {hist};
  blob.spans = {{"compute sort", "net", 7, 1000, 250},
                {"send sort", "net", 7, 1300, 40}};

  const std::vector<Word> payload = encode_telemetry_frame(3, blob);
  const TelemetryFrame decoded = decode_telemetry_frame(payload);
  EXPECT_EQ(decoded.rank, 3u);
  ASSERT_EQ(decoded.blob.counters.size(), 2u);
  EXPECT_EQ(decoded.blob.counters[0].first, "net.sent_words.sort");
  EXPECT_EQ(decoded.blob.counters[0].second, 4096u);
  ASSERT_EQ(decoded.blob.histograms.size(), 1u);
  EXPECT_EQ(decoded.blob.histograms[0].name, "net.round_us");
  EXPECT_EQ(decoded.blob.histograms[0].count, 3u);
  EXPECT_DOUBLE_EQ(decoded.blob.histograms[0].sum, 6.5);
  EXPECT_EQ(decoded.blob.histograms[0].samples, hist.samples);
  ASSERT_EQ(decoded.blob.spans.size(), 2u);
  EXPECT_EQ(decoded.blob.spans[0].name, "compute sort");
  EXPECT_EQ(decoded.blob.spans[0].category, "net");
  EXPECT_EQ(decoded.blob.spans[0].tid, 7u);
  EXPECT_EQ(decoded.blob.spans[0].start_ns, 1000);
  EXPECT_EQ(decoded.blob.spans[0].dur_ns, 250);

  // Same fuzz treatment as every other frame: every truncation prefix is
  // rejected by name, as is trailing junk.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::vector<Word> short_payload(payload.begin(),
                                          payload.begin() + cut);
    expect_rejected([&] { decode_telemetry_frame(short_payload); },
                    "truncated telemetry frame");
  }
  std::vector<Word> longer = payload;
  longer.push_back(0xDEAD);
  expect_rejected([&] { decode_telemetry_frame(longer); },
                  "oversized telemetry frame");

  // A telemetry frame's header is a known type (corrupted headers stay
  // covered by the header fuzz above, which rejects before the payload
  // decoder ever runs).
  const std::array<Word, 3> header{
      kFrameMagic, static_cast<Word>(FrameType::kTelemetry),
      static_cast<Word>(payload.size())};
  const FrameHeader parsed = decode_frame_header(header);
  EXPECT_EQ(parsed.type, FrameType::kTelemetry);
}

// ------------------------------------------------- strict env overrides

TEST(EnvOverrides, BoolFlagsRejectUnknownValuesByName) {
  EXPECT_TRUE(mpc::parse_bool_flag("1", "ARBOR_DISTRIBUTED_LEVEL1"));
  EXPECT_TRUE(mpc::parse_bool_flag("yes", "ARBOR_DISTRIBUTED_LEVEL1"));
  EXPECT_FALSE(mpc::parse_bool_flag("0", "ARBOR_DISTRIBUTED_LEVEL1"));
  EXPECT_FALSE(mpc::parse_bool_flag("off", "ARBOR_TSAN"));
  // Regression: these used to silently fall back to the default.
  expect_rejected(
      [] { mpc::parse_bool_flag("ture", "ARBOR_DISTRIBUTED_LEVEL1"); },
      "ARBOR_DISTRIBUTED_LEVEL1=\"ture\"");
  expect_rejected([] { mpc::parse_bool_flag("2", "ARBOR_TSAN"); },
                  "ARBOR_TSAN=\"2\"");
  expect_rejected([] { mpc::parse_bool_flag("", "ARBOR_TSAN"); },
                  "not a boolean flag");
}

TEST(EnvOverrides, TransportFlagParsesKindsAndWorkerCounts) {
  EXPECT_EQ(mpc::parse_transport_flag("inprocess", "ARBOR_TRANSPORT"),
            TransportConfig{});
  EXPECT_EQ(mpc::parse_transport_flag("loopback", "ARBOR_TRANSPORT"),
            TransportConfig::loopback(2));
  EXPECT_EQ(mpc::parse_transport_flag("loopback:5", "ARBOR_TRANSPORT"),
            TransportConfig::loopback(5));
  EXPECT_EQ(mpc::parse_transport_flag("tcp", "ARBOR_TRANSPORT"),
            TransportConfig::tcp(2));
  EXPECT_EQ(mpc::parse_transport_flag("tcp:4", "ARBOR_TRANSPORT"),
            TransportConfig::tcp(4));

  expect_rejected([] { mpc::parse_transport_flag("mpi", "ARBOR_TRANSPORT"); },
                  "ARBOR_TRANSPORT=\"mpi\"");
  expect_rejected(
      [] { mpc::parse_transport_flag("tcp:zero", "ARBOR_TRANSPORT"); },
      "not a number");
  expect_rejected([] { mpc::parse_transport_flag("tcp:0", "ARBOR_TRANSPORT"); },
                  "must be >= 1");
  // Regression: a trailing colon (truncated "tcp:4", or a script
  // interpolating an empty variable) used to silently fall back to the
  // default worker count.
  expect_rejected([] { mpc::parse_transport_flag("tcp:", "ARBOR_TRANSPORT"); },
                  "worker count is empty");
  expect_rejected(
      [] { mpc::parse_transport_flag("inprocess:", "ARBOR_TRANSPORT"); },
      "worker count is empty");
  expect_rejected(
      [] { mpc::parse_transport_flag("inprocess:2", "ARBOR_TRANSPORT"); },
      "no worker count");
}

// ------------------------------------- transport determinism matrix
//
// The acceptance bar of the subsystem: every distributable RoundProgram
// produces bit-identical outputs, inbox fingerprints, and ledger totals
// under the multi-process backend — loopback and 2-/4-worker tcp on
// localhost — as under the in-process serial engine.

std::uint64_t matrix_fingerprint(const mpc::Cluster& cluster) {
  std::uint64_t h = util::mix64(0x12345);
  for (std::size_t m = 0; m < cluster.num_machines(); ++m) {
    for (const auto& msg : cluster.inbox(m)) {
      h = util::hash_combine(h, msg.size());
      for (Word w : msg) h = util::hash_combine(h, w);
    }
    h = util::hash_combine(h, m);
  }
  return h;
}

std::vector<TransportConfig> transport_matrix() {
  return {TransportConfig{},                   // in-process reference
          TransportConfig::loopback(2),        //
          TransportConfig::loopback(3),        // uneven blocks
          {TransportConfig::Kind::kLoopback, 2, /*worker_threads=*/2},
          TransportConfig::tcp(2),             //
          TransportConfig::tcp(4)};
}

struct MatrixOutcome {
  std::uint64_t fingerprint = 0;
  std::size_t total_rounds = 0;
  std::size_t peak_traffic = 0;
  std::map<std::string, std::size_t> by_label;
};

template <typename RunFn>
void expect_transports_identical(
    const char* what, const RunFn& run, std::size_t machines = 8,
    std::size_t capacity = 4096) {
  std::vector<MatrixOutcome> outcomes;
  for (const TransportConfig& transport : transport_matrix()) {
    ClusterConfig cfg{machines, capacity};
    cfg.transport = transport;
    mpc::RoundLedger ledger(cfg);
    mpc::Cluster cluster(cfg, &ledger);
    EXPECT_EQ(cluster.distributed(), !transport.in_process());
    run(cluster, outcomes.empty());
    MatrixOutcome outcome;
    outcome.fingerprint = matrix_fingerprint(cluster);
    outcome.total_rounds = ledger.total_rounds();
    outcome.peak_traffic = ledger.peak_round_traffic();
    outcome.by_label = ledger.rounds_by_label();
    outcomes.push_back(outcome);
  }
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].fingerprint, outcomes[0].fingerprint)
        << what << " transport mode " << i;
    EXPECT_EQ(outcomes[i].total_rounds, outcomes[0].total_rounds)
        << what << " transport mode " << i;
    EXPECT_EQ(outcomes[i].peak_traffic, outcomes[0].peak_traffic)
        << what << " transport mode " << i;
    EXPECT_EQ(outcomes[i].by_label, outcomes[0].by_label)
        << what << " transport mode " << i;
  }
}

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

TEST(TransportDeterminismMatrix, SampleSort) {
  const auto input = random_slabs(8, 48, 121);
  std::vector<std::vector<Word>> reference;
  expect_transports_identical(
      "sample_sort", [&](mpc::Cluster& cluster, bool first) {
        const mpc::RecordSortResult result =
            sample_sort_records(cluster, input, 1);
        if (first)
          reference = result.slabs;
        else
          EXPECT_EQ(result.slabs, reference);
      });
}

TEST(TransportDeterminismMatrix, RecordSampleSort) {
  util::SplitRng rng(122);
  std::vector<std::vector<Word>> input(8);
  std::size_t payload = 0;
  for (auto& slab : input)
    for (int r = 0; r < 24; ++r) {
      slab.push_back(rng.next_below(8));  // heavily duplicated key
      slab.push_back(payload++);
    }
  std::vector<std::vector<Word>> reference;
  expect_transports_identical(
      "sample_sort_records", [&](mpc::Cluster& cluster, bool first) {
        const mpc::RecordSortResult result =
            sample_sort_records(cluster, input, 2, 1);
        EXPECT_EQ(result.rounds, 7u);
        if (first)
          reference = result.slabs;
        else
          EXPECT_EQ(result.slabs, reference);
      });
}

// The tree again at a wide, ragged machine count whose groups straddle
// worker-block boundaries.
TEST(TransportDeterminismMatrix, WideTreeSampleSort) {
  const std::size_t machines = 75;  // r = 9, ragged last group of 3
  const auto input = random_slabs(machines, 40, 126);
  std::vector<std::vector<Word>> reference;
  expect_transports_identical(
      "sample_sort/tree-wide",
      [&](mpc::Cluster& cluster, bool first) {
        const mpc::RecordSortResult result =
            sample_sort_records(cluster, input, 1);
        EXPECT_EQ(result.rounds, 7u);
        if (first)
          reference = result.slabs;
        else
          EXPECT_EQ(result.slabs, reference);
      },
      machines, 8192);
}

TEST(TransportDeterminismMatrix, BroadcastAndConverge) {
  std::vector<std::vector<Word>> reference_copies;
  expect_transports_identical(
      "broadcast", [&](mpc::Cluster& cluster, bool first) {
        const mpc::BroadcastResult result =
            broadcast_tree(cluster, 3, {7, 8, 9}, 2);
        if (first)
          reference_copies = result.copies;
        else
          EXPECT_EQ(result.copies, reference_copies);
      });
  expect_transports_identical("converge", [&](mpc::Cluster& cluster, bool) {
    std::vector<Word> values(cluster.num_machines());
    for (std::size_t m = 0; m < values.size(); ++m) values[m] = m * 3 + 1;
    const mpc::ConvergeResult result = converge_sum(cluster, 2, values, 2);
    EXPECT_EQ(result.sum, 92u);  // Σ (3m+1) for m < 8
  });
}

TEST(TransportDeterminismMatrix, BundleFetch) {
  std::vector<std::vector<Word>> bundles(12);
  std::vector<std::vector<graph::VertexId>> requests(12);
  util::SplitRng rng(123);
  for (std::size_t v = 0; v < bundles.size(); ++v)
    for (std::size_t i = 0; i <= rng.next_below(3); ++i)
      bundles[v].push_back(v * 100 + i);
  for (std::size_t u = 0; u < requests.size(); ++u)
    for (std::size_t i = 0; i < rng.next_below(4); ++i)
      requests[u].push_back(rng.next_below(bundles.size()));
  std::vector<std::vector<std::vector<Word>>> reference;
  expect_transports_identical(
      "bundle_fetch", [&](mpc::Cluster& cluster, bool first) {
        const mpc::Level0BundleFetchResult result =
            fetch_bundles_program(cluster, bundles, requests);
        EXPECT_EQ(result.rounds, 3u);
        if (first)
          reference = result.delivered;
        else
          EXPECT_EQ(result.delivered, reference);
      });
}

TEST(TransportDeterminismMatrix, EmbeddedPeeling) {
  util::SplitRng rng(124);
  const graph::Graph g = graph::gnm(300, 900, rng);
  std::vector<std::uint32_t> reference_layers;
  std::uint32_t reference_num_layers = 0;
  expect_transports_identical(
      "peeling", [&](mpc::Cluster& cluster, bool first) {
        const local::EmbeddedPeelingResult result =
            local::embedded_threshold_peeling(g, 6, cluster, 100);
        if (first) {
          reference_layers = result.layer;
          reference_num_layers = result.num_layers;
        } else {
          EXPECT_EQ(result.layer, reference_layers);
          EXPECT_EQ(result.num_layers, reference_num_layers);
        }
      });
}

// Back-to-back programs on one distributed cluster: the second program's
// preinbox scatter must reproduce the stale leftovers of the first, so
// reuse behaves exactly like the in-process engine.
TEST(TransportDeterminismMatrix, StaleInboxesSurviveProgramReuse) {
  for (const TransportConfig& transport :
       {TransportConfig::loopback(2), TransportConfig::tcp(2)}) {
    ClusterConfig cfg{8, 4096};
    cfg.transport = transport;
    mpc::Cluster cluster(cfg, nullptr);
    broadcast_tree(cluster, 0, {11, 22}, 2);  // leaves inbox traffic
    const mpc::BroadcastResult second = broadcast_tree(cluster, 5, {77}, 2);
    for (std::size_t m = 0; m < cfg.num_machines; ++m)
      EXPECT_EQ(second.copies[m], (std::vector<Word>{77})) << "machine " << m;
  }
}

// ---------------------------------------- direct backend API + storm

std::shared_ptr<StormState> storm_state(std::size_t machines,
                                        std::size_t batch,
                                        std::size_t rounds,
                                        std::uint64_t seed) {
  auto st = std::make_shared<StormState>();
  st->machines = machines;
  st->batch = batch;
  st->rounds = rounds;
  st->slabs = random_slabs(machines, 16, seed);
  return st;
}

TEST(MultiProcessBackend, PerRoundFingerprintsAgreeAcrossTransports) {
  std::vector<std::vector<std::uint64_t>> per_transport;
  for (const TransportConfig& transport :
       {TransportConfig::loopback(2), TransportConfig::tcp(2),
        TransportConfig::tcp(4)}) {
    GroupOptions options;
    options.transport = transport;
    options.machines = 8;
    options.capacity = 4096;
    MultiProcessBackend backend(options);
    engine::Engine eng(engine::ExecutionPolicy::serial());
    eng.set_backend(&backend);
    engine::RoundState state(8);
    const auto program =
        make_distributable_storm_program(storm_state(8, 16, 12, 9));
    const engine::ProgramStats stats =
        eng.run_program(state, 4096, 0, program, {});
    EXPECT_EQ(stats.rounds, 12u);
    EXPECT_EQ(stats.passes, 1u);
    EXPECT_EQ(backend.group().programs_run(), 1u);
    ASSERT_EQ(backend.group().round_fingerprints().size(), 12u);
    per_transport.push_back(backend.group().round_fingerprints());
  }
  EXPECT_EQ(per_transport[0], per_transport[1]);
  EXPECT_EQ(per_transport[0], per_transport[2]);
}

TEST(MultiProcessBackend, ProgramsWithoutSpecStayInProcess) {
  ClusterConfig cfg{4, 256};
  cfg.transport = TransportConfig::loopback(2);
  mpc::Cluster cluster(cfg, nullptr);
  // run_round wraps an ad-hoc lambda — no RemoteSpec, so it must execute
  // on the in-process scheduler even though a backend is installed.
  cluster.run_round([](std::size_t m, const auto&, mpc::Sender& send) {
    const Word w = m;
    send.send((m + 1) % 4, std::span<const Word>(&w, 1));
  });
  for (std::size_t m = 0; m < 4; ++m) {
    ASSERT_EQ(cluster.inbox(m).size(), 1u);
    EXPECT_EQ(cluster.inbox(m).front()[0], (m + 3) % 4);
  }
}

TEST(MultiProcessBackend, UnknownProgramNameRejected) {
  GroupOptions options;
  options.transport = TransportConfig::loopback(2);
  options.machines = 4;
  options.capacity = 256;
  MultiProcessBackend backend(options);
  engine::Engine eng(engine::ExecutionPolicy::serial());
  eng.set_backend(&backend);
  engine::RoundState state(4);

  engine::RoundProgram program;
  program.independent([](std::size_t, const auto&, engine::Sender&) {});
  engine::RemoteSpec spec;
  spec.name = "no.such.program";
  program.distributable(std::move(spec));
  expect_rejected([&] { eng.run_program(state, 256, 0, program, {}); },
                  "\"no.such.program\" is not registered");
}

// A garbled spec fails on the worker by name instead of rebuilding a
// different program: every builtin factory rejects a scalar vector of the
// wrong length, and the sort rejects a zero sample budget (which would
// otherwise sort with no splitters and send everything to machine 0).
TEST(WorkerRegistry, MalformedSpecsRejectedByName) {
  const Registry& registry = Registry::builtin();
  const auto build = [&](const std::string& name, std::vector<Word> scalars) {
    ProgramInputs in;
    in.machines = 4;
    in.capacity = 256;
    in.block_begin = 0;
    in.block_end = 4;
    in.scalars = std::move(scalars);
    in.inputs.assign(4, {});
    registry.find(name)(in);
  };
  const std::vector<std::string> names = registry.names();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names)
    expect_rejected([&] { build(name, std::vector<Word>(16, 1)); },
                    name + " expects ");
  expect_rejected([&] { build("mpc.sample_sort_records", {2, 2, 0}); },
                  "mpc.sample_sort_records needs samples_per_machine >= 1");
}

// --------------------------------------------- driver failure handling

TEST(FailureHandling, CapViolationKeepsTypeAndNamesMachineAcrossTheWire) {
  for (const TransportConfig& transport :
       {TransportConfig::loopback(2), TransportConfig::tcp(2)}) {
    ClusterConfig cfg{4, 8};
    cfg.transport = transport;
    mpc::Cluster cluster(cfg, nullptr);
    // Payload of 5 words × fanout 2 = 10 > 8 send budget: the worker-side
    // Sender throws; the driver rethrows the relayed InvariantError.
    expect_rejected(
        [&] { broadcast_tree(cluster, 0, {1, 2, 3, 4, 5}, 2); },
        "exceeded send capacity");
  }
}

TEST(FailureHandling, LedgerChargesMatchInProcessOnErrorPaths) {
  // A program that dies in round 3 must leave the same ledger totals the
  // in-process engine would: rounds are charged as they commit.
  auto run_until_throw = [](const TransportConfig& transport) {
    ClusterConfig cfg{4, 64};
    cfg.transport = transport;
    mpc::RoundLedger ledger(cfg);
    mpc::Cluster cluster(cfg, &ledger);
    auto st = std::make_shared<StormState>();
    st->machines = 4;
    st->batch = 4;
    st->rounds = 5;
    // Slab values chosen so rounds 0..1 fit and round 2 oversends: a
    // slab of 17+ words makes batch*words exceed nothing... instead use
    // a custom program: rounds 0,1 send one word, round 2 sends 65 words
    // (> capacity) from machine 0.
    engine::RoundProgram program;
    for (std::size_t r = 0; r < 5; ++r) {
      program.independent([r](std::size_t m, const auto&,
                              engine::Sender& send) {
        if (r == 2 && m == 0) {
          const std::vector<Word> big(65, 1);
          send.send(1, big);
          return;
        }
        const Word w = m;
        send.send(0, std::span<const Word>(&w, 1));
      });
    }
    // Not a registry program — attach the storm spec? No: this ad-hoc
    // shape exists only in-process. Use the cluster directly; for the
    // distributed run the equivalent storm-with-overflow is below.
    try {
      cluster.run_program(program);
    } catch (const InvariantError&) {
    }
    return ledger.total_rounds();
  };
  const std::size_t in_process = run_until_throw(TransportConfig{});
  EXPECT_EQ(in_process, 2u);  // rounds 0 and 1 committed, round 2 threw

  // Distributed equivalent: small capacity, storm whose batch overflows
  // the receive cap eventually is nondeterministic — instead drive the
  // same assertion through the broadcast cap violation, where no round
  // ever commits (round 0 itself throws).
  for (const TransportConfig& transport :
       {TransportConfig{}, TransportConfig::loopback(2),
        TransportConfig::tcp(2)}) {
    ClusterConfig cfg{4, 8};
    cfg.transport = transport;
    mpc::RoundLedger ledger(cfg);
    mpc::Cluster cluster(cfg, &ledger);
    try {
      broadcast_tree(cluster, 0, {1, 2, 3, 4, 5}, 2);
    } catch (const InvariantError&) {
    }
    EXPECT_EQ(ledger.total_rounds(), 0u);
  }
}

TEST(FailureHandling, KilledWorkerRaisesTransportErrorAndLeavesNoZombies) {
  // Capture the run's stderr: worker processes inherit fd 2 at fork, so
  // the redirect must be in place BEFORE the backend spawns them. Every
  // line a worker runtime writes goes through worker_log and must carry
  // its "[worker:<rank>]" prefix — asserted below on the survivor's
  // peer-loss report.
  char stderr_path[] = "/tmp/arbor_net_test_stderr_XXXXXX";
  const int capture_fd = ::mkstemp(stderr_path);
  ASSERT_GE(capture_fd, 0);
  std::fflush(stderr);
  const int saved_stderr = ::dup(2);
  ASSERT_GE(saved_stderr, 0);
  ASSERT_GE(::dup2(capture_fd, 2), 0);

  GroupOptions options;
  options.transport = TransportConfig::tcp(2);
  options.machines = 8;
  options.capacity = 4096;
  MultiProcessBackend backend(options);
  const pid_t victim = backend.group().worker_pid(1);
  ASSERT_GT(victim, 0);

  engine::Engine eng(engine::ExecutionPolicy::serial());
  eng.set_backend(&backend);
  engine::RoundState state(8);
  const auto program =
      make_distributable_storm_program(storm_state(8, 8, 200, 11));

  std::size_t rounds_seen = 0;
  try {
    eng.run_program(state, 4096, 0, program,
                    [&](const engine::RoundStats&) {
                      // Deterministic kill point: after round 3 commits.
                      if (++rounds_seen == 3) ::kill(victim, SIGKILL);
                    });
    FAIL() << "expected a TransportError for the killed worker";
  } catch (const TransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("worker 1"), std::string::npos) << what;
    EXPECT_NE(what.find("machines 4..7"), std::string::npos) << what;
    EXPECT_NE(what.find("in round"), std::string::npos) << what;
  }
  EXPECT_LT(rounds_seen, 200u);

  // The group tore itself down: every worker process is reaped — no
  // zombies, no stragglers left for the test harness to leak.
  const pid_t leftover = ::waitpid(-1, nullptr, WNOHANG);
  EXPECT_TRUE(leftover == 0 || (leftover == -1 && errno == ECHILD))
      << "unreaped child " << leftover;

  // Teardown reaped the survivor (worker 0), so its stderr is flushed and
  // complete. Restore fd 2 before asserting on the capture.
  std::fflush(stderr);
  ::dup2(saved_stderr, 2);
  ::close(saved_stderr);
  ::close(capture_fd);
  std::string captured;
  {
    std::ifstream in(stderr_path);
    std::ostringstream buf;
    buf << in.rdbuf();
    captured = buf.str();
  }
  ::unlink(stderr_path);
  EXPECT_NE(captured.find("[worker:0] "), std::string::npos) << captured;
  EXPECT_NE(captured.find("lost worker 1"), std::string::npos) << captured;
  // Nothing a worker wrote may dodge the rank prefix: every non-empty
  // captured line starts with "[worker:".
  std::istringstream lines(captured);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) continue;
    EXPECT_EQ(line.rfind("[worker:", 0), 0u) << "unprefixed line: " << line;
  }
}

}  // namespace
}  // namespace arbor::net

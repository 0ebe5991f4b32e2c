// Wire format of the multi-process transport: length-prefixed frames of
// machine words.
//
// Everything that crosses an address-space boundary — outbox banks, inbox
// slabs, program specs, round stats, errors — is encoded as a Frame: a
// 3-word header (magic, type, payload length) followed by `payload length`
// Words. Words travel in host byte order: the transport is a localhost
// fabric (loopback channels and 127.0.0.1 sockets between processes of one
// build), not a portable network protocol, and the simulator's unit of
// account IS the word, so frame payload length doubles as the traffic
// measure the caps are enforced against.
//
// Decoding is defensive everywhere: headers reject bad magic, unknown
// types, and oversized lengths by name; payload readers are bounds-checked
// cursors that reject truncated or trailing words by structure name
// (tests/net_test.cpp fuzzes the round trip). The receiver-side traffic
// cap is validated from an outbox frame's count table BEFORE any message
// is delivered (as spans into the received payload) — a misbehaving
// sender cannot make a receiver take more than its word budget.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/inbox.hpp"
#include "engine/outbox.hpp"
#include "engine/program.hpp"
#include "engine/types.hpp"
#include "trace/trace.hpp"

namespace arbor::net {

using Word = engine::Word;

/// First header word of every frame ("ARBORNET" in ASCII).
inline constexpr Word kFrameMagic = 0x4152424f524e4554ULL;

/// Hard ceiling on a frame payload (2^26 words = 512 MiB) — far above any
/// simulated cluster's per-machine budget, low enough that a corrupt
/// length cannot drive a multi-gigabyte allocation.
inline constexpr Word kMaxFramePayloadWords = Word{1} << 26;

enum class FrameType : Word {
  kHello = 1,         ///< worker → driver / peer: rank, listen port
  kConfig = 2,        ///< driver → worker: cluster shape, blocks, peers
  kReady = 3,         ///< worker → driver: mesh established
  kProgram = 4,       ///< driver → worker: program spec + block inputs
  kOutbox = 5,        ///< worker → worker: one round's cross-block messages
  kRoundStats = 6,    ///< worker → driver: per-round traffic + fingerprints
  kRoundAck = 7,      ///< driver → worker: round committed, proceed
  kVote = 8,          ///< worker → driver: pass-barrier continuation vote
  kPassDecision = 9,  ///< driver → worker: run another pass or stop
  kOutputs = 10,      ///< worker → driver: per-machine output slabs
  kInboxDump = 11,    ///< worker → driver: final inbox state of the block
  kError = 12,        ///< either way: InvariantError text to relay
  kShutdown = 13,     ///< driver → worker: tear the group down
  kTelemetry = 14,    ///< worker → driver: spans + metrics at program end
};

const char* frame_type_name(FrameType type);

struct Frame {
  FrameType type = FrameType::kShutdown;
  std::vector<Word> payload;
};

struct FrameHeader {
  FrameType type;
  std::size_t payload_words;
};

std::array<Word, 3> encode_frame_header(FrameType type,
                                        std::size_t payload_words);

/// Validates magic, type, and length; throws InvariantError naming the
/// defect ("bad frame magic", "unknown frame type", "oversized frame").
FrameHeader decode_frame_header(std::span<const Word, 3> header);

// ---------------------------------------------------------------- reader

/// Bounds-checked cursor over a frame payload. Every read that would run
/// past the end throws an InvariantError naming the structure being
/// decoded ("truncated <what> frame"); expect_end() rejects trailing
/// words the encoder never wrote ("oversized <what> frame").
class WireReader {
 public:
  WireReader(std::span<const Word> data, std::string_view what)
      : data_(data), what_(what) {}

  Word word();
  std::span<const Word> words(std::size_t n);
  /// A size field about to drive an allocation: bounded by the remaining
  /// payload so a corrupt count cannot allocate past the frame.
  std::size_t count();
  std::string str();
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  void expect_end() const;

 private:
  [[noreturn]] void fail(const char* defect) const;

  std::span<const Word> data_;
  std::size_t pos_ = 0;
  std::string_view what_;
};

/// Append a byte string as [length, packed words].
void put_str(std::vector<Word>& out, std::string_view s);

// ------------------------------------------------------- outbox frames

/// One round's messages from the machines of `src` block [src_begin,
/// src_end) addressed to the machines of a destination block [dst_begin,
/// dst_end), in (source machine asc, send order) — the delivery order of
/// the in-process executor. Layout:
///
///   [round, src_rank,
///    dst_block_size, words_for_dst_0, ..., words_for_dst_{B-1},
///    num_msgs, {dst_machine, length, words...} * num_msgs]
///
/// The count table up front lets the receiver validate its per-machine
/// word caps before deserializing a single message payload.
std::vector<Word> encode_outbox_frame(std::size_t round, std::size_t src_rank,
                                      std::span<const engine::Outbox> outboxes,
                                      std::size_t src_begin,
                                      std::size_t src_end,
                                      std::size_t dst_begin,
                                      std::size_t dst_end);

/// The outbox frames of every destination block at once: frame b covers
/// [dst_bounds[b], dst_bounds[b+1]) (`dst_bounds` nondecreasing, at least
/// one entry) and equals encode_outbox_frame's for that block word for
/// word. One pass over the messages sizes every frame exactly, a second
/// fills them; messages outside [front, back) are skipped.
std::vector<std::vector<Word>> encode_outbox_frames(
    std::size_t round, std::size_t src_rank,
    std::span<const engine::Outbox> outboxes, std::size_t src_begin,
    std::size_t src_end, std::span<const std::size_t> dst_bounds);

struct OutboxFrameView {
  std::size_t round = 0;
  std::size_t src_rank = 0;
  std::vector<std::size_t> dst_words;  ///< per machine of the dst block
  WireReader msgs;                     ///< positioned at [num_msgs, ...]
};

/// Phase 1: header + count table only — no message payload is touched, so
/// the caller can enforce the receiver-side cap first.
OutboxFrameView decode_outbox_counts(std::span<const Word> payload,
                                     std::size_t dst_block_size);

/// Phase 2: record the frame's messages into `inboxes` (indexed by global
/// machine id) as spans into the frame payload, which must outlive every
/// read of them. Validates per-message destinations against the block and
/// that the payload matches the count table word for word.
void deliver_outbox_msgs(OutboxFrameView& view,
                         std::span<engine::Inbox> inboxes,
                         std::size_t dst_begin, std::size_t dst_end);

// --------------------------------------------------------- inbox dumps

/// Inboxes of machines [begin, end) with their message boundaries, in the
/// layout program frames' preinboxes share:
///   [{num_msgs, {length, words...} * num_msgs} * block_size]
std::vector<Word> encode_inbox_dump(std::span<const engine::Inbox> inboxes,
                                    std::size_t begin, std::size_t end);

/// Write an inbox dump back into `inboxes` [begin, end) (indexed by global
/// machine id). Every inbox is held, so none refers to `payload`.
void decode_inbox_dump(std::span<const Word> payload,
                       std::span<engine::Inbox> inboxes, std::size_t begin,
                       std::size_t end);

// ------------------------------------------------------- program frames

/// The kProgram payload for machines [begin, end): what a worker needs to
/// rebuild its share of `program` from the registry (src/net/registry.hpp),
/// then per machine its input slab ([length, words...]) and its inbox (the
/// inbox-dump layout), copied straight from `program.remote` and `inboxes`
/// (indexed by global machine id).
std::vector<Word> encode_program_frame(const engine::RoundProgram& program,
                                       std::size_t first_round,
                                       std::span<const engine::Inbox> inboxes,
                                       std::size_t begin, std::size_t end);

/// A decoded kProgram payload.
struct ProgramFrame {
  std::size_t first_round = 0;  ///< feeds error text, matches the driver
  std::size_t steps = 0;        ///< cross-checked against the factory's
  std::size_t max_passes = 1;
  bool has_output = false;
  bool has_vote = false;
  std::string name;
  std::vector<Word> scalars;
  /// Input slab per machine of the worker's block (block order).
  std::vector<std::vector<Word>> inputs;
  /// Inbox per machine of the block at program start (preloads and
  /// leftovers from earlier programs), as spans into the decoded payload.
  std::vector<engine::Inbox> preinbox;
};

ProgramFrame decode_program_frame(std::span<const Word> payload,
                                  std::size_t block_size);

// ----------------------------------------------------- telemetry frames

/// The kTelemetry payload a worker ships after its inbox dump when the
/// group runs traced (trace/trace.hpp):
///
///   [rank,
///    num_counters, {name, value} * num_counters,
///    num_histograms, {name, count, sum_bits,
///                     num_samples, sample_bits...} * num_histograms,
///    num_spans, {name, category, tid, start_ns, dur_ns} * num_spans]
///
/// Doubles travel as their IEEE-754 bit patterns (host order, like every
/// other word on this localhost fabric); strings use put_str.
struct TelemetryFrame {
  std::size_t rank = 0;
  trace::TelemetryBlob blob;
};

std::vector<Word> encode_telemetry_frame(std::size_t rank,
                                         const trace::TelemetryBlob& blob);
TelemetryFrame decode_telemetry_frame(std::span<const Word> payload);

}  // namespace arbor::net

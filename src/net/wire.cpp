#include "net/wire.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/assert.hpp"

namespace arbor::net {

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kConfig: return "config";
    case FrameType::kReady: return "ready";
    case FrameType::kProgram: return "program";
    case FrameType::kOutbox: return "outbox";
    case FrameType::kRoundStats: return "round-stats";
    case FrameType::kRoundAck: return "round-ack";
    case FrameType::kVote: return "vote";
    case FrameType::kPassDecision: return "pass-decision";
    case FrameType::kOutputs: return "outputs";
    case FrameType::kInboxDump: return "inbox-dump";
    case FrameType::kError: return "error";
    case FrameType::kShutdown: return "shutdown";
    case FrameType::kTelemetry: return "telemetry";
  }
  return "invalid";
}

namespace {

bool known_frame_type(Word type) {
  return type >= static_cast<Word>(FrameType::kHello) &&
         type <= static_cast<Word>(FrameType::kTelemetry);
}

}  // namespace

std::array<Word, 3> encode_frame_header(FrameType type,
                                        std::size_t payload_words) {
  ARBOR_CHECK_MSG(payload_words <= kMaxFramePayloadWords,
                  "oversized frame: " + std::to_string(payload_words) +
                      " payload words exceed the " +
                      std::to_string(kMaxFramePayloadWords) + "-word limit");
  return {kFrameMagic, static_cast<Word>(type),
          static_cast<Word>(payload_words)};
}

FrameHeader decode_frame_header(std::span<const Word, 3> header) {
  ARBOR_CHECK_MSG(header[0] == kFrameMagic,
                  "bad frame magic: got " + std::to_string(header[0]));
  ARBOR_CHECK_MSG(known_frame_type(header[1]),
                  "unknown frame type " + std::to_string(header[1]));
  ARBOR_CHECK_MSG(header[2] <= kMaxFramePayloadWords,
                  "oversized frame: " + std::to_string(header[2]) +
                      " payload words exceed the " +
                      std::to_string(kMaxFramePayloadWords) + "-word limit");
  return {static_cast<FrameType>(header[1]),
          static_cast<std::size_t>(header[2])};
}

// ---------------------------------------------------------------- reader

void WireReader::fail(const char* defect) const {
  throw InvariantError(std::string(defect) + " " + std::string(what_) +
                       " frame (offset " + std::to_string(pos_) + " of " +
                       std::to_string(data_.size()) + " words)");
}

Word WireReader::word() {
  if (pos_ >= data_.size()) fail("truncated");
  return data_[pos_++];
}

std::span<const Word> WireReader::words(std::size_t n) {
  if (n > data_.size() - pos_) fail("truncated");
  const std::span<const Word> out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::size_t WireReader::count() {
  const Word v = word();
  if (v > data_.size() - pos_) fail("truncated");
  return static_cast<std::size_t>(v);
}

std::string WireReader::str() {
  const Word bytes = word();
  const std::size_t packed = (static_cast<std::size_t>(bytes) + 7) / 8;
  const std::span<const Word> raw = words(packed);
  std::string out(static_cast<std::size_t>(bytes), '\0');
  if (bytes > 0) std::memcpy(out.data(), raw.data(), out.size());
  return out;
}

void WireReader::expect_end() const {
  if (pos_ != data_.size()) fail("oversized");
}

void put_str(std::vector<Word>& out, std::string_view s) {
  out.push_back(static_cast<Word>(s.size()));
  const std::size_t packed = (s.size() + 7) / 8;
  const std::size_t base = out.size();
  out.resize(base + packed, 0);
  if (!s.empty()) std::memcpy(out.data() + base, s.data(), s.size());
}

// ------------------------------------------------------- outbox frames

std::vector<Word> encode_outbox_frame(std::size_t round, std::size_t src_rank,
                                      std::span<const engine::Outbox> outboxes,
                                      std::size_t src_begin,
                                      std::size_t src_end,
                                      std::size_t dst_begin,
                                      std::size_t dst_end) {
  const std::array<std::size_t, 2> bounds{dst_begin, dst_end};
  return std::move(encode_outbox_frames(round, src_rank, outboxes, src_begin,
                                        src_end, bounds)[0]);
}

std::vector<std::vector<Word>> encode_outbox_frames(
    std::size_t round, std::size_t src_rank,
    std::span<const engine::Outbox> outboxes, std::size_t src_begin,
    std::size_t src_end, std::span<const std::size_t> dst_bounds) {
  ARBOR_CHECK(src_end <= outboxes.size() && src_begin <= src_end);
  ARBOR_CHECK(!dst_bounds.empty() &&
              std::is_sorted(dst_bounds.begin(), dst_bounds.end()));
  const std::size_t blocks = dst_bounds.size() - 1;
  const std::size_t lo = dst_bounds.front();
  const std::size_t hi = dst_bounds.back();
  // The block holding destination machine dst ∈ [lo, hi).
  const auto block_of = [&](std::size_t dst) {
    return static_cast<std::size_t>(
        std::upper_bound(dst_bounds.begin() + 1, dst_bounds.end(), dst) -
        (dst_bounds.begin() + 1));
  };

  // Pass 1: words per destination machine (the count tables) and each
  // frame's message count and exact size.
  std::vector<Word> machine_words(hi - lo, 0);
  std::vector<Word> num_msgs(blocks, 0);
  std::vector<std::size_t> size(blocks);
  for (std::size_t b = 0; b < blocks; ++b)
    size[b] = 4 + (dst_bounds[b + 1] - dst_bounds[b]);
  for (std::size_t src = src_begin; src < src_end; ++src)
    for (const engine::Outbox::Msg& msg : outboxes[src].msgs) {
      if (msg.dst < lo || msg.dst >= hi) continue;
      const std::size_t b = block_of(msg.dst);
      machine_words[msg.dst - lo] += static_cast<Word>(msg.length);
      ++num_msgs[b];
      size[b] += 2 + msg.length;
    }

  std::vector<std::vector<Word>> frames(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<Word>& out = frames[b];
    out.reserve(size[b]);
    out.push_back(static_cast<Word>(round));
    out.push_back(static_cast<Word>(src_rank));
    out.push_back(static_cast<Word>(dst_bounds[b + 1] - dst_bounds[b]));
    out.insert(out.end(), machine_words.begin() + (dst_bounds[b] - lo),
               machine_words.begin() + (dst_bounds[b + 1] - lo));
    out.push_back(num_msgs[b]);
  }
  // Pass 2: every message into its block's frame, in (source machine asc,
  // send order).
  for (std::size_t src = src_begin; src < src_end; ++src) {
    const engine::Outbox& box = outboxes[src];
    for (const engine::Outbox::Msg& msg : box.msgs) {
      if (msg.dst < lo || msg.dst >= hi) continue;
      std::vector<Word>& out = frames[block_of(msg.dst)];
      out.push_back(static_cast<Word>(msg.dst));
      out.push_back(static_cast<Word>(msg.length));
      const std::span<const Word> payload = box.payload(msg);
      out.insert(out.end(), payload.begin(), payload.end());
    }
  }
  for (std::size_t b = 0; b < blocks; ++b)
    ARBOR_CHECK(frames[b].size() == size[b]);
  return frames;
}

OutboxFrameView decode_outbox_counts(std::span<const Word> payload,
                                     std::size_t dst_block_size) {
  WireReader reader(payload, "outbox");
  const auto round = static_cast<std::size_t>(reader.word());
  const auto src_rank = static_cast<std::size_t>(reader.word());
  const auto block = static_cast<std::size_t>(reader.word());
  ARBOR_CHECK_MSG(block == dst_block_size,
                  "outbox frame addresses a block of " + std::to_string(block) +
                      " machines, receiver holds " +
                      std::to_string(dst_block_size));
  std::vector<std::size_t> dst_words(block);
  for (std::size_t i = 0; i < block; ++i)
    dst_words[i] = static_cast<std::size_t>(reader.word());
  return {round, src_rank, std::move(dst_words), reader};
}

void deliver_outbox_msgs(OutboxFrameView& view,
                         std::span<engine::Inbox> inboxes,
                         std::size_t dst_begin, std::size_t dst_end) {
  WireReader& reader = view.msgs;
  const std::size_t num_msgs = reader.count();
  std::vector<std::size_t> seen(dst_end - dst_begin, 0);
  for (std::size_t i = 0; i < num_msgs; ++i) {
    const auto dst = static_cast<std::size_t>(reader.word());
    ARBOR_CHECK_MSG(dst >= dst_begin && dst < dst_end,
                    "outbox frame message for machine " + std::to_string(dst) +
                        " outside the receiver's block");
    const std::size_t length = reader.count();
    seen[dst - dst_begin] += length;
    ARBOR_CHECK_MSG(seen[dst - dst_begin] <= view.dst_words[dst - dst_begin],
                    "outbox frame payload exceeds its count table for "
                    "machine " +
                        std::to_string(dst));
    inboxes[dst].refer(reader.words(length));
  }
  for (std::size_t i = 0; i < seen.size(); ++i)
    ARBOR_CHECK_MSG(seen[i] == view.dst_words[i],
                    "outbox frame payload short of its count table for "
                    "machine " +
                        std::to_string(dst_begin + i));
  reader.expect_end();
}

// --------------------------------------------------------- inbox dumps

namespace {

/// One machine's inbox: [num_msgs, {length, words...} * num_msgs], the
/// layout inbox dumps and program frames share.
void put_inbox(std::vector<Word>& out, const engine::Inbox& inbox) {
  out.push_back(static_cast<Word>(inbox.msgs.size()));
  for (const std::span<const Word> msg : inbox.msgs) {
    out.push_back(static_cast<Word>(msg.size()));
    out.insert(out.end(), msg.begin(), msg.end());
  }
}

/// Replace `inbox` with the reader's next one, as spans into its payload.
void read_inbox(WireReader& reader, engine::Inbox& inbox) {
  inbox.clear();
  try {
    const std::size_t num_msgs = reader.count();
    for (std::size_t i = 0; i < num_msgs; ++i)
      inbox.refer(reader.words(reader.count()));
  } catch (...) {
    inbox.clear();  // no span may outlive a rejected payload
    throw;
  }
}

}  // namespace

std::vector<Word> encode_inbox_dump(std::span<const engine::Inbox> inboxes,
                                    std::size_t begin, std::size_t end) {
  ARBOR_CHECK(end <= inboxes.size() && begin <= end);
  std::vector<Word> out;
  for (std::size_t m = begin; m < end; ++m) put_inbox(out, inboxes[m]);
  return out;
}

void decode_inbox_dump(std::span<const Word> payload,
                       std::span<engine::Inbox> inboxes, std::size_t begin,
                       std::size_t end) {
  ARBOR_CHECK(end <= inboxes.size() && begin <= end);
  WireReader reader(payload, "inbox-dump");
  for (std::size_t m = begin; m < end; ++m) {
    read_inbox(reader, inboxes[m]);
    inboxes[m].hold();
  }
  reader.expect_end();
}

// ------------------------------------------------------- program frames

std::vector<Word> encode_program_frame(const engine::RoundProgram& program,
                                       std::size_t first_round,
                                       std::span<const engine::Inbox> inboxes,
                                       std::size_t begin, std::size_t end) {
  ARBOR_CHECK(program.remote && end <= inboxes.size() && begin <= end);
  const engine::RemoteSpec& spec = *program.remote;
  const auto input = [&spec](std::size_t m) {
    return spec.inputs.empty() ? std::span<const Word>()
                               : std::span<const Word>(spec.inputs[m]);
  };
  // Size the payload up front, so no growth re-copies it.
  std::size_t size = 6 + (spec.name.size() + 7) / 8 + spec.scalars.size();
  for (std::size_t m = begin; m < end; ++m)
    size += 2 + input(m).size() + inboxes[m].msgs.size() + inboxes[m].words;
  std::vector<Word> out;
  out.reserve(size);
  out.push_back(static_cast<Word>(first_round));
  out.push_back(static_cast<Word>(program.steps.size()));
  out.push_back(static_cast<Word>(program.max_passes));
  out.push_back((spec.has_output ? 1u : 0u) | (spec.has_vote ? 2u : 0u));
  put_str(out, spec.name);
  out.push_back(static_cast<Word>(spec.scalars.size()));
  out.insert(out.end(), spec.scalars.begin(), spec.scalars.end());
  for (std::size_t m = begin; m < end; ++m) {
    out.push_back(static_cast<Word>(input(m).size()));
    out.insert(out.end(), input(m).begin(), input(m).end());
    put_inbox(out, inboxes[m]);
  }
  return out;
}

ProgramFrame decode_program_frame(std::span<const Word> payload,
                                  std::size_t block_size) {
  WireReader reader(payload, "program");
  ProgramFrame frame;
  frame.first_round = static_cast<std::size_t>(reader.word());
  frame.steps = static_cast<std::size_t>(reader.word());
  frame.max_passes = static_cast<std::size_t>(reader.word());
  const Word flags = reader.word();
  frame.has_output = (flags & 1u) != 0;
  frame.has_vote = (flags & 2u) != 0;
  frame.name = reader.str();
  const std::size_t num_scalars = reader.count();
  const std::span<const Word> scalars = reader.words(num_scalars);
  frame.scalars.assign(scalars.begin(), scalars.end());
  frame.inputs.resize(block_size);
  frame.preinbox.resize(block_size);
  for (std::size_t i = 0; i < block_size; ++i) {
    const std::span<const Word> input = reader.words(reader.count());
    frame.inputs[i].assign(input.begin(), input.end());
    read_inbox(reader, frame.preinbox[i]);
  }
  reader.expect_end();
  return frame;
}

// ----------------------------------------------------- telemetry frames

namespace {

Word double_bits(double value) { return std::bit_cast<Word>(value); }
double bits_double(Word bits) { return std::bit_cast<double>(bits); }

}  // namespace

std::vector<Word> encode_telemetry_frame(std::size_t rank,
                                         const trace::TelemetryBlob& blob) {
  std::vector<Word> out;
  out.push_back(static_cast<Word>(rank));
  out.push_back(static_cast<Word>(blob.counters.size()));
  for (const auto& [name, value] : blob.counters) {
    put_str(out, name);
    out.push_back(value);
  }
  out.push_back(static_cast<Word>(blob.histograms.size()));
  for (const trace::HistogramSnapshot& hist : blob.histograms) {
    put_str(out, hist.name);
    out.push_back(hist.count);
    out.push_back(double_bits(hist.sum));
    out.push_back(static_cast<Word>(hist.samples.size()));
    for (double sample : hist.samples) out.push_back(double_bits(sample));
  }
  out.push_back(static_cast<Word>(blob.spans.size()));
  for (const trace::TelemetrySpan& span : blob.spans) {
    put_str(out, span.name);
    put_str(out, span.category);
    out.push_back(span.tid);
    out.push_back(static_cast<Word>(span.start_ns));
    out.push_back(static_cast<Word>(span.dur_ns));
  }
  return out;
}

TelemetryFrame decode_telemetry_frame(std::span<const Word> payload) {
  WireReader reader(payload, "telemetry");
  TelemetryFrame frame;
  frame.rank = static_cast<std::size_t>(reader.word());
  const std::size_t num_counters = reader.count();
  frame.blob.counters.reserve(num_counters);
  for (std::size_t i = 0; i < num_counters; ++i) {
    std::string name = reader.str();
    const Word value = reader.word();
    frame.blob.counters.emplace_back(std::move(name), value);
  }
  const std::size_t num_hists = reader.count();
  frame.blob.histograms.resize(num_hists);
  for (trace::HistogramSnapshot& hist : frame.blob.histograms) {
    hist.name = reader.str();
    hist.count = reader.word();
    hist.sum = bits_double(reader.word());
    const std::size_t num_samples = reader.count();
    hist.samples.reserve(num_samples);
    for (std::size_t i = 0; i < num_samples; ++i)
      hist.samples.push_back(bits_double(reader.word()));
  }
  const std::size_t num_spans = reader.count();
  frame.blob.spans.resize(num_spans);
  for (trace::TelemetrySpan& span : frame.blob.spans) {
    span.name = reader.str();
    span.category = reader.str();
    span.tid = reader.word();
    span.start_ns = static_cast<std::int64_t>(reader.word());
    span.dur_ns = static_cast<std::int64_t>(reader.word());
  }
  reader.expect_end();
  return frame;
}

}  // namespace arbor::net

// Tests for the run tracing + metrics telemetry (src/trace/):
//
//   * strict ARBOR_TRACE flag parsing and percentile math;
//   * tracing is observation only — outputs and ledger totals are
//     bit-identical with tracing off or full, across {serial, parallel} ×
//     {in-process, loopback, tcp:2};
//   * the JSON walker reports every grammar defect with the same text and
//     offset from check_json and parse_json, and parse_json builds the
//     document tree;
//   * the emitted Chrome trace is valid JSON (a real parse, not a grep)
//     with at least one span per named step of the tree sample sort;
//   * a traced tcp worker group ships spans and metrics back: the merged
//     report carries both workers' lanes, and the driver-side
//     cluster.round_words.* counters match the ledger's per-label traffic
//     totals exactly.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mpc/cluster.hpp"
#include "mpc/ledger.hpp"
#include "mpc/sample_sort.hpp"
#include "trace/json_check.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace arbor::trace {
namespace {

using mpc::ClusterConfig;
using mpc::TransportConfig;
using mpc::Word;

// ------------------------------------------------------------- parsing

TEST(TraceFlag, ParsesStrictly) {
  EXPECT_EQ(parse_trace_flag("off", "ARBOR_TRACE"),
            (TraceConfig{Mode::kOff, ""}));
  EXPECT_EQ(parse_trace_flag("spans", "ARBOR_TRACE"),
            (TraceConfig{Mode::kSpans, ""}));
  EXPECT_EQ(parse_trace_flag("full", "ARBOR_TRACE"),
            (TraceConfig{Mode::kFull, ""}));
  EXPECT_EQ(parse_trace_flag("full:/tmp/t.json", "ARBOR_TRACE"),
            (TraceConfig{Mode::kFull, "/tmp/t.json"}));
  EXPECT_EQ(parse_trace_flag("spans:out.json", "ARBOR_TRACE"),
            (TraceConfig{Mode::kSpans, "out.json"}));

  const auto rejected = [](std::string_view value,
                           std::string_view fragment) {
    try {
      parse_trace_flag(value, "ARBOR_TRACE");
      FAIL() << "expected rejection of " << value;
    } catch (const InvariantError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("ARBOR_TRACE=\"" + std::string(value) + "\""),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(fragment), std::string::npos) << what;
    }
  };
  rejected("verbose", "not a trace mode");
  rejected("Full", "not a trace mode");  // strict: no case folding
  rejected("", "not a trace mode");
  rejected("full:", "trace path is empty");
  rejected("off:file.json", "the off mode takes no trace path");
}

TEST(Percentile, NearestRankOnKnownSamples) {
  const std::vector<double> sorted{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(sorted, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 95), 10.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 99), 10.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{}, 50), 0.0);
}

TEST(Metrics, RegistryMergesDeterministically) {
  MetricsRegistry a;
  a.add("words", 10);
  a.observe("lat", 1.0);
  a.observe("lat", 3.0);

  MetricsRegistry b;
  b.add("words", 32);
  HistogramSnapshot h;
  h.name = "lat";
  h.count = 1;
  h.sum = 2.0;
  h.samples = {2.0};
  b.merge({{"words", 5}}, {h});
  EXPECT_EQ(b.counter("words"), 37u);

  a.merge({{"words", 37}}, {h});
  EXPECT_EQ(a.counter("words"), 47u);
  const auto lat = a.histogram("lat");
  ASSERT_TRUE(lat.has_value());
  EXPECT_EQ(lat->count, 3u);
  EXPECT_DOUBLE_EQ(lat->sum, 6.0);
  // Merged samples append in arrival order (sorted only for percentiles):
  // the registry preserves exactly what each rank shipped.
  EXPECT_EQ(lat->samples, (std::vector<double>{1.0, 3.0, 2.0}));
  EXPECT_FALSE(a.counter("missing").has_value());
}

// ------------------------------------------------ perturbation matrix

struct SortRun {
  std::vector<std::vector<Word>> slabs;
  std::size_t total_rounds = 0;
  std::map<std::string, std::size_t> rounds_by_label;
  std::map<std::string, std::size_t> traffic_by_label;
  std::size_t peak_traffic = 0;
};

std::vector<std::vector<Word>> sort_input(std::size_t machines,
                                          std::size_t per_machine) {
  util::SplitRng rng(97);
  std::vector<std::vector<Word>> slabs(machines);
  for (auto& slab : slabs)
    for (std::size_t i = 0; i < per_machine; ++i)
      slab.push_back(rng.next_below(Word{1} << 30));
  return slabs;
}

ClusterConfig sort_config(std::size_t machines, std::size_t per_machine,
                          std::size_t samples) {
  const std::size_t total = machines * per_machine;
  return ClusterConfig{machines, 2 * total + machines * (samples + 1) +
                                     machines * machines};
}

SortRun run_sort(ClusterConfig cfg) {
  const std::size_t machines = cfg.num_machines;
  const std::size_t samples = 8;
  mpc::RoundLedger ledger(cfg);
  mpc::Cluster cluster(cfg, &ledger);
  const mpc::RecordSortResult sorted = sample_sort_records(
      cluster, sort_input(machines, 64), 1, 1, samples);
  SortRun run;
  run.slabs = sorted.slabs;
  run.total_rounds = ledger.total_rounds();
  run.rounds_by_label = ledger.rounds_by_label();
  run.traffic_by_label = ledger.traffic_words_by_label();
  run.peak_traffic = ledger.peak_round_traffic();
  return run;
}

TEST(TracePerturbation, OffAndFullAreBitIdenticalAcrossBackends) {
  Tracer& tracer = Tracer::global();
  // Save/restore the global mode (cluster configs RAISE it), and drop the
  // spans this test records so later tests see a clean registry.
  ScopedMode guard(tracer, tracer.mode());

  struct Backend {
    const char* name;
    mpc::ExecutionPolicy policy;
    TransportConfig transport{};
  };
  const Backend backends[] = {
      {"serial", mpc::ExecutionPolicy::serial()},
      {"parallel", mpc::ExecutionPolicy::parallel(2)},
      {"loopback:2", mpc::ExecutionPolicy::serial(), TransportConfig::loopback(2)},
      {"tcp:2", mpc::ExecutionPolicy::serial(), TransportConfig::tcp(2)},
  };
  for (const Backend& backend : backends) {
    ClusterConfig cfg = sort_config(8, 64, 8);
    cfg.execution = backend.policy;
    cfg.transport = backend.transport;

    cfg.trace = TraceConfig{Mode::kOff, ""};
    const SortRun off = run_sort(cfg);
    cfg.trace = TraceConfig{Mode::kFull, ""};
    const SortRun full = run_sort(cfg);

    EXPECT_EQ(off.slabs, full.slabs) << backend.name;
    EXPECT_EQ(off.total_rounds, full.total_rounds) << backend.name;
    EXPECT_EQ(off.rounds_by_label, full.rounds_by_label) << backend.name;
    EXPECT_EQ(off.traffic_by_label, full.traffic_by_label) << backend.name;
    EXPECT_EQ(off.peak_traffic, full.peak_traffic) << backend.name;
    EXPECT_GT(full.total_rounds, 0u) << backend.name;
  }
  tracer.clear();
}

// ---------------------------------------------------------- json walker

// One input per error path of the JSON grammar walk. check_json and
// parse_json are the same walk (one validating, one building the tree),
// so both must report the same first defect at the same byte offset.
TEST(JsonWalker, ErrorPathsMatchAcrossCheckAndParse) {
  struct Case {
    std::string text;
    bool ok;
    std::size_t offset;
    std::string error;
  };
  const std::vector<Case> cases = {
      {"[true, nul]", false, 7, "bad literal"},
      {"\"a\\q\"", false, 3, "bad escape"},
      {"\"a\\", false, 3, "unterminated escape"},
      {"\"\\u12G4\"", false, 5, "bad unicode escape"},
      {"\"\\ud83d\"", false, 1, "lone high surrogate in unicode escape"},
      {"\"\\ud83d\\u0041\"", false, 1,
       "lone high surrogate in unicode escape"},
      {"\"a\\ude00\"", false, 2, "lone low surrogate in unicode escape"},
      {"\"\\ud83d\\uzz\"", false, 9, "bad unicode escape"},
      {"\"\\ud83d\\ude00\"", true, 0, ""},
      {"\"a\tb\"", false, 2, "raw control character in string"},
      {"\"abc", false, 4, "unterminated string"},
      {"{1:2}", false, 1, "expected string"},
      {"[1, -x]", false, 5, "bad number"},
      {"[1.]", false, 3, "bad number fraction"},
      {"[1e+]", false, 4, "bad number exponent"},
      {"[01]", false, 2, "leading zero in number"},
      {"[-00]", false, 3, "leading zero in number"},
      {"[0, -0, 0.5, -0e1, 10]", true, 0, ""},
      {"{\"a\" 1}", false, 5, "expected ':' in object"},
      {"{\"a\":1 \"b\":2}", false, 7, "expected ',' or '}' in object"},
      {"[1 2]", false, 3, "expected ',' or ']' in array"},
      {"{\"a\":1", false, 6, "unterminated object"},
      {"[1", false, 2, "unterminated array"},
      {"{} x", false, 3, "trailing characters after value"},
      {"", false, 0, "unexpected end of input"},
      {"   ", false, 3, "unexpected end of input"},
      {std::string(257, '[') + std::string(257, ']'), false, 256,
       "nesting too deep"},
      {std::string(256, '[') + std::string(256, ']'), true, 0, ""},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("input: " + c.text.substr(0, 40));
    const JsonCheckResult check = check_json(c.text);
    EXPECT_EQ(check.ok, c.ok);
    EXPECT_EQ(check.offset, c.offset);
    EXPECT_EQ(check.error, c.error);
    const JsonParseResult parse = parse_json(c.text);
    EXPECT_EQ(parse.ok, c.ok);
    EXPECT_EQ(parse.offset, c.offset);
    EXPECT_EQ(parse.error, c.error);
  }
}

// The tree parse_json builds: escapes decoded, \u00e9 and a raw UTF-8 é
// decode to the same bytes, numbers parsed, object members in document
// order (not sorted).
TEST(JsonWalker, ParseBuildsTheDocumentTree) {
  const std::string text =
      " {\"s\": \"q\\\"b\\\\s\\/n\\nt\\tu\\u00e9 \xC3\xA9\","
      " \"n\": [-1.5e2, 0, 42, 3.25E-1],"
      " \"z\": {\"y\": true, \"x\": false, \"w\": null},"
      " \"e\": [], \"o\": {}} ";
  const JsonParseResult parsed = parse_json(text);
  ASSERT_TRUE(parsed.ok) << parsed.error << " at byte " << parsed.offset;
  EXPECT_TRUE(check_json(text).ok);
  const JsonValue& doc = parsed.value;
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  ASSERT_EQ(doc.object.size(), 5u);
  const std::vector<std::string> keys = {"s", "n", "z", "e", "o"};
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(doc.object[i].first, keys[i]);

  const JsonValue* s = doc.find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, JsonValue::Kind::kString);
  EXPECT_EQ(s->string, "q\"b\\s/n\nt\tu\xC3\xA9 \xC3\xA9");

  const JsonValue* n = doc.find("n");
  ASSERT_NE(n, nullptr);
  ASSERT_EQ(n->kind, JsonValue::Kind::kArray);
  const std::vector<double> numbers = {-150.0, 0.0, 42.0, 0.325};
  ASSERT_EQ(n->array.size(), numbers.size());
  for (std::size_t i = 0; i < numbers.size(); ++i) {
    EXPECT_EQ(n->array[i].kind, JsonValue::Kind::kNumber);
    EXPECT_DOUBLE_EQ(n->array[i].number, numbers[i]);
  }

  const JsonValue* z = doc.find("z");
  ASSERT_NE(z, nullptr);
  ASSERT_EQ(z->object.size(), 3u);
  EXPECT_EQ(z->object[0].first, "y");
  EXPECT_EQ(z->object[0].second.kind, JsonValue::Kind::kBool);
  EXPECT_TRUE(z->object[0].second.boolean);
  EXPECT_EQ(z->object[1].first, "x");
  EXPECT_EQ(z->object[1].second.kind, JsonValue::Kind::kBool);
  EXPECT_FALSE(z->object[1].second.boolean);
  EXPECT_EQ(z->object[2].first, "w");
  EXPECT_EQ(z->object[2].second.kind, JsonValue::Kind::kNull);

  EXPECT_EQ(doc.find("e")->kind, JsonValue::Kind::kArray);
  EXPECT_TRUE(doc.find("e")->array.empty());
  EXPECT_EQ(doc.find("o")->kind, JsonValue::Kind::kObject);
  EXPECT_TRUE(doc.find("o")->object.empty());
  EXPECT_EQ(doc.find("missing"), nullptr);

  // An escaped surrogate pair is one code point, U+1F600: one 4-byte
  // UTF-8 sequence, not two 3-byte halves.
  const JsonParseResult pair = parse_json("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(pair.ok) << pair.error;
  EXPECT_EQ(pair.value.string, "\xF0\x9F\x98\x80");
}

TEST(JsonWalker, EscaperRoundTripsEveryControlByte) {
  std::string raw;
  for (int c = 0; c < 0x20; ++c) raw += static_cast<char>(c);
  raw += "\"\\ plain \xF0\x9F\x98\x80";  // U+1F600 as 4 UTF-8 bytes
  std::string doc;
  append_json_string(doc, raw);
  for (char c : doc)
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte";
  const JsonParseResult parsed = parse_json(doc);
  ASSERT_TRUE(parsed.ok) << parsed.error << " at byte " << parsed.offset;
  ASSERT_EQ(parsed.value.kind, JsonValue::Kind::kString);
  EXPECT_EQ(parsed.value.string, raw);
}

// ------------------------------------------------------- trace output

TEST(TraceOutput, ValidJsonWithASpanPerNamedStep) {
  Tracer& tracer = Tracer::global();
  ScopedMode guard(tracer, tracer.mode());
  tracer.clear();

  ClusterConfig cfg = sort_config(16, 64, 8);
  cfg.trace = TraceConfig{Mode::kFull, ""};
  const SortRun run = run_sort(cfg);
  ASSERT_FALSE(run.rounds_by_label.empty());
  EXPECT_GT(tracer.span_count(), 0u);

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string body = os.str();

  const JsonCheckResult check = check_json(body);
  EXPECT_TRUE(check.ok) << check.error << " at byte " << check.offset
                        << "\n"
                        << body.substr(0, 400);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"metrics\""), std::string::npos);

  // Every named step the ledger charged appears in at least one span name
  // (the scheduler tags compute and route+deliver spans with the step
  // label).
  for (const auto& [label, rounds] : run.rounds_by_label) {
    EXPECT_NE(body.find(label), std::string::npos)
        << "no span mentions step " << label;
  }
  // The tree sort's named steps specifically (PR 5's labels).
  EXPECT_NE(body.find("sample_sort."), std::string::npos);
  tracer.clear();
}

TEST(TraceOutput, DisabledTracerRecordsNothing) {
  Tracer tracer;  // defaults to kOff
  { Span s = tracer.span("engine", "compute x"); }
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_TRUE(tracer.metrics().empty());
  EXPECT_TRUE(tracer.drain_telemetry().empty());
}

// -------------------------------------------------- worker telemetry

TEST(TraceTelemetry, TcpWorkersShipSpansAndMetricsMatchingLedger) {
  Tracer& tracer = Tracer::global();
  ScopedMode guard(tracer, tracer.mode());
  tracer.clear();

  ClusterConfig cfg = sort_config(8, 64, 8);
  cfg.transport = TransportConfig::tcp(2);
  cfg.trace = TraceConfig{Mode::kFull, ""};

  mpc::RoundLedger ledger(cfg);
  mpc::Cluster cluster(cfg, &ledger);
  const mpc::RecordSortResult sorted =
      sample_sort_records(cluster, sort_input(8, 64), 1, 1, 8);
  ASSERT_FALSE(sorted.slabs.empty());

  // Driver-side counters mirror the ledger charge exactly, label by label.
  const auto& traffic = ledger.traffic_words_by_label();
  ASSERT_FALSE(traffic.empty());
  for (const auto& [label, words] : traffic) {
    const auto counter = tracer.metrics().counter("cluster.round_words." + label);
    ASSERT_TRUE(counter.has_value()) << label;
    EXPECT_EQ(*counter, words) << label;
  }
  for (const auto& [label, rounds] : ledger.rounds_by_label()) {
    const auto counter = tracer.metrics().counter("cluster.rounds." + label);
    ASSERT_TRUE(counter.has_value()) << label;
    EXPECT_EQ(*counter, rounds) << label;
  }

  // Both workers shipped telemetry: the merged trace has driver + two
  // worker process lanes, and worker-side per-step metrics arrived.
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string body = os.str();
  EXPECT_TRUE(check_json(body).ok);
  EXPECT_NE(body.find("\"driver\""), std::string::npos);
  EXPECT_NE(body.find("\"worker 0\""), std::string::npos);
  EXPECT_NE(body.find("\"worker 1\""), std::string::npos);
  bool saw_worker_metric = false;
  for (const auto& [name, value] : tracer.metrics().counters())
    if (name.rfind("net.sent_words.", 0) == 0 && value > 0)
      saw_worker_metric = true;
  EXPECT_TRUE(saw_worker_metric)
      << "no net.sent_words.* counter arrived via telemetry";
  tracer.clear();
}

}  // namespace
}  // namespace arbor::trace

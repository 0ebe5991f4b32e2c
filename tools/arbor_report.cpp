// arbor_report: render and regression-diff observatory documents
// (scripts/check.sh --report).
//
//   arbor_report show FILE
//   arbor_report diff BASELINE CURRENT [--threshold F] [--ignore SUBSTR]...
//
// `show` renders a ReportLog JSON document (obs::ReportLog::write_json_file)
// as per-program tables: every label's measured rounds and peak
// words/machine next to its declared analytic bound and headroom, then the
// metrics snapshot (counters, histogram percentiles with dropped-sample
// counts) and the per-worker telemetry notes.
//
// `diff` flattens BOTH files — any JSON documents, observatory reports and
// bench BENCH_*.json alike — to dotted leaf paths and compares leaf by
// leaf: numeric leaves drift when their relative difference exceeds
// --threshold (default 0.05), strings/bools when unequal, and a path
// present on one side only is always reported. A leaf is skipped when its
// own key (the last path segment) contains a built-in ignore — the timing-
// and host-dependent fields (durations, sums, percentiles, arena state) —
// when it sits in the per-worker telemetry, or when its path contains a
// user --ignore substring. Keying the built-ins on the leaf keeps a
// histogram's structural `count`/`dropped` leaves gated even though its
// name (round_us...) contains `_us`; what remains is the structural
// contract a regression gate can hold steady.
// Exit 0 when clean, 1 on any reported drift, 2 on usage/IO errors.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "trace/json_check.hpp"

namespace {

using arbor::trace::JsonValue;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s show FILE\n"
               "       %s diff BASELINE CURRENT [--threshold F] "
               "[--ignore SUBSTR]...\n",
               argv0, argv0);
  std::exit(2);
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

JsonValue parse_or_die(const std::string& path) {
  std::string body;
  if (!read_file(path, body)) {
    std::fprintf(stderr, "arbor_report: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  arbor::trace::JsonParseResult parsed = arbor::trace::parse_json(body);
  if (!parsed.ok) {
    std::fprintf(stderr, "arbor_report: %s is not valid JSON: %s at byte %zu\n",
                 path.c_str(), parsed.error.c_str(), parsed.offset);
    std::exit(2);
  }
  return std::move(parsed.value);
}

// ------------------------------------------------------------------- show

double num_of(const JsonValue& v, const char* key) {
  const JsonValue* member = v.find(key);
  return member != nullptr ? member->number : 0.0;
}

std::string str_of(const JsonValue& v, const char* key) {
  const JsonValue* member = v.find(key);
  return member != nullptr ? member->string : std::string();
}

void show_report(const JsonValue& report) {
  std::printf("program %-28s backend %-12s machines %-6.0f S %-8.0f "
              "arena %.0f words\n",
              str_of(report, "program").c_str(),
              str_of(report, "backend").c_str(), num_of(report, "machines"),
              num_of(report, "capacity"), num_of(report, "arena_words"));
  const JsonValue* labels = report.find("labels");
  if (labels == nullptr || labels->array.empty()) return;
  std::printf("  %-32s %8s %12s %14s %12s %9s  %s\n", "label", "rounds",
              "peak_words", "total_words", "bound", "headroom", "declared");
  for (const JsonValue& label : labels->array) {
    const JsonValue* bounded = label.find("bounded");
    const bool has_bound = bounded != nullptr && bounded->boolean;
    char bound_buf[32] = "-";
    char headroom_buf[32] = "-";
    if (has_bound) {
      std::snprintf(bound_buf, sizeof(bound_buf), "%.0f",
                    num_of(label, "bound_words"));
      std::snprintf(headroom_buf, sizeof(headroom_buf), "%.3f",
                    num_of(label, "bound_headroom"));
    }
    std::printf("  %-32s %8.0f %12.0f %14.0f %12s %9s  %s\n",
                str_of(label, "label").c_str(), num_of(label, "rounds"),
                num_of(label, "peak_words"), num_of(label, "total_words"),
                bound_buf, headroom_buf,
                has_bound ? str_of(label, "formula").c_str() : "(unbounded)");
  }
}

int show(const std::string& path) {
  const JsonValue doc = parse_or_die(path);
  const JsonValue* reports = doc.find("reports");
  if (reports == nullptr) {
    std::fprintf(stderr,
                 "arbor_report: %s has no \"reports\" array (not an "
                 "observatory document?)\n",
                 path.c_str());
    return 2;
  }
  for (const JsonValue& report : reports->array) {
    show_report(report);
    std::printf("\n");
  }
  if (const JsonValue* metrics = doc.find("metrics")) {
    if (const JsonValue* counters = metrics->find("counters");
        counters != nullptr && !counters->object.empty()) {
      std::printf("counters\n");
      for (const auto& [name, value] : counters->object)
        std::printf("  %-48s %14.0f\n", name.c_str(), value.number);
    }
    if (const JsonValue* histograms = metrics->find("histograms");
        histograms != nullptr && !histograms->object.empty()) {
      std::printf("histograms\n");
      std::printf("  %-40s %10s %10s %12s %12s %12s\n", "name", "count",
                  "dropped", "p50", "p95", "p99");
      for (const auto& [name, h] : histograms->object)
        std::printf("  %-40s %10.0f %10.0f %12.3f %12.3f %12.3f\n",
                    name.c_str(), num_of(h, "count"), num_of(h, "dropped"),
                    num_of(h, "p50"), num_of(h, "p95"), num_of(h, "p99"));
    }
  }
  if (const JsonValue* workers = doc.find("workers");
      workers != nullptr && !workers->array.empty()) {
    std::printf("workers\n");
    for (const JsonValue& w : workers->array)
      std::printf("  pid %-4.0f %8.0f spans %6.0f counters  last \"%s\"\n",
                  num_of(w, "pid"), num_of(w, "spans"), num_of(w, "counters"),
                  str_of(w, "last_span").c_str());
  }
  return 0;
}

// ------------------------------------------------------------------- diff

struct Leaf {
  std::string path;
  const JsonValue* value = nullptr;
};

void flatten(const JsonValue& v, const std::string& path,
             std::vector<Leaf>& out) {
  switch (v.kind) {
    case JsonValue::Kind::kObject:
      for (const auto& [key, member] : v.object)
        flatten(member, path.empty() ? key : path + "." + key, out);
      break;
    case JsonValue::Kind::kArray:
      for (std::size_t i = 0; i < v.array.size(); ++i)
        flatten(v.array[i], path + "[" + std::to_string(i) + "]", out);
      break;
    default:
      out.push_back({path, &v});
  }
}

const Leaf* find_leaf(const std::vector<Leaf>& leaves,
                      const std::string& path) {
  for (const Leaf& leaf : leaves)
    if (leaf.path == path) return &leaf;
  return nullptr;
}

// Timing- and host-dependent leaf keys: durations and their aggregates,
// percentile estimates over durations, retained-arena capacities, and
// throughput/speedup ratios. Everything else — program shapes, round
// counts, traffic peaks, declared bounds, histogram sample counts, knob
// stamps — must hold steady.
constexpr const char* kIgnoredKeys[] = {
    "_us", "_ns", "_ms", "secs", "sum", "p50", "p95", "p99",
    "hardware_threads", "arena_words", "mrec_per_sec", "speedup"};

bool ignored(const std::string& path,
             const std::vector<std::string>& user_ignores) {
  // Worker telemetry (spans shipped, last span) is host state.
  if (path.rfind("workers[", 0) == 0) return true;
  const std::size_t dot = path.rfind('.');
  const std::string_view key =
      std::string_view(path).substr(dot == std::string::npos ? 0 : dot + 1);
  for (const char* needle : kIgnoredKeys)
    if (key.find(needle) != std::string_view::npos) return true;
  for (const std::string& needle : user_ignores)
    if (path.find(needle) != std::string::npos) return true;
  return false;
}

std::string leaf_repr(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return v.boolean ? "true" : "false";
    case JsonValue::Kind::kString: return "\"" + v.string + "\"";
    default: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", v.number);
      return buf;
    }
  }
}

int diff(const std::string& base_path, const std::string& cur_path,
         double threshold, const std::vector<std::string>& ignores) {
  const JsonValue base_doc = parse_or_die(base_path);
  const JsonValue cur_doc = parse_or_die(cur_path);
  std::vector<Leaf> base;
  std::vector<Leaf> cur;
  flatten(base_doc, "", base);
  flatten(cur_doc, "", cur);

  std::size_t drifts = 0;
  const auto report = [&drifts](const std::string& path,
                                const std::string& detail) {
    std::fprintf(stderr, "arbor_report: drift at %s: %s\n", path.c_str(),
                 detail.c_str());
    ++drifts;
  };

  for (const Leaf& b : base) {
    if (ignored(b.path, ignores)) continue;
    const Leaf* c = find_leaf(cur, b.path);
    if (c == nullptr) {
      report(b.path, "present in " + base_path + " only");
      continue;
    }
    const JsonValue& bv = *b.value;
    const JsonValue& cv = *c->value;
    if (bv.kind != cv.kind) {
      report(b.path, leaf_repr(bv) + " -> " + leaf_repr(cv) + " (type)");
      continue;
    }
    if (bv.kind == JsonValue::Kind::kNumber) {
      const double lo = std::fabs(bv.number);
      const double hi = std::fabs(cv.number);
      const double denom = std::max(lo, hi);
      const double rel =
          denom == 0.0 ? 0.0 : std::fabs(bv.number - cv.number) / denom;
      if (rel > threshold) {
        char detail[128];
        std::snprintf(detail, sizeof(detail), "%.6g -> %.6g (%+.1f%%)",
                      bv.number, cv.number,
                      100.0 * (cv.number - bv.number) /
                          (bv.number == 0.0 ? 1.0 : bv.number));
        report(b.path, detail);
      }
    } else if (bv.kind == JsonValue::Kind::kString
                   ? bv.string != cv.string
                   : bv.kind == JsonValue::Kind::kBool &&
                         bv.boolean != cv.boolean) {
      report(b.path, leaf_repr(bv) + " -> " + leaf_repr(cv));
    }
  }
  for (const Leaf& c : cur) {
    if (ignored(c.path, ignores)) continue;
    if (find_leaf(base, c.path) == nullptr)
      report(c.path, "present in " + cur_path + " only");
  }

  if (drifts != 0) {
    std::fprintf(stderr,
                 "arbor_report: %zu drift%s between %s and %s "
                 "(threshold %.0f%%)\n",
                 drifts, drifts == 1 ? "" : "s", base_path.c_str(),
                 cur_path.c_str(), threshold * 100.0);
    return 1;
  }
  std::printf("arbor_report: %s matches %s (threshold %.0f%%)\n",
              cur_path.c_str(), base_path.c_str(), threshold * 100.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage(argv[0]);
  const std::string mode = argv[1];
  if (mode == "show") {
    if (argc != 3) usage(argv[0]);
    return show(argv[2]);
  }
  if (mode == "diff") {
    if (argc < 4) usage(argv[0]);
    const std::string base_path = argv[2];
    const std::string cur_path = argv[3];
    double threshold = 0.05;
    std::vector<std::string> ignores;
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
        threshold = std::strtod(argv[++i], nullptr);
      } else if (std::strcmp(argv[i], "--ignore") == 0 && i + 1 < argc) {
        ignores.emplace_back(argv[++i]);
      } else {
        usage(argv[0]);
      }
    }
    return diff(base_path, cur_path, threshold, ignores);
  }
  usage(argv[0]);
}

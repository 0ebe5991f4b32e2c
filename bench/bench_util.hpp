// Shared helpers for the experiment benches (E1..E10): fixed-width table
// printing, machine-readable JSON reports (--json out.json), and
// cluster-context construction, so every bench binary prints rows in the
// same format EXPERIMENTS.md quotes and emits results the perf trajectory
// can diff.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "graph/graph.hpp"
#include "mpc/config.hpp"
#include "mpc/ledger.hpp"
#include "mpc/primitives.hpp"
#include "trace/json_check.hpp"
#include "trace/trace.hpp"

namespace arbor::bench {

// ------------------------------------------------------------ percentiles

/// Nearest-rank p50/p95/p99 of a sample set (bench timings, trace
/// histograms): ONE implementation, shared with the trace report
/// (trace::percentile), so bench tables and BENCH_*.json quote the same
/// numbers the telemetry does.
struct Percentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

inline Percentiles percentiles(std::vector<double> values) {
  Percentiles out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  out.p50 = trace::percentile(values, 50.0);
  out.p95 = trace::percentile(values, 95.0);
  out.p99 = trace::percentile(values, 99.0);
  return out;
}

/// Percentiles of a trace histogram by name from the global registry
/// (empty Percentiles when it was never observed).
inline Percentiles metric_percentiles(const std::string& name) {
  const auto hist = trace::Tracer::global().metrics().histogram(name);
  return hist ? percentiles(hist->samples) : Percentiles{};
}

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
      width[c] = headers_[c].size();
    for (const auto& row : rows_)
      for (std::size_t c = 0; c < row.size() && c < width.size(); ++c)
        width[c] = std::max(width[c], row[c].size());
    print_row(headers_, width);
    std::string rule;
    for (std::size_t c = 0; c < width.size(); ++c)
      rule += std::string(width[c] + 2, '-') + (c + 1 < width.size() ? "+" : "");
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) print_row(row, width);
  }

 private:
  static void print_row(const std::vector<std::string>& cells,
                        const std::vector<std::size_t>& width) {
    std::string line;
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      line += " " + cell + std::string(width[c] - cell.size() + 1, ' ');
      if (c + 1 < width.size()) line += "|";
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(std::size_t v) { return std::to_string(v); }
inline std::string fmt(std::uint32_t v) { return std::to_string(v); }
inline std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

// ------------------------------------------------- machine-readable output

/// Flat JSON report: top-level metadata plus an array of row objects, all
/// insertion-ordered. Values are stored pre-rendered, so the emitter stays
/// a dumb string concatenator.
///
///   JsonReport report("engine_scaling");
///   report.meta("machines", machines);
///   auto& row = report.row();
///   row.set("executor", "parallel(8)").set("ms", secs * 1e3);
///   report.write_file("BENCH_engine_scaling.json");
class JsonReport {
 public:
  class Object {
   public:
    Object& set(const std::string& key, const std::string& value) {
      fields_.emplace_back(key, quote(value));
      return *this;
    }
    Object& set(const std::string& key, const char* value) {
      return set(key, std::string(value));
    }
    Object& set(const std::string& key, double value) {
      fields_.emplace_back(key, fmt(value, 6));
      return *this;
    }
    Object& set(const std::string& key, std::size_t value) {
      fields_.emplace_back(key, std::to_string(value));
      return *this;
    }
    Object& set(const std::string& key, int value) {
      fields_.emplace_back(key, std::to_string(value));
      return *this;
    }
    Object& set(const std::string& key, bool value) {
      fields_.emplace_back(key, value ? "true" : "false");
      return *this;
    }

    std::string render() const {
      std::string out = "{";
      for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i > 0) out += ", ";
        out += quote(fields_[i].first) + ": " + fields_[i].second;
      }
      return out + "}";
    }

   private:
    static std::string quote(const std::string& s) {
      std::string out;
      trace::append_json_string(out, s);
      return out;
    }

    std::vector<std::pair<std::string, std::string>> fields_;
  };

  /// Every report records the hardware thread count up front: the same
  /// bench row means something different on a 1-core CI box than on a
  /// 32-core workstation, and the perf trajectory diffs across machines
  /// and backends.
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {
    meta_.set("hardware_threads",
              static_cast<std::size_t>(std::thread::hardware_concurrency()));
  }

  template <typename T>
  JsonReport& meta(const std::string& key, T value) {
    meta_.set(key, value);
    return *this;
  }

  /// Append a row; the reference stays valid until the next row() call
  /// returns (rows are stored by value in a vector).
  Object& row() {
    rows_.emplace_back();
    return rows_.back();
  }

  std::string render() const {
    std::string out = "{\n  \"bench\": \"" + bench_ + "\",\n  \"meta\": " +
                      meta_.render() + ",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i)
      out += "    " + rows_[i].render() + (i + 1 < rows_.size() ? ",\n" : "\n");
    return out + "  ]\n}\n";
  }

  /// Write the report; prints where it went (or why it could not). Every
  /// report is stamped with the effective ARBOR_* knobs and the
  /// trace/metrics summary first, so BENCH_*.json trajectories always say
  /// which environment they ran under and carry round-latency percentiles
  /// when available.
  bool write_file(const std::string& path) {
    stamp_env_knobs();
    stamp_trace_summary();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    const std::string body = render();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("json report: %s\n", path.c_str());
    return true;
  }

 private:
  /// Effective ARBOR_* knob block: which transport and Level-1 sort path
  /// the run executed under (the trace mode rides in stamp_trace_summary).
  /// Stamped into EVERY report uniformly so a trajectory diff never has to
  /// guess the environment.
  void stamp_env_knobs();

  /// Trace/metrics summary block: the global tracer's mode plus the
  /// "round_us" histogram's count, dropped-sample tally, and p50/p95/p99
  /// when metrics were on (ARBOR_TRACE=full or force_metrics) at any point
  /// in the run.
  void stamp_trace_summary() {
    trace::Tracer& tracer = trace::Tracer::global();
    meta_.set("trace_mode", trace::mode_name(tracer.mode()));
    const auto hist = tracer.metrics().histogram("round_us");
    if (!hist) return;
    const Percentiles p = percentiles(hist->samples);
    meta_.set("round_us_count", static_cast<std::size_t>(hist->count));
    meta_.set("round_us_dropped", static_cast<std::size_t>(hist->dropped()));
    meta_.set("round_us_p50", p.p50);
    meta_.set("round_us_p95", p.p95);
    meta_.set("round_us_p99", p.p99);
  }

  std::string bench_;
  Object meta_;
  std::vector<Object> rows_;
};

/// Shared classification of the sample sort's per-label ledger traffic
/// peaks (RoundLedger::peak_traffic_by_label) into splitter rounds vs.
/// data-movement rounds, so every bench's splitter rows report
/// "splitter_peak_words" under ONE rule: route and bucket-sort rounds move
/// data, everything else (up/pick/down) is splitter agreement.
struct SplitterPeaks {
  std::size_t splitter = 0;
  std::size_t route = 0;
};
inline SplitterPeaks classify_sort_peaks(
    const std::map<std::string, std::size_t>& peaks_by_label) {
  SplitterPeaks out;
  for (const auto& [label, peak] : peaks_by_label) {
    if (label.find(".route") != std::string::npos ||
        label.find(".sort") != std::string::npos)
      out.route = std::max(out.route, peak);
    else
      out.splitter = std::max(out.splitter, peak);
  }
  return out;
}

/// Canonical `backend` tag for JSON rows: which executor a cluster config
/// actually runs its programs on — "serial"/"parallel" in-process, or
/// "multiprocess" behind the src/net/ transport — so BENCH_*.json
/// trajectories stay comparable across backends.
inline const char* backend_name(const mpc::ClusterConfig& cfg) {
  if (!cfg.transport.in_process()) return "multiprocess";
  return cfg.execution.is_parallel() ? "parallel" : "serial";
}

/// Canonical transport tag for knob stamps and bench labels:
/// "inprocess", "loopback:N", "tcp:N".
inline std::string transport_name(const mpc::TransportConfig& t) {
  switch (t.kind) {
    case mpc::TransportConfig::Kind::kLoopback:
      return "loopback:" + std::to_string(t.workers);
    case mpc::TransportConfig::Kind::kTcp:
      return "tcp:" + std::to_string(t.workers);
    case mpc::TransportConfig::Kind::kInProcess:
      break;
  }
  return "inprocess";
}

inline void JsonReport::stamp_env_knobs() {
  meta_.set("transport_knob", transport_name(mpc::transport_env_default()));
  meta_.set("distributed_level1_knob", mpc::distributed_level1_env_default());
}

/// Extract `FLAG PATH` (or `FLAG=PATH`) from argv, compacting argv so the
/// benches' positional parsing is unaffected. Returns `fallback` when the
/// flag is absent; an empty fallback means "no output".
inline std::string take_path_flag(int& argc, char** argv, const char* flag,
                                  std::string fallback = {}) {
  const std::size_t flag_len = std::strlen(flag);
  std::string path = std::move(fallback);
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      if (i + 1 < argc)
        path = argv[++i];
      else  // consume the bare flag instead of leaking it as a positional
        std::fprintf(stderr, "warning: %s needs a path, ignoring\n", flag);
    } else if (std::strncmp(argv[i], flag, flag_len) == 0 &&
               argv[i][flag_len] == '=') {
      path = argv[i] + flag_len + 1;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return path;
}

/// `--json PATH`: where to write the BENCH_*.json report.
inline std::string take_json_flag(int& argc, char** argv,
                                  std::string fallback = {}) {
  return take_path_flag(argc, argv, "--json", std::move(fallback));
}

/// `--report PATH`: where to write the observatory RunReport log
/// (obs::ReportLog::write_json_file) after the bench's programs ran.
inline std::string take_report_flag(int& argc, char** argv,
                                    std::string fallback = {}) {
  return take_path_flag(argc, argv, "--report", std::move(fallback));
}

/// Owning (config, ledger, engine, context) bundle for one algorithm run.
/// The engine is shared by every Level-0 cluster the run spawns
/// (`mpc::Cluster(cfg, ledger, run.ctx->engine())`), so a bench selects
/// serial vs parallel execution in exactly one place.
struct Run {
  mpc::ClusterConfig config;
  std::unique_ptr<mpc::RoundLedger> ledger;
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<mpc::MpcContext> ctx;

  static Run for_graph(const graph::Graph& g, double delta = 0.6,
                       mpc::ExecutionPolicy policy = {}) {
    mpc::ClusterConfig cfg = mpc::ClusterConfig::for_problem(
        g.num_vertices(), g.num_edges(), delta);
    cfg.execution = policy;
    return with_config(cfg);
  }

  static Run with_config(const mpc::ClusterConfig& cfg) {
    Run r;
    r.config = cfg;
    r.ledger = std::make_unique<mpc::RoundLedger>(cfg);
    r.engine = std::make_unique<engine::Engine>(cfg.execution);
    r.ctx = std::make_unique<mpc::MpcContext>(cfg, r.ledger.get(),
                                              r.engine.get());
    return r;
  }
};

inline void banner(const char* experiment, const char* claim) {
  std::printf("\n=== %s ===\n%s\n\n", experiment, claim);
}

}  // namespace arbor::bench

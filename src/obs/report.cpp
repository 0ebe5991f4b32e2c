#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "check/verify.hpp"
#include "trace/json_check.hpp"
#include "trace/trace.hpp"

namespace arbor::obs {
namespace {

using trace::append_json_string;

/// Headroom reported when a compute-only bound (0 declared words) moved
/// words anyway: effectively infinite, clamped so the JSON stays finite.
constexpr double kHeadroomClamp = 1e9;

void append_double(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  out += buf;
}

void append_label_json(std::string& out, const LabelReport& label) {
  out += "{\"label\":";
  append_json_string(out, label.label);
  out += ",\"rounds\":" + std::to_string(label.rounds);
  out += ",\"peak_words\":" + std::to_string(label.peak_words);
  out += ",\"total_words\":" + std::to_string(label.total_words);
  out += ",\"bounded\":";
  out += label.bounded ? "true" : "false";
  if (label.bounded) {
    out += ",\"bound_words\":" + std::to_string(label.bound_words);
    out += ",\"bound_rounds\":" + std::to_string(label.bound_rounds);
    out += ",\"bound_headroom\":";
    append_double(out, label.headroom);
    out += ",\"formula\":";
    append_json_string(out, label.formula);
  }
  out += '}';
}

void append_labels_json(std::string& out,
                        const std::vector<LabelReport>& labels) {
  out += "[";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ',';
    append_label_json(out, labels[i]);
  }
  out += "]";
}

double headroom_of(std::size_t peak, std::size_t bound_words) {
  if (bound_words != 0)
    return static_cast<double>(peak) / static_cast<double>(bound_words);
  return peak == 0 ? 0.0 : kHeadroomClamp;
}

std::string violation_message(const RunReport& report,
                              const LabelReport& label) {
  std::string msg = "bound audit: program \"" + report.program + "\" step \"" +
                    label.label + "\": ";
  if (label.peak_words > label.bound_words) {
    msg += "measured peak " + std::to_string(label.peak_words) +
           " words/machine exceeds declared bound " +
           std::to_string(label.bound_words);
  } else {
    msg += "measured " + std::to_string(label.rounds) +
           " rounds exceed declared bound " +
           std::to_string(label.bound_rounds);
  }
  msg += " (declared: " + label.formula + ")";
  return msg;
}

}  // namespace

std::string RunReport::structural_json() const {
  std::string out = "{\"program\":";
  append_json_string(out, program);
  out += ",\"machines\":" + std::to_string(machines);
  out += ",\"capacity\":" + std::to_string(capacity);
  out += ",\"labels\":";
  append_labels_json(out, labels);
  out += '}';
  return out;
}

void RunReport::append_json(std::string& out) const {
  out += "{\"program\":";
  append_json_string(out, program);
  out += ",\"backend\":";
  append_json_string(out, backend);
  out += ",\"machines\":" + std::to_string(machines);
  out += ",\"capacity\":" + std::to_string(capacity);
  out += ",\"arena_words\":" + std::to_string(arena_words);
  out += ",\"labels\":";
  append_labels_json(out, labels);
  out += '}';
}

std::string program_name(const engine::RoundProgram& program) {
  if (program.cost) return program.cost->name();
  if (program.remote) return program.remote->name;
  if (!program.steps.empty()) return program.steps.front().name;
  return "empty";
}

RunReport make_run_report(std::string program, std::string backend,
                          std::size_t machines, std::size_t capacity,
                          std::size_t arena_words,
                          std::vector<LabelUsage> usage,
                          const CostModel* cost) {
  RunReport report;
  report.program = std::move(program);
  report.backend = std::move(backend);
  report.machines = machines;
  report.capacity = capacity;
  report.arena_words = arena_words;
  report.labels.reserve(usage.size());
  for (LabelUsage& u : usage) {
    LabelReport label;
    label.label = std::move(u.label);
    label.rounds = u.rounds;
    label.peak_words = u.peak_words;
    label.total_words = u.total_words;
    if (const StepBound* bound = cost ? cost->find(label.label) : nullptr) {
      label.bounded = true;
      label.bound_words = resolve_words(*bound, capacity);
      label.bound_rounds = bound->rounds;
      label.formula = bound->formula;
      label.headroom = headroom_of(label.peak_words, label.bound_words);
    }
    report.labels.push_back(std::move(label));
  }
  return report;
}

std::size_t enforce_bounds(const RunReport& report, bool checked) {
  std::size_t violations = 0;
  const LabelReport* first = nullptr;
  for (const LabelReport& label : report.labels) {
    if (!label.violates_bound()) continue;
    ++violations;
    if (first == nullptr) first = &label;
  }
  if (violations == 0) return 0;
  if (checked) throw check::VerifyError(violation_message(report, *first));
  trace::Tracer::global().metrics().add("obs.bound_violations", violations);
  return violations;
}

std::vector<std::string> audit_ledger_bounds(
    const std::map<std::string, std::size_t>& rounds_by_label,
    const std::map<std::string, std::size_t>& peak_by_label,
    const CostModel& model, std::size_t capacity) {
  std::vector<std::string> violations;
  for (const StepBound& bound : model.bounds()) {
    const std::size_t bound_words = resolve_words(bound, capacity);
    const auto rounds_it = rounds_by_label.find(bound.label);
    if (rounds_it != rounds_by_label.end() && bound.rounds != 0 &&
        rounds_it->second > bound.rounds)
      violations.push_back("label \"" + bound.label + "\": " +
                           std::to_string(rounds_it->second) +
                           " rounds exceed declared " +
                           std::to_string(bound.rounds) + " (" +
                           bound.formula + ")");
    const auto peak_it = peak_by_label.find(bound.label);
    if (peak_it != peak_by_label.end() && peak_it->second > bound_words)
      violations.push_back("label \"" + bound.label + "\": peak " +
                           std::to_string(peak_it->second) +
                           " words/machine exceeds declared " +
                           std::to_string(bound_words) + " (" + bound.formula +
                           ")");
  }
  return violations;
}

ReportLog& ReportLog::global() {
  static ReportLog log;
  return log;
}

void ReportLog::record(RunReport report) {
  std::lock_guard lock(mu_);
  for (RunReport& existing : reports_) {
    if (existing.program == report.program) {
      existing = std::move(report);
      return;
    }
  }
  reports_.push_back(std::move(report));
}

std::optional<RunReport> ReportLog::last(std::string_view program) const {
  std::lock_guard lock(mu_);
  for (const RunReport& report : reports_)
    if (report.program == program) return report;
  return std::nullopt;
}

std::vector<RunReport> ReportLog::snapshot() const {
  std::lock_guard lock(mu_);
  return reports_;
}

void ReportLog::clear() {
  std::lock_guard lock(mu_);
  reports_.clear();
}

void ReportLog::write_json_file(const std::string& path) const {
  std::string out = "{\n\"arbor_report\":1,\n\"reports\":[";
  {
    std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < reports_.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      reports_[i].append_json(out);
    }
  }
  out += "\n],\n\"metrics\":{\"counters\":{";
  trace::Tracer& tracer = trace::Tracer::global();
  bool first = true;
  for (const auto& [name, value] : tracer.metrics().counters()) {
    out += first ? "\n" : ",\n";
    first = false;
    append_json_string(out, name);
    out += ':' + std::to_string(value);
  }
  out += "},\n\"histograms\":{";
  first = true;
  for (const trace::HistogramSnapshot& snap : tracer.metrics().histograms()) {
    out += first ? "\n" : ",\n";
    first = false;
    std::vector<double> sorted = snap.samples;
    std::sort(sorted.begin(), sorted.end());
    append_json_string(out, snap.name);
    out += ":{\"count\":" + std::to_string(snap.count);
    out += ",\"sum\":";
    append_double(out, snap.sum);
    out += ",\"dropped\":" + std::to_string(snap.dropped());
    out += ",\"p50\":";
    append_double(out, trace::percentile(sorted, 50.0));
    out += ",\"p95\":";
    append_double(out, trace::percentile(sorted, 95.0));
    out += ",\"p99\":";
    append_double(out, trace::percentile(sorted, 99.0));
    out += '}';
  }
  out += "}},\n\"workers\":[";
  first = true;
  for (const trace::WorkerNote& note : tracer.worker_notes()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"pid\":" + std::to_string(note.pid);
    out += ",\"spans\":" + std::to_string(note.spans);
    out += ",\"counters\":" + std::to_string(note.counters);
    out += ",\"last_span\":";
    append_json_string(out, note.last_span);
    out += ",\"last_end_ns\":" + std::to_string(note.last_end_ns) + '}';
  }
  out += "\n]}\n";
  std::ofstream os(path);
  os << out;
}

}  // namespace arbor::obs

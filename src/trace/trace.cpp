#include "trace/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "trace/json_check.hpp"
#include "util/assert.hpp"
#include "util/env_knob.hpp"

namespace arbor::trace {

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kOff: return "off";
    case Mode::kSpans: return "spans";
    case Mode::kFull: return "full";
  }
  return "invalid";
}

TraceConfig parse_trace_flag(std::string_view value, std::string_view what) {
  const auto [head, arg] = util::split_knob(value);
  TraceConfig cfg;
  if (head == "off") {
    cfg.mode = Mode::kOff;
    if (arg) util::reject_knob(what, value, "the off mode takes no trace path");
    return cfg;
  } else if (head == "spans") {
    cfg.mode = Mode::kSpans;
  } else if (head == "full") {
    cfg.mode = Mode::kFull;
  } else {
    util::reject_knob(what, value,
                      "not a trace mode (use off, spans[:path], or "
                      "full[:path])");
  }
  if (arg) {
    // "full:" is a truncated "full:path" — strict means strict.
    if (arg->empty()) util::reject_knob(what, value, "trace path is empty");
    cfg.path = std::string(*arg);
  }
  return cfg;
}

TraceConfig trace_env_default() {
  static const TraceConfig value = [] {
    const auto env = util::env_knob("ARBOR_TRACE");
    if (!env) return TraceConfig{};
    return parse_trace_flag(*env, "ARBOR_TRACE");
  }();
  return value;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (p <= 0.0) return sorted.front();
  if (p >= 100.0) return sorted.back();
  // Nearest rank: ceil(p/100 * N), 1-based.
  const double rank = p / 100.0 * static_cast<double>(sorted.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (static_cast<double>(index) < rank) ++index;  // ceil
  if (index == 0) index = 1;
  if (index > sorted.size()) index = sorted.size();
  return sorted[index - 1];
}

// ------------------------------------------------------------- metrics

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  std::lock_guard lock(mu_);
  counters_[std::string(name)] += delta;
}

void MetricsRegistry::observe(std::string_view name, double value) {
  std::lock_guard lock(mu_);
  Histogram& hist = histograms_[std::string(name)];
  ++hist.count;
  hist.sum += value;
  if (hist.samples.size() < kMaxHistogramSamples) hist.samples.push_back(value);
}

std::map<std::string, std::uint64_t> MetricsRegistry::counters() const {
  std::lock_guard lock(mu_);
  return counters_;
}

std::vector<HistogramSnapshot> MetricsRegistry::histograms() const {
  std::lock_guard lock(mu_);
  std::vector<HistogramSnapshot> out;
  out.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_)
    out.push_back({name, hist.count, hist.sum, hist.samples});
  return out;
}

std::optional<std::uint64_t> MetricsRegistry::counter(
    std::string_view name) const {
  std::lock_guard lock(mu_);
  const auto it = counters_.find(std::string(name));
  if (it == counters_.end()) return std::nullopt;
  return it->second;
}

std::optional<HistogramSnapshot> MetricsRegistry::histogram(
    std::string_view name) const {
  std::lock_guard lock(mu_);
  const auto it = histograms_.find(std::string(name));
  if (it == histograms_.end()) return std::nullopt;
  return HistogramSnapshot{it->first, it->second.count, it->second.sum,
                           it->second.samples};
}

void MetricsRegistry::merge(
    const std::vector<std::pair<std::string, std::uint64_t>>& counters,
    const std::vector<HistogramSnapshot>& histograms) {
  std::lock_guard lock(mu_);
  for (const auto& [name, value] : counters) counters_[name] += value;
  for (const HistogramSnapshot& snap : histograms) {
    Histogram& hist = histograms_[snap.name];
    hist.count += snap.count;
    hist.sum += snap.sum;
    for (double v : snap.samples) {
      if (hist.samples.size() >= kMaxHistogramSamples) break;
      hist.samples.push_back(v);
    }
  }
}

std::string MetricsRegistry::report() const {
  std::lock_guard lock(mu_);
  std::ostringstream os;
  for (const auto& [name, value] : counters_)
    os << name << " = " << value << "\n";
  for (const auto& [name, hist] : histograms_) {
    std::vector<double> sorted = hist.samples;
    std::sort(sorted.begin(), sorted.end());
    const std::uint64_t dropped =
        hist.count > hist.samples.size() ? hist.count - hist.samples.size() : 0;
    char line[200];
    std::snprintf(line, sizeof(line),
                  " count=%" PRIu64 " sum=%.3f p50=%.3f p95=%.3f p99=%.3f"
                  " dropped=%" PRIu64,
                  hist.count, hist.sum, percentile(sorted, 50.0),
                  percentile(sorted, 95.0), percentile(sorted, 99.0), dropped);
    os << name << line << "\n";
  }
  return os.str();
}

void MetricsRegistry::clear() {
  std::lock_guard lock(mu_);
  counters_.clear();
  histograms_.clear();
}

bool MetricsRegistry::empty() const {
  std::lock_guard lock(mu_);
  return counters_.empty() && histograms_.empty();
}

// --------------------------------------------------------------- spans

void Span::end() {
  if (tracer_ == nullptr) return;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  tracer->record(category_, std::move(name_), start_ns_,
                 now_ns() - start_ns_);
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    tracer_ = other.tracer_;
    category_ = other.category_;
    name_ = std::move(other.name_);
    start_ns_ = other.start_ns_;
    other.tracer_ = nullptr;
  }
  return *this;
}

namespace {

std::uint64_t next_tracer_serial() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t thread_tid() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

/// One-entry thread-local buffer cache. Keyed by the tracer's serial —
/// serials are never reused, so a stale entry for a destroyed tracer can
/// never be matched (and therefore never dereferenced).
struct BufferCache {
  std::uint64_t serial = 0;
  void* buffer = nullptr;
};
thread_local BufferCache t_buffer_cache;

}  // namespace

Tracer::Tracer() : serial_(next_tracer_serial()) {}

Tracer::Tracer(TraceConfig config, bool flush_at_exit)
    : serial_(next_tracer_serial()), flush_at_exit_(flush_at_exit) {
  mode_.store(config.mode, std::memory_order_relaxed);
  path_ = std::move(config.path);
}

Tracer::~Tracer() {
  if (flush_at_exit_) flush();
}

Tracer& Tracer::global() {
  // Function-local static: configured from ARBOR_TRACE on first touch,
  // destroyed (and flushed) at process exit.
  static Tracer tracer(trace_env_default(), /*flush_at_exit=*/true);
  return tracer;
}

void Tracer::raise_mode(Mode mode) noexcept {
  Mode cur = mode_.load(std::memory_order_relaxed);
  while (static_cast<std::uint8_t>(mode) > static_cast<std::uint8_t>(cur) &&
         !mode_.compare_exchange_weak(cur, mode, std::memory_order_relaxed)) {
  }
}

void Tracer::set_path(std::string path) {
  std::lock_guard lock(registry_mu_);
  path_ = std::move(path);
}

std::string Tracer::path() const {
  std::lock_guard lock(registry_mu_);
  return path_;
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  if (t_buffer_cache.serial == serial_ && t_buffer_cache.buffer != nullptr)
    return *static_cast<ThreadBuffer*>(t_buffer_cache.buffer);
  const std::uint64_t tid = thread_tid();
  std::lock_guard lock(registry_mu_);
  for (const auto& buffer : buffers_) {
    if (buffer->tid == tid) {
      t_buffer_cache = {serial_, buffer.get()};
      return *buffer;
    }
  }
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  buffers_.back()->tid = tid;
  t_buffer_cache = {serial_, buffers_.back().get()};
  return *buffers_.back();
}

void Tracer::record(const char* category, std::string&& name,
                    std::int64_t start_ns, std::int64_t dur_ns) {
  ThreadBuffer& buffer = local_buffer();
  std::lock_guard lock(buffer.mu);  // uncontended except during drains
  buffer.spans.push_back(
      {std::move(name), category, buffer.tid, start_ns, dur_ns});
}

TelemetryBlob Tracer::drain_telemetry() {
  TelemetryBlob blob;
  {
    std::lock_guard lock(registry_mu_);
    for (const auto& buffer : buffers_) {
      std::lock_guard buf_lock(buffer->mu);
      blob.spans.insert(blob.spans.end(),
                        std::make_move_iterator(buffer->spans.begin()),
                        std::make_move_iterator(buffer->spans.end()));
      buffer->spans.clear();
    }
  }
  const std::map<std::string, std::uint64_t> counters = metrics_.counters();
  blob.counters.assign(counters.begin(), counters.end());
  blob.histograms = metrics_.histograms();
  metrics_.clear();
  return blob;
}

void Tracer::absorb(const TelemetryBlob& blob, std::uint64_t pid) {
  {
    std::lock_guard lock(registry_mu_);
    foreign_.reserve(foreign_.size() + blob.spans.size());
    for (const TelemetrySpan& span : blob.spans)
      foreign_.push_back({span, pid});
    // Last-seen note per worker lane, for the stall watchdog's dump.
    WorkerNote& note = worker_notes_[pid];
    note.pid = pid;
    note.spans += blob.spans.size();
    note.counters = blob.counters.size();
    for (const TelemetrySpan& span : blob.spans) {
      const std::int64_t end_ns = span.start_ns + span.dur_ns;
      if (end_ns >= note.last_end_ns) {
        note.last_end_ns = end_ns;
        note.last_span = span.name;
      }
    }
  }
  metrics_.merge(blob.counters, blob.histograms);
}

std::vector<WorkerNote> Tracer::worker_notes() const {
  std::lock_guard lock(registry_mu_);
  std::vector<WorkerNote> notes;
  notes.reserve(worker_notes_.size());
  for (const auto& [pid, note] : worker_notes_) notes.push_back(note);
  return notes;
}

std::vector<TelemetrySpan> Tracer::recent_spans(std::size_t max) const {
  std::vector<TelemetrySpan> spans;
  {
    std::lock_guard lock(registry_mu_);
    for (const auto& buffer : buffers_) {
      std::lock_guard buf_lock(buffer->mu);
      const std::size_t take =
          buffer->spans.size() < max ? buffer->spans.size() : max;
      spans.insert(spans.end(), buffer->spans.end() - take,
                   buffer->spans.end());
    }
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TelemetrySpan& a, const TelemetrySpan& b) {
                     return a.start_ns + a.dur_ns > b.start_ns + b.dur_ns;
                   });
  if (spans.size() > max) spans.resize(max);
  return spans;
}

std::size_t Tracer::span_count() const {
  std::lock_guard lock(registry_mu_);
  std::size_t n = foreign_.size();
  for (const auto& buffer : buffers_) {
    std::lock_guard buf_lock(buffer->mu);
    n += buffer->spans.size();
  }
  return n;
}

void Tracer::clear() {
  {
    std::lock_guard lock(registry_mu_);
    for (const auto& buffer : buffers_) {
      std::lock_guard buf_lock(buffer->mu);
      buffer->spans.clear();
    }
    foreign_.clear();
    worker_notes_.clear();
  }
  metrics_.clear();
}

// ----------------------------------------------------- chrome trace output

namespace {

void write_json_string(std::ostream& os, std::string_view s) {
  std::string quoted;
  append_json_string(quoted, s);
  os << quoted;
}

void write_fixed3(std::ostream& os, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  os << buf;
}

struct FlatEvent {
  const TelemetrySpan* span;
  std::uint64_t pid;
};

}  // namespace

void Tracer::write_chrome_trace(std::ostream& os) const {
  std::vector<FlatEvent> events;
  std::lock_guard lock(registry_mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard buf_lock(buffer->mu);
    // Safe to hold pointers across the unlock below: buffers_ and span
    // vectors are not mutated while registry_mu_ is held by us and the
    // owning threads are quiescent during a write (driver writes after
    // programs end).
    for (const TelemetrySpan& span : buffer->spans)
      events.push_back({&span, 0});
  }
  for (const ForeignSpan& foreign : foreign_)
    events.push_back({&foreign.span, foreign.pid});

  std::stable_sort(events.begin(), events.end(),
                   [](const FlatEvent& a, const FlatEvent& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     if (a.span->tid != b.span->tid)
                       return a.span->tid < b.span->tid;
                     return a.span->start_ns < b.span->start_ns;
                   });

  std::int64_t base_ns = 0;
  for (const FlatEvent& e : events)
    if (base_ns == 0 || e.span->start_ns < base_ns) base_ns = e.span->start_ns;

  std::vector<std::uint64_t> pids;
  for (const FlatEvent& e : events) pids.push_back(e.pid);
  std::sort(pids.begin(), pids.end());
  pids.erase(std::unique(pids.begin(), pids.end()), pids.end());

  os << "{\"traceEvents\":[";
  bool first = true;
  for (std::uint64_t pid : pids) {
    if (!first) os << ",";
    first = false;
    const std::string label =
        pid == 0 ? "driver" : "worker " + std::to_string(pid - 1);
    os << "\n{\"ph\":\"M\",\"pid\":" << pid
       << ",\"name\":\"process_name\",\"args\":{\"name\":";
    write_json_string(os, label);
    os << "}}";
  }
  for (const FlatEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":";
    write_json_string(os, e.span->name);
    os << ",\"cat\":";
    write_json_string(os, e.span->category);
    os << ",\"ph\":\"X\",\"ts\":";
    write_fixed3(os, static_cast<double>(e.span->start_ns - base_ns) / 1000.0);
    os << ",\"dur\":";
    write_fixed3(os, static_cast<double>(e.span->dur_ns) / 1000.0);
    os << ",\"pid\":" << e.pid << ",\"tid\":" << e.span->tid << "}";
  }
  os << "\n],\n\"metrics\":{\"counters\":{";
  first = true;
  for (const auto& [name, value] : metrics_.counters()) {
    if (!first) os << ",";
    first = false;
    os << "\n";
    write_json_string(os, name);
    os << ":" << value;
  }
  os << "},\n\"histograms\":{";
  first = true;
  for (const HistogramSnapshot& snap : metrics_.histograms()) {
    if (!first) os << ",";
    first = false;
    std::vector<double> sorted = snap.samples;
    std::sort(sorted.begin(), sorted.end());
    os << "\n";
    write_json_string(os, snap.name);
    os << ":{\"count\":" << snap.count << ",\"sum\":";
    write_fixed3(os, snap.sum);
    os << ",\"p50\":";
    write_fixed3(os, percentile(sorted, 50.0));
    os << ",\"p95\":";
    write_fixed3(os, percentile(sorted, 95.0));
    os << ",\"p99\":";
    write_fixed3(os, percentile(sorted, 99.0));
    os << ",\"dropped\":" << snap.dropped() << "}";
  }
  os << "}}}\n";
}

bool Tracer::write_chrome_trace_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os);
  os.flush();
  return static_cast<bool>(os);
}

void Tracer::flush() {
  if (!spans_on()) return;
  if (span_count() == 0 && metrics_.empty()) return;
  std::string path;
  {
    std::lock_guard lock(registry_mu_);
    path = path_.empty() ? "arbor-trace.json" : path_;
  }
  write_chrome_trace_file(path);  // best effort: exit path, never throws
}

}  // namespace arbor::trace

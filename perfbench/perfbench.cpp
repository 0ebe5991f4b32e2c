// perfbench: one run of one workload of the repository's end-to-end
// benchmark (perfbench/README.md says why each workload exists).
//
//   perfbench --workload ba_central|gnm_dist|level0_inproc|level0_tcp
//             --seed N --seconds S --json PATH [--traced]
//
// A run sets its workload up once and times the set-up, from the
// program's first static initializer to the first timed rep (input
// generation, context/cluster construction, worker spawn, and one
// discarded warm-up rep per job). It then alternates the workload's two
// jobs rep by rep (A, B, A, B, ...) for S seconds (none for S = 0),
// verifies every rep's output, and writes the per-job medians, the exact
// counts, and the pinned knobs as a bench_util JsonReport to PATH. A rep
// whose output fails verification is counted as failed and left out of the
// medians. A count that differs between reps ends the run with exit code
// 3, naming the count. run.py takes the median set-up time over several
// processes: repeated set-ups in one process fragment the heap and move
// peak RSS.
//
// The set-up and every rep are followed by runs of a frozen reference
// kernel (ReferenceKernel below). The box this benchmark runs on shares
// its cores and caches with other machines' work, and its speed drifts by
// 10-50% over minutes; the reference kernel drifts with it. Each timing is
// reported twice: as measured (wall) and rescaled to the reference
// kernel's nominal speed (wall x kNominalReferenceMs / kernel ms). The
// set-up is rescaled by the median of three kernel runs right after it, a
// rep by the median of the five kernel runs nearest to it. The end-to-end
// metrics are the rescaled values; README.md gives the spreads that
// decided this.
//
// --traced is the per-layer run. It expects ARBOR_TRACE=full and adds an
// outside-in breakdown: the benchmark times standalone calls of the public
// functions each job is built from, under its own "bench" spans, and reads
// the metrics registry the library already fills. It prints, per job, each
// child's ms and share of the parent plus an `unattributed` row. An
// untraced run refuses to start when ARBOR_TRACE or ARBOR_WATCHDOG would
// turn instrumentation on; no run starts with the watchdog on.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/coloring_mpc.hpp"
#include "core/layering_pipeline.hpp"
#include "core/orientation_mpc.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "graph/orientation.hpp"
#include "local/mpc_embedding.hpp"
#include "local/peeling.hpp"
#include "mpc/cluster.hpp"
#include "mpc/config.hpp"
#include "mpc/ledger.hpp"
#include "mpc/primitives.hpp"
#include "obs/watchdog.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace arbor;
using Clock = std::chrono::steady_clock;
using Counts = std::map<std::string, std::size_t>;

/// Set-up time starts here. Priority 101 is the first a program may claim,
/// so this runs before the static initializers of the library (its global
/// registries, for example), which count towards the set-up.
const Clock::time_point kProgramStart __attribute__((init_priority(101))) =
    Clock::now();

// Workload sizes (README.md, "Workloads").
constexpr std::size_t kPipelineN = std::size_t{1} << 16;
constexpr std::size_t kBaAttach = 4;
constexpr std::size_t kGnmM = std::size_t{1} << 19;
constexpr double kPipelineDelta = 0.6;
/// Generator seeds of the graphs whose draws differ in work: gnm draws at
/// this size layer in 10 or 18 rounds, and the peel graph's draws peel in
/// 16 or 17. --seed permutes the vertex ids of one fixed draw instead
/// (README.md, "Seeds").
constexpr std::uint64_t kGnmDrawSeed = 1;
constexpr std::uint64_t kPeelDrawSeed = 2;
constexpr std::size_t kSortRecords = 1'000'000;
constexpr std::size_t kSortKeyRange = kSortRecords / 16 + 1;
constexpr std::size_t kPeelN = std::size_t{1} << 17;
constexpr std::size_t kPeelThreshold = 5;
constexpr std::size_t kPeelMachines = 64;
constexpr std::size_t kPeelWords = std::size_t{1} << 18;
constexpr std::size_t kMaxPeelRounds = 1000;
/// Pairs measured even when one pair outlasts --seconds.
constexpr std::size_t kMinPairs = 3;
/// The reference kernel's typical wall time on the 4-vCPU Xeon box the
/// benchmark was tuned on; rescaled timings are "ms at this speed".
constexpr double kNominalReferenceMs = 13.1;

class Failure : public std::runtime_error {
 public:
  Failure(int code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  int code() const noexcept { return code_; }

 private:
  int code_;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// A benchmark-owned span plus a steady-clock timer around one call.
class Timed {
 public:
  explicit Timed(const char* name)
      : span_(trace::Tracer::global().span("bench", name)),
        start_(Clock::now()) {}
  double stop() {
    const double ms = ms_between(start_, Clock::now());
    span_.end();
    return ms;
  }

 private:
  trace::Span span_;
  Clock::time_point start_;
};

/// A fixed, benchmark-owned workload of the same kind as the library's
/// graph code (CSR build, greedy coloring, a stable merge sort of
/// (key, index) records, bounded BFS) on a fixed random graph. It never
/// changes with the library or the seed, so its wall time measures how
/// fast the box runs this kind of code at that moment. Every buffer is
/// allocated in the constructor and reused, with epoch marks in place of
/// clearing: a run never calls the allocator, so the heap the library
/// leaves behind cannot change its time.
class ReferenceKernel {
 public:
  ReferenceKernel()
      : edges_(kM), offset_(kN + 1), fill_(kN), adj_(2 * kM), color_(kN),
        records_(kM), merged_(kM), seen_(kN, 0), queue_(kN) {
    std::mt19937_64 rng(0x5eed);
    std::vector<std::uint32_t> degree(kN, 0);
    for (auto& [u, v] : edges_) {
      u = static_cast<std::uint32_t>(rng() % kN);
      v = static_cast<std::uint32_t>(rng() % kN);
      ++degree[u];
      ++degree[v];
    }
    // A greedy color is at most the vertex's degree.
    taken_.assign(*std::max_element(degree.begin(), degree.end()) + 2, 0);
  }

  double run_ms() {
    const auto t0 = Clock::now();
    std::fill(offset_.begin(), offset_.end(), 0);
    for (const auto& [u, v] : edges_) {
      ++offset_[u + 1];
      ++offset_[v + 1];
    }
    for (std::uint32_t i = 0; i < kN; ++i) offset_[i + 1] += offset_[i];
    std::copy(offset_.begin(), offset_.end() - 1, fill_.begin());
    for (const auto& [u, v] : edges_) {
      adj_[fill_[u]++] = v;
      adj_[fill_[v]++] = u;
    }
    constexpr std::uint32_t kNone = ~std::uint32_t{0};
    std::fill(color_.begin(), color_.end(), kNone);
    std::uint64_t checksum = 0;
    for (std::uint32_t v = 0; v < kN; ++v) {
      ++epoch_;
      for (std::uint32_t i = offset_[v]; i < offset_[v + 1]; ++i)
        if (color_[adj_[i]] != kNone) taken_[color_[adj_[i]]] = epoch_;
      std::uint32_t c = 0;
      while (taken_[c] == epoch_) ++c;
      color_[v] = c;
      checksum += c;
    }
    // Bulk part: the stable sort of (key, index) records the Level-1
    // sorts and the engine's buckets are made of, as bottom-up merges.
    for (std::uint32_t i = 0; i < kM; ++i)
      records_[i] = {edges_[i].first & 0xfff, i};
    const auto by_key = [](const Record& a, const Record& b) {
      return a.first < b.first;
    };
    Record* in = records_.data();
    Record* out = merged_.data();
    for (std::uint32_t width = 1; width < kM; width *= 2) {
      for (std::uint32_t lo = 0; lo < kM; lo += 2 * width) {
        const std::uint32_t mid = std::min(lo + width, kM);
        const std::uint32_t hi = std::min(lo + 2 * width, kM);
        std::merge(in + lo, in + mid, in + mid, in + hi, out + lo, by_key);
      }
      std::swap(in, out);
    }
    checksum += in[kM / 2].second;
    for (std::uint32_t source = 0; source < 16; ++source) {
      ++epoch_;
      const std::uint32_t root = source * 977;
      seen_[root] = epoch_;
      std::size_t head = 0;
      std::size_t tail = 0;
      queue_[tail++] = {root, 0};
      while (head < tail) {
        const auto [v, depth] = queue_[head++];
        if (depth == 3) continue;
        for (std::uint32_t i = offset_[v]; i < offset_[v + 1]; ++i)
          if (seen_[adj_[i]] != epoch_) {
            seen_[adj_[i]] = epoch_;
            queue_[tail++] = {adj_[i], depth + 1};
          }
      }
      checksum += tail;
    }
    checksum_ = checksum;
    return ms_between(t0, Clock::now());
  }

  std::uint64_t checksum() const noexcept { return checksum_; }

 private:
  using Record = std::pair<std::uint32_t, std::uint32_t>;
  static constexpr std::uint32_t kN = 1u << 15;
  static constexpr std::uint32_t kM = 1u << 17;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
  std::vector<std::uint32_t> offset_;
  std::vector<std::uint32_t> fill_;
  std::vector<std::uint32_t> adj_;
  std::vector<std::uint32_t> color_;
  std::vector<std::uint64_t> taken_;  ///< color -> epoch it was last taken
  std::vector<Record> records_;
  std::vector<Record> merged_;
  std::vector<std::uint64_t> seen_;  ///< vertex -> epoch it was last seen
  std::vector<std::pair<std::uint32_t, std::uint32_t>> queue_;  ///< BFS
  std::uint64_t epoch_ = 0;
  std::uint64_t checksum_ = 0;
};

/// A wall time rescaled to the reference kernel's nominal speed.
double rescaled(double wall, double reference_ms) {
  return wall * kNominalReferenceMs / reference_ms;
}

/// The median of the five kernel runs nearest to the one at `at`.
double nearby_reference(const std::vector<double>& reference_ms,
                        std::size_t at) {
  const std::size_t lo = at < 2 ? 0 : at - 2;
  const std::size_t hi = std::min(reference_ms.size(), at + 3);
  return median({reference_ms.begin() + static_cast<std::ptrdiff_t>(lo),
                 reference_ms.begin() + static_cast<std::ptrdiff_t>(hi)});
}

/// One verified rep of one job.
struct Rep {
  double ms = 0.0;            ///< wall time of the public call
  double reference_ms = 0.0;  ///< the kernel run that followed it
  double rescaled_ms = 0.0;   ///< ms at the kernel's nominal speed
  std::string error;          ///< empty when the output verified
  Counts counts;              ///< exact; must repeat across reps and runs
  // Traced runs only.
  Counts layer_counts;  ///< exact counts of the metrics registry and children
  std::map<std::string, double> child_ms;  ///< outside-in child timings
};

/// Every knob the benchmark pins on a ClusterConfig, so no ARBOR_*
/// environment default leaks into a measurement.
mpc::ClusterConfig pin(mpc::ClusterConfig cfg, bool distributed_level1,
                       const mpc::TransportConfig& transport,
                       trace::Mode trace_mode) {
  cfg.execution = mpc::ExecutionPolicy::serial();
  cfg.distributed_level1 = distributed_level1;
  cfg.route_aggregation = true;
  cfg.merge_path = true;
  cfg.fetch_cache = true;
  cfg.transport = transport;
  cfg.trace = trace::TraceConfig{trace_mode, {}};
  return cfg;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Display names of jobs A and B.
  virtual const char* job_name(int job) const = 0;
  virtual Rep run(int job) = 0;
  /// Traced runs only: time the public calls job `job` is built from,
  /// standalone, into `rep` (called before the job's own rep).
  virtual void time_children(int /*job*/, Rep& /*rep*/) {}
  /// The cluster configs the jobs run on, stamped into the report.
  virtual std::vector<std::pair<std::string, mpc::ClusterConfig>> configs()
      const = 0;
  double generate_ms = 0.0;  ///< input generation inside the set-up
};

// ------------------------------------------------------------ pipeline

/// mpc_orient (A) and mpc_color (B) on one graph under one pinned config.
class PipelineWorkload final : public Workload {
 public:
  PipelineWorkload(graph::Graph g, bool distributed_level1,
                   trace::Mode trace_mode)
      : g_(std::move(g)),
        cfg_(pin(mpc::ClusterConfig::for_problem(
                     g_.num_vertices(), g_.num_edges(), kPipelineDelta),
                 distributed_level1,
                 mpc::TransportConfig::in_process_default(), trace_mode)),
        central_cfg_(pin(cfg_, false, cfg_.transport, trace_mode)),
        engine_(cfg_.execution) {}

  const char* job_name(int job) const override {
    return job == 0 ? "orient" : "color";
  }

  Rep run(int job) override { return job == 0 ? orient() : color(); }

  /// The outside-in children both entry points run first: the k estimate
  /// and complete_layering(g, practical(k)), each called standalone on a
  /// fresh context. On a distributed_level1 config the layering is timed
  /// a second time on the central path; the difference is mpc.level1_ms.
  /// Job B shares job A's children.
  void time_children(int job, Rep& rep) override {
    if (job != 0) return;
    Timed est_timer("bench.estimate_density_parameter");
    const std::size_t k = core::estimate_density_parameter(g_);
    rep.child_ms["core.estimate_k"] = est_timer.stop();

    const core::PipelineParams params = core::PipelineParams::practical(k);
    const auto layering = [&](const mpc::ClusterConfig& cfg,
                              const char* span, double& ms) {
      mpc::RoundLedger ledger(cfg);
      mpc::MpcContext ctx(cfg, &ledger, &engine_);
      Timed timer(span);
      core::CompleteLayeringResult r = core::complete_layering(g_, params, ctx);
      ms = timer.stop();
      return std::make_pair(std::move(r), ledger.total_rounds());
    };
    const auto [r, rounds] = layering(cfg_, "bench.complete_layering",
                                      rep.child_ms["core.layering"]);
    if (cfg_.distributed_level1)
      layering(central_cfg_, "bench.complete_layering.central",
               rep.child_ms["core.layering_central"]);
    rep.layer_counts["core.layering_rounds"] = rounds;
    rep.layer_counts["core.layers"] = r.assignment.num_layers;
    rep.layer_counts["core.layering_phases"] = r.stats.phases;
    rep.layer_counts["core.partial_iterations"] = r.stats.partial_iterations;
    rep.layer_counts["core.escalations"] = r.stats.escalations;
    rep.layer_counts["core.fallback_peel_rounds"] =
        r.stats.fallback_peel_rounds;
  }

  std::vector<std::pair<std::string, mpc::ClusterConfig>> configs()
      const override {
    return {{"pipeline", cfg_}};
  }

 private:
  Rep orient() {
    Rep rep;
    mpc::RoundLedger ledger(cfg_);
    mpc::MpcContext ctx(cfg_, &ledger, &engine_);
    Timed timer("bench.mpc_orient");
    const core::MpcOrientationResult r = core::mpc_orient(g_, {}, ctx);
    rep.ms = timer.stop();

    const std::size_t outdegree = r.orientation.max_outdegree(g_);
    if (r.orientation.num_edges() != g_.num_edges())
      rep.error = "orientation has " +
                  std::to_string(r.orientation.num_edges()) +
                  " bits for " + std::to_string(g_.num_edges()) + " edges";
    else if (outdegree > r.outdegree_bound)
      rep.error = "max out-degree " + std::to_string(outdegree) +
                  " exceeds the stated bound " +
                  std::to_string(r.outdegree_bound);
    rep.counts = {{"orient_rounds", ledger.total_rounds()},
                  {"max_outdegree", outdegree},
                  {"core.outdegree_bound", r.outdegree_bound}};
    if (cfg_.distributed_level1) {
      const mpc::RoundLedger* grounding = ctx.level1_sort_grounding();
      rep.counts["mpc.level1_sort_rounds"] = grounding->total_rounds();
      rep.counts["mpc.level1_peak_round_words"] =
          grounding->peak_round_traffic();
      rep.counts["mpc.level1_violations"] = grounding->local_violations();
    }
    return rep;
  }

  Rep color() {
    Rep rep;
    mpc::RoundLedger ledger(cfg_);
    mpc::MpcContext ctx(cfg_, &ledger, &engine_);
    Timed timer("bench.mpc_color");
    const core::MpcColoringResult r = core::mpc_color(g_, {}, ctx);
    rep.ms = timer.stop();

    const graph::ColoringCheck check = graph::check_coloring(g_, r.colors);
    const bool in_palette =
        std::all_of(r.colors.begin(), r.colors.end(),
                    [&](graph::Color c) { return c < r.palette_size; });
    if (!check.proper)
      rep.error = "coloring is not proper";
    else if (!in_palette)
      rep.error = "a color lies outside the palette of " +
                  std::to_string(r.palette_size);
    rep.counts = {
        {"color_rounds", ledger.total_rounds()},
        {"colors_used", check.colors_used},
        {"core.color_blocks", r.blocks},
        {"core.color_replayed_local_rounds", r.local_rounds_replayed},
        {"core.color_tail_rounds", r.tail_mpc_rounds},
        {"core.color_max_cone_nodes", r.max_sampled_cone_nodes},
        {"core.palette_size", r.palette_size}};
    return rep;
  }

  graph::Graph g_;
  mpc::ClusterConfig cfg_;
  mpc::ClusterConfig central_cfg_;
  engine::Engine engine_;
};

// ------------------------------------------------------------- Level-0

/// A 1M-record Level-1 sort (A) and embedded threshold peeling (B), with
/// `core` idle, in-process or over the src/net/ transport.
class Level0Workload final : public Workload {
 public:
  using Record = std::pair<mpc::Word, mpc::Word>;  // (key, original index)

  Level0Workload(util::SplitRng& rng, const mpc::TransportConfig& transport,
                 trace::Mode trace_mode)
      : sort_cfg_(pin(mpc::ClusterConfig::for_problem(kSortRecords,
                                                      kSortRecords, 0.5),
                      true, transport, trace_mode)),
        peel_cfg_(pin(mpc::ClusterConfig{kPeelMachines, kPeelWords}, false,
                      transport, trace_mode)) {
    const auto t0 = Clock::now();
    records_.reserve(kSortRecords);
    for (std::size_t i = 0; i < kSortRecords; ++i)
      records_.emplace_back(rng.next_below(kSortKeyRange), i);
    util::SplitRng draw(kPeelDrawSeed);
    peel_graph_ = graph::relabel_randomly(
        graph::barabasi_albert(kPeelN, kBaAttach, draw), rng);
    generate_ms = ms_between(t0, Clock::now());

    sorted_ = records_;
    std::stable_sort(sorted_.begin(), sorted_.end(),
                     [](const Record& a, const Record& b) {
                       return a.first < b.first;
                     });
    peel_reference_ =
        local::peel_by_threshold(peel_graph_, kPeelThreshold, kMaxPeelRounds);

    sort_ledger_ = std::make_unique<mpc::RoundLedger>(sort_cfg_);
    sort_ctx_ = std::make_unique<mpc::MpcContext>(sort_cfg_,
                                                  sort_ledger_.get());
    peel_cluster_ = std::make_unique<mpc::Cluster>(peel_cfg_, nullptr);
  }

  const char* job_name(int job) const override {
    return job == 0 ? "sort" : "peel";
  }

  Rep run(int job) override { return job == 0 ? sort() : peel(); }

  std::vector<std::pair<std::string, mpc::ClusterConfig>> configs()
      const override {
    return {{"sort", sort_cfg_}, {"peel", peel_cfg_}};
  }

 private:
  Rep sort() {
    Rep rep;
    std::vector<Record> items = records_;
    mpc::RoundLedger* grounding = sort_ctx_->level1_sort_grounding();
    const std::size_t rounds_before = grounding->total_rounds();
    const std::size_t overruns_before = grounding->local_violations();
    Timed timer("bench.sort_items_by_key");
    sort_ctx_->sort_items_by_key(
        items, [](const Record& r) { return r.first; }, 2, "bench.sort");
    rep.ms = timer.stop();

    if (items != sorted_)
      rep.error = "sort permutation differs from the std::stable_sort "
                  "reference";
    // At S = 1000 some route rounds of a 1M-record sort exceed the model's
    // S; the grounding ledger counts them by design.
    rep.counts = {
        {"sort_rounds", grounding->total_rounds() - rounds_before},
        {"mpc.sort_peak_round_words", grounding->peak_round_traffic()},
        {"mpc.sort_s_overruns",
         grounding->local_violations() - overruns_before}};
    return rep;
  }

  Rep peel() {
    Rep rep;
    peel_cluster_->reset_inboxes();
    Timed timer("bench.embedded_threshold_peeling");
    const local::EmbeddedPeelingResult r = local::embedded_threshold_peeling(
        peel_graph_, kPeelThreshold, *peel_cluster_, kMaxPeelRounds);
    rep.ms = timer.stop();

    if (!r.complete)
      rep.error = "embedded peeling stalled";
    else if (r.layer != peel_reference_.layer)
      rep.error = "peel layers differ from the peel_by_threshold reference";
    rep.counts = {{"peel_rounds", r.cluster_rounds},
                  {"local.peel_layers", r.num_layers}};
    return rep;
  }

  mpc::ClusterConfig sort_cfg_;
  mpc::ClusterConfig peel_cfg_;
  std::vector<Record> records_;
  std::vector<Record> sorted_;
  graph::Graph peel_graph_;
  local::PeelingResult peel_reference_;
  std::unique_ptr<mpc::RoundLedger> sort_ledger_;
  std::unique_ptr<mpc::MpcContext> sort_ctx_;
  std::unique_ptr<mpc::Cluster> peel_cluster_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        trace::Mode trace_mode) {
  util::SplitRng rng(seed);
  if (name == "ba_central" || name == "gnm_dist") {
    const auto t0 = Clock::now();
    graph::Graph g;
    if (name == "ba_central") {
      g = graph::barabasi_albert(kPipelineN, kBaAttach, rng);
    } else {
      util::SplitRng draw(kGnmDrawSeed);
      g = graph::relabel_randomly(graph::gnm(kPipelineN, kGnmM, draw), rng);
    }
    const double generate_ms = ms_between(t0, Clock::now());
    auto w = std::make_unique<PipelineWorkload>(
        std::move(g), name == "gnm_dist", trace_mode);
    w->generate_ms = generate_ms;
    return w;
  }
  if (name == "level0_inproc")
    return std::make_unique<Level0Workload>(
        rng, mpc::TransportConfig::in_process_default(), trace_mode);
  if (name == "level0_tcp") {
    mpc::TransportConfig tcp = mpc::TransportConfig::tcp(2);
    tcp.worker_threads = 1;
    return std::make_unique<Level0Workload>(rng, tcp, trace_mode);
  }
  throw Failure(2, "unknown workload \"" + name + "\"");
}

// --------------------------------------------------- metrics registry

/// Counters and histogram (count, sum) totals of the global registry.
struct RegistryTotals {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> hist_sum;  ///< µs for the *_us histograms

  static RegistryTotals take() {
    RegistryTotals t;
    const trace::MetricsRegistry& reg = trace::Tracer::global().metrics();
    t.counters = reg.counters();
    for (const trace::HistogramSnapshot& h : reg.histograms())
      t.hist_sum[h.name] = h.sum;
    return t;
  }

  /// Sum over every counter (or histogram) whose name starts with
  /// `prefix`, minus the same sum in `before`.
  std::uint64_t counter_delta(const RegistryTotals& before,
                              std::string_view prefix) const {
    return sum_prefix(counters, prefix) - sum_prefix(before.counters, prefix);
  }
  double hist_delta(const RegistryTotals& before,
                    std::string_view prefix) const {
    return sum_prefix(hist_sum, prefix) - sum_prefix(before.hist_sum, prefix);
  }

 private:
  template <typename V>
  static V sum_prefix(const std::map<std::string, V>& m,
                      std::string_view prefix) {
    V total{};
    for (auto it = m.lower_bound(std::string(prefix));
         it != m.end() && std::string_view(it->first).starts_with(prefix);
         ++it)
      total += it->second;
    return total;
  }
};

/// Histogram samples observed since `skip[name]` samples were retained.
std::vector<double> samples_since(const std::string& name,
                                  const std::map<std::string, std::size_t>&
                                      skip) {
  const auto h = trace::Tracer::global().metrics().histogram(name);
  if (!h) return {};
  const auto it = skip.find(name);
  const std::size_t from = it == skip.end() ? 0 : it->second;
  if (h->samples.size() <= from) return {};
  return {h->samples.begin() + static_cast<std::ptrdiff_t>(from),
          h->samples.end()};
}

std::map<std::string, std::size_t> sample_counts() {
  std::map<std::string, std::size_t> out;
  for (const trace::HistogramSnapshot& h :
       trace::Tracer::global().metrics().histograms())
    out[h.name] = h.samples.size();
  return out;
}

/// The round_us.<step> children of a Level-0 job: which engine phase a
/// step label belongs to.
const char* round_group(std::string_view label) {
  if (label.starts_with("peel.")) return "engine.peel_rounds";
  if (label.ends_with(".route")) return "engine.route_rounds";
  if (label.ends_with(".sort")) return "engine.bucket_rounds";
  return "engine.splitter_rounds";
}

/// Per-rep registry deltas a traced job is attributed: its round time by
/// engine phase (the Level-0 jobs' children), the net step times, and the
/// exact counts.
void attribute_registry(Rep& rep, const RegistryTotals& before,
                        const RegistryTotals& after) {
  for (const auto& [name, sum] : after.hist_sum) {
    constexpr std::string_view kRound = "round_us.";
    if (!std::string_view(name).starts_with(kRound)) continue;
    const auto it = before.hist_sum.find(name);
    const double delta = sum - (it == before.hist_sum.end() ? 0 : it->second);
    if (delta > 0)
      rep.child_ms[round_group(std::string_view(name).substr(kRound.size()))] +=
          delta / 1e3;
  }
  for (const char* step : {"serialize", "send", "wait", "deliver"})
    rep.child_ms[std::string("net.") + step] =
        after.hist_delta(before, std::string("net.") + step + "_us.") / 1e3;
  rep.layer_counts["engine.arena_reuse_hits"] =
      after.counter_delta(before, "engine.arena_reuse_hits");
  rep.layer_counts["engine.fetch_cache_hits"] =
      after.counter_delta(before, "engine.fetch_cache_hits");
  rep.layer_counts["net.sent_words"] =
      after.counter_delta(before, "net.sent_words.");
  rep.layer_counts["net.sent_frames"] =
      after.counter_delta(before, "net.sent_frames.");
}

// ------------------------------------------------------------- the run

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;
  std::string json_path;
};

std::uint64_t parse_number(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (text[0] == '\0' || text[0] == '-' || *end != '\0')
    throw Failure(2, flag + " needs a non-negative integer, got \"" +
                         std::string(text) + "\"");
  return v;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--traced") {
      o.traced = true;
      continue;
    }
    if (i + 1 >= argc) throw Failure(2, flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = parse_number(flag, value);
    else if (flag == "--seconds") o.seconds = parse_number(flag, value);
    else if (flag == "--json") o.json_path = value;
    else throw Failure(2, "unknown flag " + flag);
  }
  if (o.workload.empty() || o.json_path.empty())
    throw Failure(2, "usage: perfbench --workload NAME --seed N --seconds S "
                     "--json PATH [--traced]");
  return o;
}

/// The timed runs measure with instrumentation off; the traced run needs
/// full metrics. The watchdog perturbs every round, so it is never on.
void check_environment(bool traced) {
  const trace::Mode env_mode = trace::trace_env_default().mode;
  if (!traced && env_mode != trace::Mode::kOff)
    throw Failure(2, "refusing an untraced run: ARBOR_TRACE turns tracing on");
  if (traced && env_mode != trace::Mode::kFull)
    throw Failure(2, "the traced run needs ARBOR_TRACE=full");
  if (obs::watchdog_env_default().enabled)
    throw Failure(2, "refusing to run: ARBOR_WATCHDOG turns the stall "
                     "watchdog on");
}

/// Exact-count guard: `got` must equal `want` key for key.
void expect_counts(const Counts& want, const Counts& got,
                   const std::string& where) {
  for (const auto& [name, value] : got) {
    const auto it = want.find(name);
    if (it == want.end() || it->second != value)
      throw Failure(3, "count drift: " + name + " = " + std::to_string(value) +
                           " in " + where + ", expected " +
                           (it == want.end() ? std::string("no value")
                                             : std::to_string(it->second)));
  }
  if (want.size() != got.size())
    throw Failure(3, "count drift: " + where + " reports a different set "
                                               "of counts");
}

struct JobSeries {
  std::vector<Rep> reps;
  Counts counts;        ///< reference, from the warm-up rep
  Counts layer_counts;  ///< reference, from the first traced rep
  std::size_t failed = 0;

  void add(Rep rep, const std::string& where) {
    if (!rep.error.empty()) {
      ++failed;
      std::fprintf(stderr, "FAILED %s: %s\n", where.c_str(),
                   rep.error.c_str());
    }
    expect_counts(counts, rep.counts, where);
    if (reps.empty())
      layer_counts = rep.layer_counts;
    else
      expect_counts(layer_counts, rep.layer_counts, where);
    reps.push_back(std::move(rep));
  }

  /// Medians over the reps that verified.
  double median_of(double Rep::*field) const {
    std::vector<double> v;
    for (const Rep& r : reps)
      if (r.error.empty()) v.push_back(r.*field);
    return median(std::move(v));
  }
  double median_ms() const { return median_of(&Rep::ms); }
  double median_rescaled_ms() const { return median_of(&Rep::rescaled_ms); }
  double median_child(const std::string& child) const {
    std::vector<double> v;
    for (const Rep& r : reps)
      if (r.error.empty()) {
        const auto it = r.child_ms.find(child);
        v.push_back(it == r.child_ms.end() ? 0.0 : it->second);
      }
    return median(std::move(v));
  }
  /// An exact count of this job, 0 where it does not apply.
  std::size_t count(const std::string& name) const {
    for (const Counts* c : {&counts, &layer_counts}) {
      const auto it = c->find(name);
      if (it != c->end()) return it->second;
    }
    return 0;
  }
};

/// Prints one job's outside-in breakdown (median wall ms of the parent
/// and of each child); returns the unattributed share of the parent in
/// percent. Children plus `unattributed` sum to the parent by
/// construction.
double print_breakdown(const char* job, const JobSeries& s,
                       const std::vector<std::pair<std::string, double>>&
                           children) {
  const double parent = s.median_ms();
  const auto row = [parent](const std::string& name, double ms) {
    std::fprintf(stderr, "  %-28s %10.3f ms %6.1f%%\n", name.c_str(), ms,
                 parent > 0 ? 100.0 * ms / parent : 0.0);
  };
  std::fprintf(stderr, "\n%s: %.3f ms (median of %zu reps)\n", job, parent,
               s.reps.size());
  double attributed = 0.0;
  for (const auto& [name, ms] : children) {
    attributed += ms;
    row(name, ms);
  }
  row("unattributed", parent - attributed);
  return parent > 0 ? 100.0 * (parent - attributed) / parent : 0.0;
}

void write_layer_metrics(bench::JsonReport& report, const Options& o,
                         const Workload& w, const JobSeries& a,
                         const JobSeries& b,
                         const std::map<std::string, std::size_t>& skip) {
  const auto layer = [&](const std::string& name, auto value) {
    report.meta("layer." + name, value);
  };
  const bool pipeline = o.workload == "ba_central" || o.workload == "gnm_dist";
  const auto p50 = [&](const std::string& hist) {
    return bench::percentiles(samples_since(hist, skip)).p50;
  };
  const auto both = [&](const std::string& name) {
    return a.count(name) + b.count(name);
  };
  const auto both_ms = [&](const std::string& child) {
    return a.median_child(child) + b.median_child(child);
  };

  double unattributed_a = 0.0;
  double unattributed_b = 0.0;
  if (pipeline) {
    // Both entry points run the same k estimate and layering first.
    const double est = a.median_child("core.estimate_k");
    const double lay = a.median_child("core.layering");
    unattributed_a = print_breakdown(
        "orient", a, {{"core.estimate_k", est}, {"core.layering", lay}});
    unattributed_b = print_breakdown(
        "color", b, {{"core.estimate_k", est}, {"core.layering", lay}});
    layer("core.estimate_k_ms", est);
    layer("core.layering_ms", lay);
    layer("core.orient_rest_ms", a.median_ms() - est - lay);
    layer("core.color_descent_ms", b.median_ms() - est - lay);
    const double central = a.median_child("core.layering_central");
    layer("mpc.level1_ms", central > 0 ? lay - central : 0.0);
  } else {
    const auto children = [](const JobSeries& s,
                             std::initializer_list<const char*> names) {
      std::vector<std::pair<std::string, double>> out;
      for (const char* name : names) out.emplace_back(name, s.median_child(name));
      return out;
    };
    unattributed_a = print_breakdown(
        "sort", a,
        children(a, {"engine.route_rounds", "engine.bucket_rounds",
                     "engine.splitter_rounds"}));
    unattributed_b =
        print_breakdown("peel", b, children(b, {"engine.peel_rounds"}));
    for (const char* name : {"core.estimate_k_ms", "core.layering_ms",
                             "core.orient_rest_ms", "core.color_descent_ms",
                             "mpc.level1_ms"})
      layer(name, 0.0);
  }
  layer("trace.orient_or_sort_unattributed_pct", unattributed_a);
  layer("trace.color_or_peel_unattributed_pct", unattributed_b);
  layer("graph.generate_ms", w.generate_ms);

  for (const char* name :
       {"core.layering_rounds", "core.layers", "core.layering_phases",
        "core.partial_iterations", "core.escalations",
        "core.fallback_peel_rounds", "core.outdegree_bound",
        "core.color_blocks", "core.color_replayed_local_rounds",
        "core.color_tail_rounds", "core.color_max_cone_nodes",
        "core.palette_size", "mpc.level1_sort_rounds",
        "mpc.level1_peak_round_words", "mpc.level1_violations",
        "mpc.sort_peak_round_words", "mpc.sort_s_overruns",
        "local.peel_layers",
        "engine.arena_reuse_hits", "engine.fetch_cache_hits",
        "net.sent_words", "net.sent_frames"})
    layer(name, both(name));
  layer("core.colors_used", b.count("colors_used"));
  layer("core.max_outdegree", a.count("max_outdegree"));

  layer("engine.route_round_us_p50", p50("round_us.sample_sort.tree.route"));
  layer("engine.bucket_round_us_p50", p50("round_us.sample_sort.tree.sort"));
  layer("engine.splitter_rounds_us",
        1e3 * both_ms("engine.splitter_rounds"));
  layer("engine.peel_round_us_p50", p50("round_us.peel.round"));
  for (const char* step : {"serialize", "send", "wait", "deliver"})
    layer(std::string("net.") + step + "_ms", both_ms(std::string("net.") + step));
  layer("net.peel_round_us_p50", p50("net.round_us.peel.round"));

  const trace::MetricsRegistry& reg = trace::Tracer::global().metrics();
  // One worker group per pooled cluster (the sort's and the peel's).
  const std::size_t spawned = static_cast<std::size_t>(
      reg.counter("net.worker_groups_spawned").value_or(0));
  const std::size_t groups = o.workload == "level0_tcp" ? 2 : 0;
  layer("net.worker_groups_spawned", spawned);
  if (spawned != groups)
    throw Failure(3, "count drift: net.worker_groups_spawned = " +
                         std::to_string(spawned) + ", expected " +
                         std::to_string(groups));
  const std::uint64_t violations =
      reg.counter("obs.bound_violations").value_or(0);
  layer("obs.bound_violations", static_cast<std::size_t>(violations));
  if (violations != 0 || both("mpc.level1_violations") != 0)
    throw Failure(3, "the run recorded declared-bound or S-cap violations");
}

int run(const Options& o) {
  check_environment(o.traced);
  const trace::Mode trace_mode =
      o.traced ? trace::Mode::kFull : trace::Mode::kOff;

  const std::unique_ptr<Workload> w =
      make_workload(o.workload, o.seed, trace_mode);
  JobSeries jobs[2];
  for (int job = 0; job < 2; ++job) {
    Rep warm = w->run(job);
    if (!warm.error.empty())
      throw Failure(1, std::string("warm-up ") + w->job_name(job) +
                           " failed: " + warm.error);
    jobs[job].counts = warm.counts;
  }
  const double setup_s = ms_between(kProgramStart, Clock::now()) / 1e3;
  // The kernel is built and run after the set-up, outside its interval.
  ReferenceKernel kernel;
  kernel.run_ms();  // first touch of its buffers
  const double setup_rescaled_s = rescaled(
      setup_s, median({kernel.run_ms(), kernel.run_ms(), kernel.run_ms()}));

  const std::map<std::string, std::size_t> skip =
      o.traced ? sample_counts() : std::map<std::string, std::size_t>{};
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(o.seconds));
  std::vector<double> reference_ms;
  for (std::size_t pair = 0;
       o.seconds > 0 && (pair < kMinPairs || Clock::now() < deadline);
       ++pair) {
    for (int job = 0; job < 2; ++job) {
      Rep children;
      std::optional<RegistryTotals> before;
      if (o.traced) {
        w->time_children(job, children);
        before = RegistryTotals::take();
      }
      Rep rep = w->run(job);
      if (o.traced) {
        attribute_registry(rep, *before, RegistryTotals::take());
        rep.child_ms.merge(children.child_ms);
        rep.layer_counts.merge(children.layer_counts);
      }
      reference_ms.push_back(kernel.run_ms());
      rep.reference_ms = reference_ms.back();
      jobs[job].add(std::move(rep), std::string(w->job_name(job)) + " rep " +
                                        std::to_string(pair));
    }
  }
  const double measured_s = ms_between(start, Clock::now()) / 1e3;
  // Reps ran A, B, A, B, ...: rep k of job j is the (2k + j)-th, and
  // reference_ms[2k + j] the kernel run right after it.
  for (int job = 0; job < 2; ++job)
    for (std::size_t k = 0; k < jobs[job].reps.size(); ++k) {
      Rep& r = jobs[job].reps[k];
      r.rescaled_ms =
          rescaled(r.ms, nearby_reference(reference_ms, 2 * k + job));
    }

  bench::JsonReport report("perfbench");
  report.meta("workload", o.workload)
      .meta("seed", static_cast<std::size_t>(o.seed))
      .meta("seconds", o.seconds)
      .meta("measured_s", measured_s)
      .meta("traced", o.traced)
      .meta("job_a", w->job_name(0))
      .meta("job_b", w->job_name(1));
  for (const auto& [name, cfg] : w->configs()) {
    const std::string p = "knob." + name + ".";
    report.meta(p + "machines", cfg.num_machines)
        .meta(p + "words_per_machine", cfg.words_per_machine)
        .meta(p + "backend", bench::backend_name(cfg))
        .meta(p + "execution_threads", cfg.execution.threads)
        .meta(p + "distributed_level1", cfg.distributed_level1)
        .meta(p + "route_aggregation", cfg.route_aggregation)
        .meta(p + "merge_path", cfg.merge_path)
        .meta(p + "fetch_cache", cfg.fetch_cache)
        .meta(p + "transport", bench::transport_name(cfg.transport))
        .meta(p + "worker_threads", cfg.transport.worker_threads)
        .meta(p + "trace", trace::mode_name(cfg.trace.mode));
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (int job = 0; job < 2; ++job) {
    const JobSeries& s = jobs[job];
    attempted += s.reps.size();
    failed += s.failed;
    const std::string p = std::string("job.") + w->job_name(job) + ".";
    report.meta(p + "reps", s.reps.size())
        .meta(p + "failed", s.failed)
        .meta(p + "wall_ms", s.median_ms())
        .meta(p + "rescaled_ms", s.median_rescaled_ms());
    for (const auto& [name, value] : s.counts)
      report.meta("count." + name, value);
    for (const Rep& r : s.reps)
      report.row()
          .set("job", w->job_name(job))
          .set("ms", r.ms)
          .set("reference_ms", r.reference_ms)
          .set("ok", r.error.empty());
  }
  report.meta("attempted", attempted)
      .meta("failed", failed)
      .meta("setup_wall_s", setup_s)
      .meta("reference.median_ms", median(reference_ms))
      .meta("reference.checksum", static_cast<std::size_t>(kernel.checksum()));

  const auto round_key = [&](int job) {
    return std::string(w->job_name(job)) + "_rounds";
  };
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.meta("e2e.setup_s", setup_rescaled_s)
      .meta("e2e.orient_or_sort_ms", jobs[0].median_rescaled_ms())
      .meta("e2e.color_or_peel_ms", jobs[1].median_rescaled_ms())
      .meta("e2e.orient_or_sort_rounds", jobs[0].counts.at(round_key(0)))
      .meta("e2e.color_or_peel_rounds", jobs[1].counts.at(round_key(1)))
      .meta("e2e.peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  if (o.traced) write_layer_metrics(report, o, *w, jobs[0], jobs[1], skip);

  if (!report.write_file(o.json_path))
    throw Failure(1, "cannot write " + o.json_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const Failure& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return e.code();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

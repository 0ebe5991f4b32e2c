// E-level1: Level-1 record sort — central stable_sort vs. the engine-backed
// distributed sample sort behind ClusterConfig::distributed_level1, plus
// the raw splitter-tree record sort at several cluster widths.
//
// Workload 1 (Level-1): sort N (key, payload) records by key through
// MpcContext::sort_items_by_key, once on the central reference path and
// once per execution policy on the distributed path. Every configuration
// must produce the bit-identical permutation (stability included — keys are
// drawn from a small range so ties dominate) and identical ledger totals;
// the bench aborts on any disagreement.
//
// Metrics are forced on so each row also reports the p50 of the sort's
// route rounds (round_us.sample_sort.tree.route), its hot path.
//
// Workload 2 (splitter widths): the raw sample_sort_records at several
// cluster widths. Reports wall time, rounds, and the ledger's per-label
// traffic peaks — the splitter rounds stay O(√p·s) words per machine —
// and aborts if the sorted output disagrees with a std::sort reference.
//
// Results are also written as machine-readable JSON (default
// BENCH_level1_sort.json, override with --json PATH) with backend +
// variant fields, to seed the perf trajectory. --report PATH additionally
// writes the observatory RunReport log (per-label traffic vs. declared
// analytic bounds) for scripts/check.sh --report's regression gate.
//
//   ./bench_level1_sort [records] [key_range] [repeats] [--json out.json]
//                       [--report report.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "mpc/cluster.hpp"
#include "mpc/config.hpp"
#include "mpc/ledger.hpp"
#include "mpc/primitives.hpp"
#include "mpc/sample_sort.hpp"
#include "obs/report.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace {

using arbor::mpc::ClusterConfig;
using arbor::mpc::ExecutionPolicy;
using arbor::mpc::MpcContext;
using arbor::mpc::RoundLedger;
using arbor::mpc::Word;

/// Histogram samples observed after `skip` (a snapshot of the sample
/// count taken before a run), so each bench row reports only its own
/// rounds' latencies.
std::vector<double> samples_since(const std::string& name, std::size_t skip) {
  const auto hist = arbor::trace::Tracer::global().metrics().histogram(name);
  if (!hist || hist->samples.size() <= skip) return {};
  return {hist->samples.begin() + static_cast<std::ptrdiff_t>(skip),
          hist->samples.end()};
}

std::size_t sample_count(const std::string& name) {
  const auto hist = arbor::trace::Tracer::global().metrics().histogram(name);
  return hist ? hist->samples.size() : 0;
}

using Record = std::pair<std::uint64_t, std::uint64_t>;  // (key, payload)

struct Outcome {
  std::vector<Record> sorted;
  double secs = 0;
  std::size_t ledger_rounds = 0;
};

Outcome run_sort(const std::vector<Record>& input, ClusterConfig cfg,
                 std::size_t repeats) {
  Outcome out;
  RoundLedger ledger(cfg);
  MpcContext ctx(cfg, &ledger);
  double best = 1e300;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    std::vector<Record> items = input;
    const auto start = std::chrono::steady_clock::now();
    ctx.sort_items_by_key(
        items, [](const Record& r) { return r.first; }, 2, "bench.sort");
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double>(stop - start).count());
    out.sorted = std::move(items);
  }
  out.secs = best;
  out.ledger_rounds = ledger.total_rounds();
  return out;
}

/// One raw record sort at `machines` wide. Returns the flattened sorted
/// output plus the splitter/route traffic peaks.
struct TreeOutcome {
  std::vector<Word> flat;
  double secs = 0;
  std::size_t rounds = 0;
  std::size_t splitter_peak = 0;  ///< max traffic over the splitter rounds
  std::size_t route_peak = 0;     ///< max traffic over the route rounds
};

TreeOutcome run_tree_sort(const std::vector<std::vector<Word>>& slabs,
                          std::size_t machines, std::size_t samples,
                          std::size_t repeats) {
  // The same capacity roof every committed row of this section ran under,
  // so rows and the --report baseline (whose route bound is this S) stay
  // comparable across commits; the splitter rounds use O(√p·s) of it.
  std::size_t total = 0;
  for (const auto& slab : slabs) total += slab.size();
  ClusterConfig cfg{machines,
                    2 * total + machines * (samples + 1) * 2 +
                        machines * machines * 2};
  TreeOutcome out;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    RoundLedger ledger(cfg);
    arbor::mpc::Cluster cluster(cfg, &ledger);
    auto input = slabs;
    const auto start = std::chrono::steady_clock::now();
    const arbor::mpc::RecordSortResult result =
        sample_sort_records(cluster, std::move(input), 2, 2, samples);
    const auto stop = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(stop - start).count();
    if (rep == 0 || secs < out.secs) out.secs = secs;
    out.rounds = result.rounds;
    out.flat.clear();
    for (const auto& slab : result.slabs)
      out.flat.insert(out.flat.end(), slab.begin(), slab.end());
    const arbor::bench::SplitterPeaks peaks =
        arbor::bench::classify_sort_peaks(ledger.peak_traffic_by_label());
    out.splitter_peak = peaks.splitter;
    out.route_peak = peaks.route;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      arbor::bench::take_json_flag(argc, argv, "BENCH_level1_sort.json");
  const std::string report_path = arbor::bench::take_report_flag(argc, argv);
  const std::size_t records =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1'000'000;
  const std::size_t key_range =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : (records / 16 + 1);
  const std::size_t repeats =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 3;

  arbor::bench::banner(
      "E-level1: central stable_sort vs. engine-backed record sample sort",
      "Claim: the distributed Level-1 sort reaches >= 1.5x central "
      "throughput at parallel(8) on a 1M-record input (multicore "
      "hardware; reported regardless), bit-identical output and ledger; "
      "the splitter tree keeps every splitter round O(√p·s) words per "
      "machine at every cluster width.");

  arbor::util::SplitRng rng(17);
  std::vector<Record> input;
  input.reserve(records);
  for (std::size_t i = 0; i < records; ++i)
    input.emplace_back(rng.next_below(key_range), i);

  // A paper-shaped cluster big enough to hold 2 words per record.
  const ClusterConfig base =
      ClusterConfig::for_problem(records, records, 0.5);
  std::printf("records=%zu key_range=%zu repeats=%zu  cluster: M=%zu "
              "S=%zu  (hardware threads: %u)\n\n",
              records, key_range, repeats, base.num_machines,
              base.words_per_machine, std::thread::hardware_concurrency());

  // Metrics on for the whole run: each row's route-round latency p50 comes
  // from the round_us.sample_sort.tree.route histogram the scheduler
  // observes (purely observational — outputs stay bit-identical).
  arbor::trace::Tracer::global().force_metrics(true);
  const std::string kRouteHist = "round_us.sample_sort.tree.route";

  arbor::bench::JsonReport report("level1_sort");
  report.meta("records", records)
      .meta("key_range", key_range)
      .meta("repeats", repeats)
      .meta("machines", base.num_machines)
      .meta("words_per_machine", base.words_per_machine);
  // The effective ARBOR_* knobs are stamped uniformly by write_file.

  struct Config {
    const char* name;
    bool distributed;
    ExecutionPolicy policy;
  };
  const Config configs[] = {
      {"central", false, ExecutionPolicy::serial()},
      {"dist/serial", true, ExecutionPolicy::serial()},
      {"dist/parallel(2)", true, ExecutionPolicy::parallel(2)},
      {"dist/parallel(4)", true, ExecutionPolicy::parallel(4)},
      {"dist/parallel(8)", true, ExecutionPolicy::parallel(8)},
  };

  arbor::bench::Table table({"path", "ms", "Mrec/s", "speedup",
                             "route_p50_us", "ledger_rounds"});
  Outcome central;
  double speedup_at_8 = 0;
  double route_p50_serial = 0;
  double route_p50_par8 = 0;
  for (const Config& config : configs) {
    ClusterConfig cfg = base;
    cfg.distributed_level1 = config.distributed;
    cfg.execution = config.policy;
    const std::size_t route_skip = sample_count(kRouteHist);
    const Outcome out = run_sort(input, cfg, repeats);
    const arbor::bench::Percentiles route_us =
        arbor::bench::percentiles(samples_since(kRouteHist, route_skip));
    if (!config.distributed) {
      central = out;
    } else if (out.sorted != central.sorted ||
               out.ledger_rounds != central.ledger_rounds) {
      std::fprintf(stderr,
                   "FATAL: %s disagrees with the central path "
                   "(output/ledger mismatch)\n",
                   config.name);
      return 1;
    }
    // Row-name lookups, never positional: the config table is reordered
    // freely without silently zeroing the headline numbers.
    if (std::strcmp(config.name, "dist/parallel(8)") == 0) {
      speedup_at_8 = central.secs / out.secs;
      route_p50_par8 = route_us.p50;
    }
    if (std::strcmp(config.name, "dist/serial") == 0)
      route_p50_serial = route_us.p50;
    table.add_row({config.name, arbor::bench::fmt(out.secs * 1e3, 1),
                   arbor::bench::fmt(records / out.secs / 1e6, 2),
                   arbor::bench::fmt(central.secs / out.secs, 2),
                   arbor::bench::fmt(route_us.p50, 1),
                   arbor::bench::fmt(out.ledger_rounds)});
    report.row()
        .set("section", "level1")
        .set("path", config.name)
        .set("backend", config.distributed ? "distributed" : "central")
        .set("variant", "level1")
        .set("threads", config.policy.effective_threads())
        .set("ms", out.secs * 1e3)
        .set("mrec_per_sec", records / out.secs / 1e6)
        .set("speedup_vs_central", central.secs / out.secs)
        .set("route_us_p50", route_us.p50)
        .set("route_us_p95", route_us.p95)
        .set("ledger_rounds", out.ledger_rounds);
  }
  table.print();

  std::printf("\nspeedup at parallel(8) vs central: %.2fx (target >= 1.5x "
              "on multicore hardware)\n",
              speedup_at_8);
  // Route rounds under parallel(8): the pool runs only the compute, and
  // every executor delivers through the same single pass as serial.
  std::printf("route round p50: %.1fus serial, %.1fus at parallel(8) "
              "(%.2fx of serial)\n\n",
              route_p50_serial, route_p50_par8,
              route_p50_serial > 0 ? route_p50_par8 / route_p50_serial : 0.0);
  report.meta("speedup_at_8", speedup_at_8)
      .meta("route_us_p50_serial", route_p50_serial)
      .meta("route_us_p50_parallel8", route_p50_par8);

  // ---------------- splitter tree at several widths
  const std::size_t ab_records = std::min<std::size_t>(records, 200'000);
  const std::size_t samples = 32;
  arbor::bench::Table ab({"machines", "ms", "rounds", "splitter_peak_w",
                          "route_peak_w"});
  for (const std::size_t machines : {64u, 256u, 512u}) {
    std::vector<std::vector<Word>> slabs(machines);
    std::vector<Record> expected;
    const std::size_t per = (ab_records + machines - 1) / machines;
    arbor::util::SplitRng ab_rng(23);
    std::size_t idx = 0;
    for (auto& slab : slabs) {
      const std::size_t count = std::min(per, ab_records - idx);
      slab.reserve(count * 2);
      for (std::size_t i = 0; i < count; ++i, ++idx) {
        slab.push_back(ab_rng.next_below(key_range));
        slab.push_back(idx);
        expected.emplace_back(slab[slab.size() - 2], idx);
      }
      if (idx >= ab_records) break;
    }
    std::sort(expected.begin(), expected.end());

    const TreeOutcome out = run_tree_sort(slabs, machines, samples, repeats);
    bool sorted = out.flat.size() == 2 * expected.size();
    for (std::size_t i = 0; sorted && i < expected.size(); ++i)
      sorted = out.flat[2 * i] == expected[i].first &&
               out.flat[2 * i + 1] == expected[i].second;
    if (!sorted) {
      std::fprintf(stderr,
                   "FATAL: tree sort disagrees with std::sort at "
                   "machines=%zu\n",
                   machines);
      return 1;
    }
    ab.add_row({arbor::bench::fmt(machines),
                arbor::bench::fmt(out.secs * 1e3, 1),
                arbor::bench::fmt(out.rounds),
                arbor::bench::fmt(out.splitter_peak),
                arbor::bench::fmt(out.route_peak)});
    report.row()
        .set("section", "splitter_ab")
        .set("backend", "serial")
        .set("variant", "tree")
        .set("machines", machines)
        .set("records", ab_records)
        .set("samples_per_machine", samples)
        .set("ms", out.secs * 1e3)
        .set("rounds", out.rounds)
        .set("splitter_peak_words", out.splitter_peak)
        .set("route_peak_words", out.route_peak);
  }
  std::printf("splitter tree (%zu records, %zu samples/machine):\n",
              ab_records, samples);
  ab.print();

  if (!json_path.empty()) report.write_file(json_path);
  if (!report_path.empty())
    arbor::obs::ReportLog::global().write_json_file(report_path);
  return 0;
}

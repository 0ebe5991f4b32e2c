// E-engine: round throughput of the execution engine vs. thread count.
//
// Workload: the shared routing storm (bench/engine_storm.hpp) over a
// paper-shaped cluster built for a generator graph with >= 1M edges, run
// two ways per executor: imperatively (one run_round call per round — the
// pre-program dataflow) and as one RoundProgram of machine-independent
// steps.
// Every configuration must produce bit-identical inbox fingerprints and
// identical ledger round/word totals; the bench aborts if any executor
// disagrees. Two smaller sections follow: the splitter-tree sort of single
// words (width-1 records) at 64 and 256 machines (ms, rounds,
// splitter-round traffic peak; aborts unless the output equals
// std::sort), and a checked-execution-off A/B.
//
// Results are also written as machine-readable JSON (default
// BENCH_engine_scaling.json, override with --json PATH) to seed the perf
// trajectory.
//
//   ./bench_engine_scaling [n] [m] [rounds] [--json out.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "engine_storm.hpp"
#include "graph/generators.hpp"
#include "mpc/cluster.hpp"
#include "mpc/ledger.hpp"
#include "mpc/sample_sort.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using arbor::bench::StormOutcome;
  using arbor::mpc::ClusterConfig;
  using arbor::mpc::ExecutionPolicy;

  const std::string json_path =
      arbor::bench::take_json_flag(argc, argv, "BENCH_engine_scaling.json");
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                 : (1u << 18);
  const std::size_t m = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                 : (1u << 20);
  const std::size_t rounds =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 6;

  arbor::bench::banner(
      "E-engine: round throughput vs. thread count",
      "Claim: the flat-buffer parallel engine sustains >= 2x the round "
      "throughput of the serial reference executor at 8 threads — with "
      "bit-identical inboxes and identical ledger totals in every mode, "
      "run imperatively or as one RoundProgram.");

  arbor::util::SplitRng rng(7);
  const arbor::graph::Graph g = arbor::graph::gnm(n, m, rng);
  std::printf("graph: n=%zu m=%zu  (hardware threads: %u)\n\n",
              g.num_vertices(), g.num_edges(),
              std::thread::hardware_concurrency());

  const ClusterConfig base =
      ClusterConfig::for_problem(g.num_vertices(), g.num_edges(), 0.7);
  const auto slabs = arbor::bench::edge_slabs(g, base.num_machines);
  std::printf("cluster: M=%zu machines, S=%zu words, %zu rounds/config\n\n",
              base.num_machines, base.words_per_machine, rounds);

  struct Config {
    const char* name;
    ExecutionPolicy policy;
    bool program;  ///< run as one RoundProgram instead of run_round calls
    arbor::mpc::TransportConfig transport{};  ///< multiprocess backend rows
  };
  const Config configs[] = {
      {"serial", ExecutionPolicy::serial(), false},
      {"serial/program", ExecutionPolicy::serial(), true},
      {"parallel(1)", ExecutionPolicy::parallel(1), false},
      {"parallel(2)", ExecutionPolicy::parallel(2), false},
      {"parallel(4)", ExecutionPolicy::parallel(4), false},
      {"parallel(8)", ExecutionPolicy::parallel(8), false},
      {"parallel(4)/program", ExecutionPolicy::parallel(4), true},
      {"parallel(8)/program", ExecutionPolicy::parallel(8), true},
      // The storm as a distributed program across worker runtimes behind
      // the src/net/ transport — same fingerprints and ledger totals, real
      // address-space isolation (tcp = separate OS processes + sockets).
      {"multiprocess(loopback:2)", ExecutionPolicy::serial(), true,
       arbor::mpc::TransportConfig::loopback(2)},
      {"multiprocess(tcp:2)", ExecutionPolicy::serial(), true,
       arbor::mpc::TransportConfig::tcp(2)},
  };

  arbor::bench::JsonReport report("engine_scaling");
  // hardware_threads is stamped by the JsonReport constructor.
  report.meta("n", g.num_vertices())
      .meta("m", g.num_edges())
      .meta("machines", base.num_machines)
      .meta("words_per_machine", base.words_per_machine)
      .meta("rounds", rounds);

  // Metrics without spans or a trace file: every row's round-latency
  // percentiles come from the same "round_us" histogram the telemetry
  // report quotes. Cleared per row so percentiles are per-configuration.
  arbor::trace::Tracer& tracer = arbor::trace::Tracer::global();
  tracer.force_metrics(true);

  arbor::bench::Table table({"executor", "ms", "rounds/s", "Mwords/s",
                             "speedup", "fingerprint"});
  StormOutcome serial_out;
  double speedup_at_8 = 0;
  for (const Config& config : configs) {
    ClusterConfig cfg = base;
    cfg.execution = config.policy;
    cfg.transport = config.transport;
    tracer.metrics().clear();
    StormOutcome out;
    try {
      out = config.program ? arbor::bench::run_storm_program(slabs, cfg, rounds)
                           : arbor::bench::run_storm(slabs, cfg, rounds);
    } catch (const std::exception& e) {
      // A multiprocess row needs the arbor-worker binary next to this one;
      // skip (loudly) rather than fail the whole sweep without it.
      std::fprintf(stderr, "skipping %s: %s\n", config.name, e.what());
      continue;
    }
    const bool is_reference =
        !config.program && config.policy.mode == ExecutionPolicy::Mode::kSerial;
    if (is_reference) {
      serial_out = out;
    } else {
      if (out.fingerprint != serial_out.fingerprint ||
          out.ledger_rounds != serial_out.ledger_rounds ||
          out.peak_traffic != serial_out.peak_traffic) {
        std::fprintf(stderr,
                     "FATAL: %s disagrees with serial executor "
                     "(fingerprint/ledger mismatch)\n",
                     config.name);
        return 1;
      }
      if (!config.program && config.policy.threads == 8)
        speedup_at_8 = serial_out.secs / out.secs;
    }
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(out.fingerprint));
    const double speedup = serial_out.secs / out.secs;
    table.add_row({config.name, arbor::bench::fmt(out.secs * 1e3, 1),
                   arbor::bench::fmt(out.rounds / out.secs, 1),
                   arbor::bench::fmt(out.words_moved / out.secs / 1e6, 2),
                   arbor::bench::fmt(speedup, 2), fp});
    const arbor::bench::Percentiles lat =
        arbor::bench::metric_percentiles("round_us");
    report.row()
        .set("executor", config.name)
        .set("backend", arbor::bench::backend_name(cfg))
        .set("workers", cfg.transport.in_process()
                            ? std::size_t{0}
                            : cfg.transport.workers)
        .set("mode", config.program ? "program" : "imperative")
        .set("threads", config.policy.effective_threads())
        .set("ms", out.secs * 1e3)
        .set("rounds_per_sec", out.rounds / out.secs)
        .set("mwords_per_sec", out.words_moved / out.secs / 1e6)
        .set("speedup_vs_serial", speedup)
        .set("peak_traffic", out.peak_traffic)
        .set("fingerprint", std::string(fp))
        .set("round_us_p50", lat.p50)
        .set("round_us_p95", lat.p95)
        .set("round_us_p99", lat.p99);
  }
  table.print();

  std::printf("\nspeedup at 8 threads vs serial: %.2fx (target >= 2x on "
              "multicore hardware)\n",
              speedup_at_8);
  report.meta("speedup_at_8", speedup_at_8);

  // -------- splitter tree: the sample sort of single words (width-1
  // records) at several cluster widths. The interesting column is the
  // splitter rounds' per-machine traffic peak (the ledger's per-label
  // peaks): O(√p·s).
  {
    using arbor::mpc::Word;
    const std::size_t samples = 32;
    arbor::bench::Table ab({"machines", "ms", "rounds", "splitter_peak_w"});
    for (const std::size_t machines : {64u, 256u}) {
      const auto word_slabs = [&] {
        arbor::util::SplitRng sort_rng(31);
        std::vector<std::vector<Word>> slabs(machines);
        for (auto& slab : slabs)
          for (int i = 0; i < 256; ++i)
            slab.push_back(sort_rng.next_below(1u << 30));
        return slabs;
      }();
      std::vector<Word> expected;
      for (const auto& slab : word_slabs)
        expected.insert(expected.end(), slab.begin(), slab.end());
      std::sort(expected.begin(), expected.end());
      const std::size_t total = expected.size();
      // Every bucket fits twice over; the splitter rounds need O(√p·s).
      const ClusterConfig sort_cfg{machines, 2 * total};
      arbor::mpc::RoundLedger ledger(sort_cfg);
      arbor::mpc::Cluster cluster(sort_cfg, &ledger);
      const auto start = std::chrono::steady_clock::now();
      const arbor::mpc::RecordSortResult sorted =
          sample_sort_records(cluster, word_slabs, 1, 1, samples);
      const auto stop = std::chrono::steady_clock::now();
      std::vector<Word> flat;
      for (const auto& slab : sorted.slabs)
        flat.insert(flat.end(), slab.begin(), slab.end());
      if (flat != expected) {
        std::fprintf(stderr,
                     "FATAL: tree sort disagrees with std::sort at "
                     "machines=%zu\n",
                     machines);
        return 1;
      }
      const std::size_t splitter_peak =
          arbor::bench::classify_sort_peaks(ledger.peak_traffic_by_label())
              .splitter;
      const double secs = std::chrono::duration<double>(stop - start).count();
      ab.add_row({arbor::bench::fmt(machines),
                  arbor::bench::fmt(secs * 1e3, 1),
                  arbor::bench::fmt(sorted.rounds),
                  arbor::bench::fmt(splitter_peak)});
      report.row()
          .set("section", "splitter_ab")
          .set("backend", "serial")
          .set("machines", machines)
          .set("words", total)
          .set("ms", secs * 1e3)
          .set("rounds", sorted.rounds)
          .set("splitter_peak_words", splitter_peak);
    }
    std::printf("\nsplitter tree (single words, 256 words/machine):\n");
    ab.print();
  }

  // -------- checked-execution A/B: ExecutionPolicy::check must be
  // zero-cost when off. The storm program now declares Ownership families
  // (src/check/ownership.hpp) and the scheduler gained a per-step check
  // branch; with check=false none of that may cost anything. Min-of-3
  // per side against the same serial fingerprint.
  {
    const auto min_storm_secs = [&](const ClusterConfig& cfg) {
      double best = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        const StormOutcome out =
            arbor::bench::run_storm_program(slabs, cfg, rounds);
        if (out.fingerprint != serial_out.fingerprint) {
          std::fprintf(stderr,
                       "FATAL: checked-off A/B run disagrees with the "
                       "serial executor\n");
          std::exit(1);
        }
        best = std::min(best, out.secs);
      }
      return best;
    };
    ClusterConfig base_cfg = base;
    base_cfg.execution = ExecutionPolicy::parallel(4);
    ClusterConfig off_cfg = base;
    off_cfg.execution = ExecutionPolicy::parallel(4).with_check(false);
    const double base_secs = min_storm_secs(base_cfg);
    const double off_secs = min_storm_secs(off_cfg);
    const double ratio = base_secs / off_secs;
    std::printf("\nchecked-off A/B at parallel(4): baseline %.1f ms, "
                "check=false %.1f ms, ratio %.3f (target >= 0.97)\n",
                base_secs * 1e3, off_secs * 1e3, ratio);
    report.row()
        .set("section", "checked_ab")
        .set("backend", "engine")
        .set("variant", "baseline")
        .set("threads", std::size_t{4})
        .set("ms", base_secs * 1e3);
    report.row()
        .set("section", "checked_ab")
        .set("backend", "engine")
        .set("variant", "check_off")
        .set("threads", std::size_t{4})
        .set("ms", off_secs * 1e3);
    report.meta("checked_off_ratio", ratio);
  }

  if (!json_path.empty()) report.write_file(json_path);
  return 0;
}

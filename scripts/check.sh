#!/usr/bin/env bash
# Tier-1 verify: configure, build, test. Standard pre-merge gate — run from
# anywhere; exits non-zero on the first failure.
#
#   scripts/check.sh                     # Release build into ./build
#   scripts/check.sh -DARBOR_WERROR=ON   # extra cmake args pass through
#   scripts/check.sh --tsan              # ThreadSanitizer smoke stage only:
#                                        # builds the 'tsan' preset and runs
#                                        # engine_test, level0_programs_test,
#                                        # level1_distributed_test, net_test,
#                                        # trace_test, check_test,
#                                        # mpc_embedding_test, obs_test
#                                        # (pooled compute over zero-copy
#                                        # inbox spans on a real 4-thread
#                                        # pool, the peel's per-thread
#                                        # outboxes, pooled-context reuse
#                                        # AND the watchdog's monitor thread
#                                        # reading the driver's program and
#                                        # round state must be provably
#                                        # race-free)
#   scripts/check.sh --mp                # multi-process smoke stage only:
#                                        # driver + 2 local arbor-worker
#                                        # processes over loopback TCP run
#                                        # the DeterminismMatrix programs,
#                                        # the distributed Level-1 sorts
#                                        # (level1_distributed_test) + the
#                                        # full net_test suite
#   scripts/check.sh --bench-smoke       # run every bench binary at tiny
#                                        # sizes to catch bench rot (argv
#                                        # drift, aborts, JSON emit)
#   scripts/check.sh --trace-smoke       # telemetry smoke stage only: run
#                                        # the multiprocess storm launcher
#                                        # under ARBOR_TRACE=full and
#                                        # validate the emitted Chrome
#                                        # trace with tools/trace-validate
#                                        # (valid JSON, driver + worker
#                                        # lanes, spans per phase)
#   scripts/check.sh --asan              # Address+UB sanitizer stage only:
#                                        # builds the 'asan' preset
#                                        # (address, undefined and
#                                        # float-cast-overflow, so a huge
#                                        # double cast to size_t halts) and
#                                        # runs the engine, Level-0 program,
#                                        # distributed Level-1 sort, net,
#                                        # trace, checked-execution and
#                                        # graph tests, the MPC colouring
#                                        # (rank-ordered descent, epoch
#                                        # marks) and its cone gauge
#                                        # (directed_exponentiation_test,
#                                        # against the test-only exact
#                                        # gather in its header beside it:
#                                        # rows closed out of order, lane
#                                        # masks, active lists), the
#                                        # forest-arena tests (tree_view,
#                                        # local_prune, exponentiate,
#                                        # partial_layering, property_fuzz),
#                                        # partitioning, pipeline, mpc,
#                                        # list colouring (local_test) and
#                                        # the peel kernels (arboricity:
#                                        # the prefetching level peel and
#                                        # bin sort; density_coreness:
#                                        # hostile factors,
#                                        # layering, orientation_mpc,
#                                        # orientation_coloring), and the
#                                        # multi-round programs over loopback
#                                        # and tcp that read inboxes after
#                                        # the program ends (mpc_embedding,
#                                        # obs: a dangling inbox span is a
#                                        # heap-use-after-free) clean
#   scripts/check.sh --lint              # style wall only: build and run
#                                        # tools/arbor_lint over src/ (raw
#                                        # getenv, unnamed distributable
#                                        # steps, rand()/time(), registered
#                                        # programs without CostModels)
#   scripts/check.sh --report            # observatory stage only: run the
#                                        # storm launcher and the distributed
#                                        # Level-1 sort bench under
#                                        # ARBOR_TRACE=full, validate the
#                                        # bounds headroom in the RunReport
#                                        # logs, and diff them against the
#                                        # committed baselines/ documents
#                                        # with tools/arbor_report
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

if [[ "${1:-}" == "--mp" ]]; then
  shift
  cmake -B build -S . "$@"
  cmake --build build -j"${JOBS}" --target arbor-worker engine_multiprocess \
    net_test level0_programs_test level1_distributed_test
  echo "== mp: storm launcher, driver + 2 workers over loopback TCP =="
  ./build/engine_multiprocess --transport tcp:2
  echo "== mp: DeterminismMatrix programs over tcp:2 (env override) =="
  ARBOR_TRANSPORT=tcp:2 ctest --test-dir build \
    -R 'DeterminismMatrix|RoundProgramReuse' --output-on-failure -j"${JOBS}"
  echo "== mp: distributed Level-1 sorts over tcp:2 (the context pools one"
  echo "       live 2-process worker group that every internal sort reuses;"
  echo "       DistributedSortPooling asserts zero respawns) =="
  ARBOR_TRANSPORT=tcp:2 ARBOR_DISTRIBUTED_LEVEL1=1 ctest --test-dir build \
    -R 'DistributedSort|DistributedAggregate|DistributedCount|PipelineEquivalence' \
    --output-on-failure -j"${JOBS}"
  echo "== mp: net_test (wire fuzz, transport matrix, failure handling) =="
  ctest --test-dir build \
    -R 'WireFormat|EnvOverrides|TransportDeterminismMatrix|MultiProcessBackend|FailureHandling' \
    --output-on-failure -j"${JOBS}"
  echo "== mp: clean =="
  exit 0
fi

if [[ "${1:-}" == "--bench-smoke" ]]; then
  shift
  cmake -B build -S . "$@"
  cmake --build build -j"${JOBS}" --target arbor-worker
  # Build every bench binary. A compile failure FAILS the stage — catching
  # bench rot is the point. Only bench_kernels may be absent (it needs
  # Google Benchmark; cmake skips configuring it), and only when cmake
  # really did not configure it.
  for src in bench/bench_*.cpp; do
    name="$(basename "${src}" .cpp)"
    if [[ "${name}" == "bench_kernels" ]] && \
       ! cmake --build build --target help 2>/dev/null | \
         grep -q "^\.\.\. ${name}$"; then
      echo "== bench-smoke: skipping ${name} (target not configured) =="
      continue
    fi
    cmake --build build -j"${JOBS}" --target "${name}"
    [[ -x "build/${name}" ]] || { echo "missing build/${name}"; exit 1; }
    # Tiny sizes for the parameterized benches; the rest run their fixed
    # (small) built-in workloads. JSON goes to a scratch dir so the smoke
    # never clobbers committed BENCH_*.json trajectories.
    smoke_dir="build/bench-smoke"
    mkdir -p "${smoke_dir}"
    case "${name}" in
      bench_engine_scaling)
        args=(4096 16384 3 --json "${smoke_dir}/${name}.json") ;;
      bench_level1_sort)
        args=(20000 512 1 --json "${smoke_dir}/${name}.json") ;;
      bench_kernels)
        args=(--benchmark_min_time=0.01) ;;
      *)
        args=() ;;
    esac
    echo "== bench-smoke: ${name} ${args[*]:-} =="
    # ${args[@]+...} (not :-) so an empty array expands to ZERO arguments,
    # never a single "" positional that strtoull would read as 0.
    "./build/${name}" ${args[@]+"${args[@]}"} > "${smoke_dir}/${name}.out" || {
      echo "bench-smoke: ${name} FAILED; last lines:"
      tail -20 "${smoke_dir}/${name}.out"
      exit 1
    }
  done
  echo "== bench-smoke: clean =="
  exit 0
fi

if [[ "${1:-}" == "--trace-smoke" ]]; then
  shift
  cmake -B build -S . "$@"
  cmake --build build -j"${JOBS}" \
    --target arbor-worker engine_multiprocess trace-validate trace_test
  smoke_dir="build/trace-smoke"
  mkdir -p "${smoke_dir}"
  trace_json="${smoke_dir}/engine_multiprocess.json"
  echo "== trace-smoke: storm over tcp:2 with ARBOR_TRACE=full =="
  ARBOR_TRACE="full:${trace_json}" \
    ./build/engine_multiprocess --transport tcp:2
  [[ -f "${trace_json}" ]] || { echo "no trace written at ${trace_json}"; exit 1; }
  echo "== trace-smoke: validating ${trace_json} =="
  ./build/trace-validate "${trace_json}" --min-events 10 --expect-pids 3 \
    --expect "driver,worker 0,worker 1,compute,serialize,deliver" \
    --metrics "round_us"
  echo "== trace-smoke: trace_test (perturbation matrix + telemetry) =="
  ctest --test-dir build -R 'Trace|Metrics|Percentile' \
    --output-on-failure -j"${JOBS}"
  echo "== trace-smoke: clean =="
  exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
  shift
  cmake --preset tsan "$@"
  cmake --build build-tsan -j"${JOBS}" \
    --target engine_test level0_programs_test level1_distributed_test \
             net_test trace_test check_test mpc_embedding_test obs_test \
             arbor-worker
  echo "== tsan: engine_test (Scheduler.Pooled*WithRealThreads drive the"
  echo "         pooled compute over zero-copy inbox spans on an"
  echo "         unclamped 4-thread pool) =="
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/engine_test
  echo "== tsan: level0_programs_test (DeterminismMatrix's parallel(4)"
  echo "         rows run every program's compute on the pool over the"
  echo "         zero-copy spans one delivery pass staged: race-free) =="
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/level0_programs_test
  echo "== tsan: level1_distributed_test (pooled-context reuse: live"
  echo "         worker groups + retained arenas across repeated sorts"
  echo "         must be race-free) =="
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/level1_distributed_test
  echo "== tsan: net_test (loopback transport threads + tcp groups) =="
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/net_test
  echo "== tsan: trace_test (traced programs: per-thread span buffers and"
  echo "         the shared metrics registry must be provably race-free) =="
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/trace_test
  echo "== tsan: check_test (checked-mode programs: the Monitor's"
  echo "         owned_span gate and loopback monitors must be race-free) =="
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/check_test
  echo "== tsan: mpc_embedding_test (the peel step's per-thread outboxes,"
  echo "         reused across passes and calls under parallel(4)) =="
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/mpc_embedding_test
  echo "== tsan: obs_test (the watchdog's monitor thread reads the"
  echo "         driver's program and round state while steps run) =="
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/obs_test
  echo "== tsan: clean =="
  exit 0
fi

if [[ "${1:-}" == "--asan" ]]; then
  shift
  cmake --preset asan "$@"
  cmake --build build-asan -j"${JOBS}" \
    --target engine_test level0_programs_test level1_distributed_test \
             net_test trace_test check_test graph_test \
             coloring_mpc_test partitioning_test pipeline_test \
             tree_view_test local_prune_test exponentiate_test \
             partial_layering_test property_fuzz_test mpc_test local_test \
             directed_exponentiation_test arboricity_test \
             density_coreness_test layering_test orientation_mpc_test \
             orientation_coloring_test mpc_embedding_test obs_test \
             arbor-worker
  # abort_on_error so a worker PROCESS dying on a report fails the driver
  # visibly; detect_leaks stays on (the default) — the wall is the point.
  for t in engine_test level0_programs_test level1_distributed_test \
           net_test trace_test check_test graph_test \
           coloring_mpc_test partitioning_test pipeline_test \
           tree_view_test local_prune_test exponentiate_test \
           partial_layering_test property_fuzz_test mpc_test local_test \
           directed_exponentiation_test arboricity_test \
           density_coreness_test layering_test orientation_mpc_test \
           orientation_coloring_test mpc_embedding_test obs_test; do
    echo "== asan: ${t} =="
    ASAN_OPTIONS="abort_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
      "./build-asan/${t}"
  done
  echo "== asan: clean =="
  exit 0
fi

if [[ "${1:-}" == "--report" ]]; then
  shift
  cmake -B build -S . "$@"
  cmake --build build -j"${JOBS}" --target arbor-worker engine_multiprocess \
    bench_level1_sort arbor_report trace-validate
  report_dir="build/report"
  mkdir -p "${report_dir}"

  echo "== report: storm over loopback:2 + tcp:2 under ARBOR_TRACE=full =="
  storm_trace="${report_dir}/storm_trace.json"
  storm_report="${report_dir}/report_storm.json"
  ARBOR_TRACE="full:${storm_trace}" \
    ./build/engine_multiprocess --report "${storm_report}"
  ./build/trace-validate "${storm_trace}" --min-events 10 --expect-pids 3 \
    --metrics "round_us,cluster.rounds.net.storm.scatter"

  echo "== report: distributed Level-1 sort bench under ARBOR_TRACE=full =="
  sort_report="${report_dir}/report_level1_sort.json"
  ARBOR_DISTRIBUTED_LEVEL1=1 ARBOR_TRACE=full \
    ./build/bench_level1_sort 20000 512 1 \
    --json "${report_dir}/BENCH_level1_sort.json" --report "${sort_report}" \
    > "${report_dir}/bench_level1_sort.out" || {
    echo "report: bench_level1_sort FAILED; last lines:"
    tail -20 "${report_dir}/bench_level1_sort.out"
    exit 1
  }

  echo "== report: rendering ${storm_report} =="
  ./build/arbor_report show "${storm_report}"
  echo "== report: rendering ${sort_report} =="
  ./build/arbor_report show "${sort_report}"

  echo "== report: regression gate vs. committed baselines/ =="
  ./build/arbor_report diff baselines/report_storm.json "${storm_report}" \
    --threshold 0.10
  ./build/arbor_report diff baselines/report_level1_sort.json \
    "${sort_report}" --threshold 0.10
  echo "== report: clean =="
  exit 0
fi

if [[ "${1:-}" == "--lint" ]]; then
  shift
  cmake -B build -S . "$@"
  cmake --build build -j"${JOBS}" --target arbor_lint
  echo "== lint: arbor_lint over src/ =="
  ./build/arbor_lint src
  echo "== lint: clean =="
  exit 0
fi

cmake -B build -S . "$@"
cmake --build build -j"${JOBS}"

# Tier-1 runs twice: once on the central Level-1 reference path, once with
# the engine-backed distributed Level-1 primitives. The two are
# bit-identical by design, so the whole suite must pass under both.
echo "== tier-1: distributed Level-1 OFF (central reference path) =="
ARBOR_DISTRIBUTED_LEVEL1=0 ctest --test-dir build --output-on-failure -j"${JOBS}"
echo "== tier-1: distributed Level-1 ON (engine-backed sample sort) =="
ARBOR_DISTRIBUTED_LEVEL1=1 ctest --test-dir build --output-on-failure -j"${JOBS}"

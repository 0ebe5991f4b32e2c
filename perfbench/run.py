#!/usr/bin/env python3
"""Build and run one workload of the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
library, arbor-worker and the perfbench driver into .bench_build/perfbench;
later runs only re-check the build. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics:

  --trace 0  untraced perfbench runs: the end-to-end metrics of
             BENCHMARK.json. One process measures the jobs for --seconds;
             set-up time is the median over it and four set-up-only
             processes.
  --trace 1  an untraced and an ARBOR_TRACE=full perfbench run of the same
             seed, half of --seconds each: the per-layer metrics, and the
             tracing overhead as the traced over the untraced job medians.

Every exact count (rounds, colors, out-degree, cone sizes, ...) must repeat
across reps, processes, and the traced and untraced runs; the traced run's
per-layer counts (words, frames, cache hits, ...) across its reps. Counts
must also repeat in every earlier run of the same workload and seed of the
same built program in this checkout. On drift the run exits 3 and names
the count. perfbench/README.md documents the workloads.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BIN_DIR = BUILD / "bin"
RUNS = BUILD / "runs"
WORKLOADS = ("ba_central", "gnm_dist", "level0_inproc", "level0_tcp")
# Set-ups per untraced run, one per process; set-up time is their median.
SETUPS = 5
CHILD_TIMEOUT_S = 170
# Printed by tcp workers when the driver closes their group at teardown.
TEARDOWN_NOTICE = re.compile(r"lost worker \d+: connection closed")


class BenchError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(2, f"no repository sources at {ROOT}: the benchmark "
                            "builds the library from CMakeLists.txt and src/")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            raise BenchError(2, f"build step failed: {' '.join(cmd)}")
    for name in ("perfbench", "arbor-worker"):
        if not os.access(BIN_DIR / name, os.X_OK):
            raise BenchError(2, f"the build left no executable {name} in "
                                f"{BIN_DIR}")


def run_child(args, env_extra, json_path):
    """Runs perfbench in its own session and returns its JSON report.

    The session holds perfbench and the arbor-worker processes it spawns;
    whatever of it is left when perfbench ends (or times out) is killed
    and waited for.
    """
    env = dict(os.environ, **env_extra)
    if json_path.exists():
        json_path.unlink()
    cmd = [str(BIN_DIR / "perfbench"), *args, "--json", str(json_path)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise BenchError(1, f"perfbench did not finish within "
                            f"{CHILD_TIMEOUT_S} s: {' '.join(args)}")
    finally:
        reap_session(proc.pid)
    notices = 0
    for line in (out + err).splitlines():
        if TEARDOWN_NOTICE.search(line):
            notices += 1
        else:
            print(line, file=sys.stderr)
    if notices:
        log(f"{notices} worker teardown notice(s) (not failures)")
    if proc.returncode != 0:
        raise BenchError(proc.returncode, f"perfbench exited with "
                                          f"{proc.returncode}: {' '.join(args)}")
    with open(json_path) as f:
        return json.load(f)["meta"]


def reap_session(sid):
    """Waits up to 5 s for the session's processes to end, then kills them."""
    deadline = time.monotonic() + 5
    while True:
        try:
            os.killpg(sid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            os.killpg(sid, signal.SIGKILL)
            deadline = time.monotonic() + 5
        time.sleep(0.05)


def counts_of(meta):
    return {k: v for k, v in meta.items() if k.startswith("count.")}


def layer_counts_of(meta):
    """The count-unit per-layer metrics of a traced run."""
    return {f"layer.{m['name']}": meta[f"layer.{m['name']}"]
            for m in declared_metrics(True)
            if m["unit"] == "count" and f"layer.{m['name']}" in meta}


def check_counts(want, got, where):
    for name in sorted(set(want) | set(got)):
        if want.get(name) != got.get(name):
            raise BenchError(3, f"count drift: {name.split('.', 1)[1]} = "
                                f"{got.get(name)} in {where}, expected "
                                f"{want.get(name)}")


def program_digest():
    """A digest of the built executables, so that saved counts are only
    compared between runs of the same program."""
    digest = hashlib.sha256()
    for name in ("perfbench", "arbor-worker"):
        digest.update((BIN_DIR / name).read_bytes())
    return digest.hexdigest()[:16]


def guard_across_runs(workload, seed, counts):
    """Every run of one workload and seed of one built program counts alike.

    An untraced run saves and checks the job counts, a traced run the
    per-layer counts too; a count is checked once a run has saved it.
    """
    path = BUILD / "counts" / f"{workload}-{seed}-{program_digest()}.json"
    saved = {}
    if path.exists():
        with open(path) as f:
            saved = json.load(f)
        check_counts({k: v for k, v in saved.items() if k in counts},
                     {k: v for k, v in counts.items() if k in saved},
                     f"this run (an earlier run of seed {seed} of the same "
                     f"program counted otherwise)")
    if set(counts) - set(saved):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({**saved, **counts}, f, indent=1, sort_keys=True)


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        raise BenchError(2, "--seed must be >= 0 and --seconds >= 1")

    build()
    RUNS.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    if args.trace == 0:
        setups = [run_child(common + ["--seconds", "0"], {},
                            RUNS / f"{tag}-setup{i}.json")
                  for i in range(SETUPS - 1)]
        meta = run_child(common + ["--seconds", str(args.seconds)], {},
                         RUNS / f"{tag}-timed.json")
        for i, setup in enumerate(setups):
            check_counts(counts_of(meta), counts_of(setup), f"set-up run {i}")
        runs = setups + [meta]
        counts = counts_of(meta)
        values = {k[len("e2e."):]: v for k, v in meta.items()
                  if k.startswith("e2e.")}
        values["setup_s"] = statistics.median(r["e2e.setup_s"] for r in runs)
    else:
        half = str(max(1, args.seconds // 2))
        plain = run_child(common + ["--seconds", half], {},
                          RUNS / f"{tag}-untraced.json")
        traced = run_child(
            common + ["--seconds", half, "--traced"],
            {"ARBOR_TRACE": f"full:{RUNS / f'{tag}-trace.json'}"},
            RUNS / f"{tag}-traced.json")
        check_counts(counts_of(plain), counts_of(traced), "the traced run")
        runs = [plain, traced]
        counts = {**counts_of(traced), **layer_counts_of(traced)}
        values = {k[len("layer."):]: v for k, v in traced.items()
                  if k.startswith("layer.")}
        for job, metric in ((plain["job_a"], "orient_or_sort"),
                            (plain["job_b"], "color_or_peel")):
            base = plain[f"job.{job}.rescaled_ms"]
            values[f"trace.{metric}_overhead_pct"] = (
                100.0 * (traced[f"job.{job}.rescaled_ms"] / base - 1.0))

    guard_across_runs(args.workload, args.seed, counts)
    metrics = {}
    for m in declared_metrics(args.trace):
        if m["name"] not in values:
            raise BenchError(1, f"perfbench reported no {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log(str(e))
        sys.exit(e.code)

"""Run one workload of the muskat benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ./src and
the metric names come from ./BENCHMARK.json.  Each measured run happens in
a fresh worker process, one at a time (closed loop, single client), until
``--seconds`` have passed and at least MIN_RUNS runs are done.

``--trace 0`` reports the end-to-end metrics: medians over the runs of the
wall time, set-up time, CPU time and peak RSS.  ``--trace 1`` alternates
untraced and traced runs, reports the per-layer metrics of the traced ones
(median per metric), the tracing overhead, and the kernel size sweep.
Every run's output is checked; a run whose check fails counts in
``failed``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
record, with the provenance block and each run's raw numbers, goes to
``bench/out/``; traced runs write their spans there too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKER = os.path.join(BENCH_DIR, "worker.py")
#: bytecode cache of every module a worker imports, filled before the first
#: measured run, so that ``setup_s`` times imports and not compilation
PYCACHE_DIR = os.path.join(OUT_DIR, "pycache")

MIN_RUNS = 3
#: no run starts once the next one would likely end after this many seconds;
#: a traced measurement stops earlier to leave room for the size sweep
DEADLINE_S = 150.0
SWEEP_RESERVE_S = 50.0
WORKER_TIMEOUT_S = 170.0

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
#: unless the caller sets them, workers run BLAS on one thread: on a two-CPU
#: host a second BLAS thread did not shorten the runs, doubled their CPU time
#: and made them slow down whenever the other CPU was busy
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (no sources, bad spec); nothing is reported."""


def load_spec(root: str) -> dict:
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc
    for key, limit in (("end_to_end", MAX_END_TO_END), ("per_layer", MAX_PER_LAYER)):
        names = [m["name"] for m in spec[key]]
        if len(names) > limit or len(set(names)) != len(names):
            raise BenchError(f"{key}: more than {limit} metrics or a repeated name")
        bad = [n for n in names if not NAME_RE.fullmatch(n)]
        if bad:
            raise BenchError(f"{key}: invalid metric names {bad}")
    return spec


def worker_env() -> dict[str, str]:
    """Environment of the worker processes.

    Workers read and write bytecode in PYCACHE_DIR whatever the caller's
    PYTHONDONTWRITEBYTECODE says, and BLAS thread counts default to 1.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = PYCACHE_DIR
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    return env


def provenance(root: str, env: dict[str, str]) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_build = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a checkout without git metadata; source_sha256 identifies it
    digest = hashlib.sha256()
    source = os.path.join(root, "src", "muskat")
    for name in sorted(os.listdir(source)):
        if name.endswith(".py"):
            with open(os.path.join(source, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_build": blas_build,
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "muskat_threads": env.get("MUSKAT_THREADS"),
        "platform": platform.platform(),
    }


class Runner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, args, root: str, work_root: str):
        self.args = args
        self.root = root
        self.work_root = work_root
        self.count = 0
        self.env = worker_env()

    def warm_bytecode_cache(self) -> None:
        """Import everything a worker imports once, unmeasured, to fill PYCACHE_DIR."""
        env = dict(self.env, PYTHONPATH=os.pathsep.join(
            [os.path.join(self.root, "src"), BENCH_DIR]))
        proc = subprocess.run([sys.executable, "-c", "import worker, workloads, sweep"],
                              cwd=self.root, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"cannot import the benchmark's modules: {proc.stderr.strip()}")

    def start(self, mode: str, trace: int = 0) -> dict:
        self.count += 1
        run_id = f"{self.args.workload}-s{self.args.seed}-t{self.args.trace}-r{self.count}"
        workdir = tempfile.mkdtemp(prefix="run-", dir=self.work_root)
        result_path = os.path.join(workdir, "result.json")
        spans_path = os.path.join(OUT_DIR, "spans", f"{run_id}.jsonl")
        command = [
            sys.executable, WORKER, "--mode", mode, "--workload", self.args.workload,
            "--seed", str(self.args.seed), "--trace", str(trace), "--tiny", str(self.args.tiny),
            "--run-id", run_id, "--workdir", workdir, "--spans", spans_path,
            "--result", result_path,
        ]
        try:
            proc = subprocess.run(command, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=WORKER_TIMEOUT_S)
            if proc.returncode != 0 or not os.path.exists(result_path):
                tail = proc.stderr.strip().splitlines()[-5:]
                return {"failures": [f"worker exit {proc.returncode}: " + " | ".join(tail)]}
            with open(result_path, encoding="utf-8") as handle:
                result = json.load(handle)
        except subprocess.TimeoutExpired:
            return {"failures": [f"worker timed out after {WORKER_TIMEOUT_S} s"]}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        result["run_id"] = run_id
        return result


def median_of(results: list[dict], key: str) -> float:
    values = [r[key] for r in results if key in r]
    if not values:
        raise BenchError(f"no run produced {key}")
    return statistics.median(values)


def measure(runner: Runner, seconds: float, trace: int) -> tuple[list[dict], list[dict]]:
    """Closed-loop runs until ``seconds`` passed and MIN_RUNS are done.

    Traced measurement alternates untraced and traced runs, so both see the
    same machine state; returns (untraced, traced) results.
    """
    untraced, traced = [], []
    deadline = DEADLINE_S - (SWEEP_RESERVE_S if trace else 0.0)
    began = time.perf_counter()
    longest = 0.0
    while True:
        start = time.perf_counter()
        untraced.append(runner.start("run"))
        if trace:
            traced.append(runner.start("run", trace=1))
        longest = max(longest, time.perf_counter() - start)
        elapsed = time.perf_counter() - began
        if elapsed + longest > deadline:
            break
        if elapsed >= seconds and len(untraced) >= MIN_RUNS:
            break
        if runner.args.tiny:
            break
    return untraced, traced


def end_to_end(runs: list[dict]) -> dict[str, float]:
    ok = [r for r in runs if not r["failures"]] or runs
    return {
        "run_s": median_of(ok, "run_s"),
        "setup_s": median_of(runs, "setup_s"),
        "cpu_s": median_of(ok, "cpu_s"),
        "peak_rss_mb": median_of(ok, "peak_rss_mb"),
    }


def per_layer(runner: Runner, untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    ok = [r for r in traced if "layers" in r]
    if not ok:
        raise BenchError("no traced run completed")
    metrics = {name: statistics.median(r["layers"][name] for r in ok)
               for name in ok[0]["layers"]}
    metrics["trace.overhead_frac"] = (
        median_of(ok, "run_s") / median_of(untraced, "run_s") - 1.0)
    sweep = runner.start("sweep")
    if "layers" not in sweep:
        raise BenchError(f"sweep failed: {sweep['failures']}")
    metrics.update(sweep["layers"])
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", type=int, choices=(0, 1), default=0,
                        help="one run at a tiny problem size (the smoke test)")
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "muskat", "__init__.py")):
            raise BenchError(f"no muskat sources under {root}/src; run from a checkout root")
        spec = load_spec(root)
        workloads = [w["name"] for w in spec["workloads"]]
        if args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {workloads}")
        info = provenance(root, worker_env())
        os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
        work_root = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
        try:
            runner = Runner(args, root, work_root)
            runner.warm_bytecode_cache()
            untraced, traced = measure(runner, args.seconds, args.trace)
            if args.trace:
                metrics = per_layer(runner, untraced, traced)
                wanted = spec["per_layer"]
            else:
                metrics = end_to_end(untraced)
                wanted = spec["end_to_end"]
        finally:
            shutil.rmtree(work_root, ignore_errors=True)
        names = [m["name"] for m in wanted]
        if sorted(names) != sorted(metrics):
            raise BenchError(f"computed metrics {sorted(metrics)} differ from BENCHMARK.json")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    runs = untraced + traced
    failed = sum(1 for r in runs if r["failures"])
    missing = sorted({m for r in traced for m in r.get("missing_spans", [])})
    print("provenance " + json.dumps(info, sort_keys=True))
    if info["muskat_threads"] is not None:
        print(f"warning: MUSKAT_THREADS={info['muskat_threads']} is set, so rhs runs with "
              f"that many workers instead of the default 1")
    if missing:
        print(f"warning: no such function to trace, its layer reads 0: {', '.join(missing)}")
    for r in runs:
        for failure in r["failures"]:
            print(f"FAILED {r.get('run_id', 'run')}: {failure}")
    print(f"workload {args.workload} seed {args.seed}: {len(runs)} runs, {failed} failed, "
          f"failed_frac {failed / len(runs):.4g}")
    for m in wanted:
        print(f"metric {m['name']} = {metrics[m['name']]!r} {m['unit']}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "provenance": info,
              "failed_frac": failed / len(runs), "metrics": metrics, "runs": runs}
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}{'-tiny' if args.tiny else ''}"
    with open(os.path.join(OUT_DIR, name + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    units = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

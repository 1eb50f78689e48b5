"""Smoke test of the benchmark itself: every workload once at a tiny size.

    python3 bench/smoke.py

Run from the root of a checkout; takes about a minute.  For each workload
it runs ``run.py --tiny 1`` with tracing off and on and checks the last
output line: its keys, that the metric names and units are exactly those
of BENCHMARK.json, that every value is a finite number, and that the output
gates passed.  It then checks that each gate rejects a corrupted output,
and that the benchmark refuses to run where the program's sources are
missing.  Exits 0 when all checks hold and prints each failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
#: layer split the workloads are built for: rhs calls per accepted step
#: (4 for fixed RK4, 12 for step doubling) and no stepping in the toolbox
LAYER_SPLIT = {
    "turnover_n512": {"integrator.rhs_per_accepted_step": 4.0},
    "decay_adaptive_n128": {"integrator.rhs_per_accepted_step": 12.0},
    "toolbox_n256": {"integrator.step.calls": 0.0, "integrator.accepted_steps": 0.0},
}


def run_bench(cwd: str, workload: str, trace: int):
    command = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny", "1"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_output(proc, workload: str, trace: int, spec: dict) -> list[str]:
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append(f"{label}: attempted/failed are not counts")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{label}: gates failed: {proc.stdout.strip()[-800:]}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"{label}: metric names differ: {sorted(set(got) ^ set(wanted))}")
    for name, entry in got.items():
        value = entry.get("value")
        if entry.get("unit") != wanted.get(name):
            problems.append(f"{label}: {name} has unit {entry.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r} is not a finite number")
        if not trace and not value > 0:
            problems.append(f"{label}: end-to-end {name} = {value!r} is not positive")
    if trace:
        for name, expected in LAYER_SPLIT[workload].items():
            value = got.get(name, {}).get("value")
            if value != expected:
                problems.append(f"{label}: {name} = {value!r}, expected {expected}")
    lines = [line for line in proc.stdout.splitlines() if line.startswith("metric ")]
    if len(lines) != len(wanted):
        problems.append(f"{label}: {len(lines)} metric lines for {len(wanted)} metrics")
    return problems


def check_gates_reject_corruption() -> list[str]:
    """Each gate must fail on an output that is slightly wrong."""
    import numpy as np

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)
    import workloads

    problems = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        turnover = workloads.Turnover()
        inputs = turnover.setup(0, True, workdir)
        status = turnover.run(inputs)
        path = os.path.join(inputs.out_dir, "snapshot_final.json")
        with open(path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        values = snapshot["p2"]
        largest = max(range(len(values)), key=lambda i: abs(values[i]))
        values[largest] *= 1.0 + 1e-6
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle)
        if not turnover.check(inputs, status):
            problems.append("turnover gate accepted a final snapshot off by 1e-6")

    decay = workloads.DecayAdaptive()
    inputs = decay.setup(0, True, "")
    trajectory = decay.run(inputs)
    for t, state, _ in trajectory.records:  # one percent of a unit of extra decay
        state.p2 *= np.exp(-0.01 * t)
    if not decay.check(inputs, trajectory):
        problems.append("decay gate accepted decay rates off by 0.01")

    toolbox = workloads.Toolbox()
    inputs = toolbox.setup(0, True, "")
    def spike(values, rel=1e-7):  # the largest element off by rel of itself
        values = values.copy()
        values[np.argmax(np.abs(values))] *= 1.0 + rel
        return values

    corruptions = {
        "a_tilde": lambda out: spike(out["a_tilde"]),
        "lambda_gamma": lambda out: out["lambda_gamma"] * (1.0 + 1e-7),
        "pv_cot_integral": lambda out: out["pv_cot_integral"] + 1e-6,
    }
    for name, corrupt in corruptions.items():
        outputs = toolbox.run(inputs)
        outputs[0][name] = corrupt(outputs[0])
        if not toolbox.check(inputs, outputs):
            problems.append(f"toolbox gate accepted a corrupted {name}")
    for part in ("dangerous", "safe", "easy"):
        outputs = toolbox.run(inputs)
        d4 = outputs[0]["rhs_d4_decomposition"]
        target = d4.safe[4] if part == "safe" else getattr(d4, part)
        target.d1 = spike(target.d1, 1e-3 if part == "easy" else 1e-7)  # easy: loose gate
        if not toolbox.check(inputs, outputs):
            problems.append(f"toolbox gate accepted a corrupted {part} part of "
                            "rhs_d4_decomposition")
    return problems


def check_refuses_without_sources(spec: dict) -> list[str]:
    """In a directory with only BENCHMARK.json and bench/, run.py must fail quietly."""
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"benchmark without sources: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    os.makedirs(OUT_DIR, exist_ok=True)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_output(run_bench(ROOT, workload, trace), workload, trace, spec)
            print(f"ran {workload} trace={trace}", flush=True)
    problems += check_gates_reject_corruption()
    problems += check_refuses_without_sources(spec)
    for problem in problems:
        print(f"SMOKE FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""One measured run of a workload in a fresh process; writes its result as JSON.

Started by ``run.py`` with the checkout root as working directory, never by
hand.  A fresh process per run makes ``peak_rss_mb`` the peak of that run
alone and lets ``setup_s`` include the import of numpy and muskat.

Modes: ``run`` sets up, runs and checks the workload; ``sweep`` runs the
kernel size sweep.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("run", "sweep"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--result", required=True)
    return parser.parse_args(argv)


def measure(args) -> dict:
    source = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, source)
    import muskat

    if not os.path.abspath(muskat.__file__).startswith(source + os.sep):
        raise RuntimeError(f"imported muskat from {muskat.__file__}, not from {source}")
    if args.mode == "sweep":
        from sweep import run_sweep

        return {"layers": run_sweep(args.run_id, bool(args.tiny))}

    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = Tracer(args.run_id) if args.trace else None
    if tracer is not None:
        tracer.install()
    failures = []
    try:
        inputs = workload.setup(args.seed, bool(args.tiny), args.workdir)
        result = {"setup_s": time.perf_counter() - START}
        cpu0 = _cpu_s()
        wall0 = time.perf_counter()
        try:
            output = workload.run(inputs)
        except Exception:  # a crash in the program is a failed run, not a benchmark error
            failures.append(traceback.format_exc(limit=3))
        result["run_s"] = time.perf_counter() - wall0
        result["cpu_s"] = _cpu_s() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not failures:
        try:
            failures = workload.check(inputs, output)
        except Exception:
            failures.append(traceback.format_exc(limit=3))
    result["peak_rss_mb"] = _peak_rss_mb()
    result["failures"] = failures
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result["run_s"])
        result["missing_spans"] = tracer.missing
        tracer.write(args.spans)
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    result = measure(args)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

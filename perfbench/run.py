"""hubfleet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  One
process and one thread drive the public API in a closed loop with one
caller: each op starts when the previous one ends.  Inputs come from the
seed and are built before timing starts; every answer is checked against
the benchmark's own reference (reference.py) outside the timed region.

--trace 0 prints the end-to-end metrics: setup_s, ops_per_s, op_p50_ms,
op_p90_ms, peak_rss_mb (error_rate is printed and carried by the result's
``failed``/``attempted``).  --trace 1 runs a fixed op list twice untraced
and twice traced, alternating, and prints the per-layer metrics; the traced
counts must repeat exactly.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads, in this process and the
# interpreters it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"   # spans and the count record; never committed

# Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 5
# The timed loop also runs until this many ops are done, so that at least
# 10 latency samples lie beyond op_p90_ms.
MIN_OPS = 100
# Traced passes (each after an untraced one); their counts must agree.
TRACE_PASSES = 2
# The self-test derives wrong answers from this many first correct ones.
SELF_TEST_ANSWERS = 4

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))
TIMES = (("weber.solve_ms", "weber.solve"),
         ("convolution.marginal_ms", "convolution.marginal"),
         ("convolution.convolve_ms", "convolution.convolve"),
         ("star.analyze_ms", "star.analyze"), ("star.table_ms", "star.table"),
         ("star.grid_ms", "star.grid"), ("fleet.min_trucks_ms", "fleet.min_trucks"),
         ("fleet.rate_search_ms", "fleet.rate_search"),
         ("oracle.simulate_ms", "oracle.simulate"))
CALLS = (("convolution.marginal_calls", "convolution.marginal"),
         ("convolution.convolve_calls", "convolution.convolve"),
         ("star.analyze_calls", "star.analyze"),
         ("fleet.min_trucks_calls", "fleet.min_trucks"))
COUNTERS = ("weber.iterations", "convolution.range_errors", "star.columns_built",
            "star.max_table_population", "fleet.fleet_sizes_tried", "oracle.des_events")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def fresh_import_s(module: str) -> float:
    """Seconds to import ``module`` in a new interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, digest: str) -> dict:
    versions = {pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click")}
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), **versions,
            "git_commit": _git_commit(), "source_digest": digest}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def generate_timed(wl, seed: int) -> tuple[float, list]:
    t0 = time.perf_counter()
    cases = wl.generate(seed)
    return time.perf_counter() - t0, cases


def call(op, case):
    try:
        return op(case)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return exc


def check_all(wl, answers) -> list[str | None]:
    """Error message, or None, per op."""
    return [f"raised {type(ans).__name__}: {ans}" if isinstance(ans, Exception)
            else wl.check(case, ans) for case, ans in answers]


def self_test(wl, answers, verdicts) -> tuple[int, list[str]]:
    """Feed deliberately wrong answers to the checker; each must be flagged."""
    tried, missed = 0, []
    good = [pair for pair, err in zip(answers, verdicts) if err is None]
    for case, ans in good[:SELF_TEST_ANSWERS]:
        for label, wrong in wl.wrong_answers(case, ans):
            tried += 1
            if wl.check(case, wrong) is None:
                missed.append(label)
    if tried == 0:
        missed.append("no answer to inject into")
    return tried, missed


def closed_loop(wl, cases: list, seconds: float):
    latencies, answers = [], []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        case = cases[i % len(cases)]
        t0 = time.perf_counter()
        ans = call(wl.op, case)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        answers.append((case, ans))
        i += 1
        if t1 >= deadline and i >= MIN_OPS:
            return latencies, answers, t1 - start


def timed_run(wl, args) -> tuple[dict, int, int, list[str]]:
    import_s = statistics.median(fresh_import_s("hubfleet") for _ in range(SETUP_REPEATS))
    gens = [generate_timed(wl, args.seed) for _ in range(SETUP_REPEATS)]
    cases = gens[-1][1]
    setup_s = import_s + statistics.median(g for g, _ in gens)

    call(wl.op, cases[-1])   # warm-up, untimed: first-call costs paid once
    latencies, answers, elapsed = closed_loop(wl, cases, args.seconds)
    verdicts = check_all(wl, answers)
    errors = [err for err in verdicts if err]
    tried, missed = self_test(wl, answers, verdicts)

    n = len(latencies)
    lat_ms = [1000.0 * x for x in latencies]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / elapsed,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"ops {n} in {elapsed:.3f} s; latency samples {n}, "
          f"{sum(x > metrics['op_p90_ms'] for x in lat_ms)} beyond p90")
    print(f"error_rate {len(errors) / n:.6g} ({len(errors)} of {n})")
    print(f"self-test: {tried - len(missed)} of {tried} wrong answers flagged")
    return ({k: {"value": metrics[k], "unit": u} for k, u in END_TO_END},
            n, len(errors), errors + [f"self-test not flagged: {m}" for m in missed])


def traced_run(wl, args, digest: str) -> tuple[dict, int, int, list[str]]:
    from tracing import Tracer
    cases = wl.generate(args.seed)
    n_ops = max(2, math.ceil(args.seconds * wl.trace_rate / (2 * TRACE_PASSES)))
    ops = [cases[i % len(cases)] for i in range(n_ops)]
    import_ms = 1000.0 * statistics.median(
        fresh_import_s("hubfleet.cli") for _ in range(SETUP_REPEATS))

    print(f"traced op list: {n_ops} ops; {TRACE_PASSES} untraced and "
          f"{TRACE_PASSES} traced passes over it")
    call(wl.op, ops[-1])
    answers, untraced, passes = [], [], []
    for _ in range(TRACE_PASSES):   # untraced and traced passes alternate
        t0 = time.perf_counter()
        answers += [(case, call(wl.op, case)) for case in ops]
        untraced.append(time.perf_counter() - t0)
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            for i, case in enumerate(ops):
                answers.append((case, tracer.run_op(i, call, wl.op, case)))
            elapsed = time.perf_counter() - t0
        finally:
            tracer.restore()
        passes.append((tracer, elapsed))

    def counts(tracer) -> dict:
        calls = tracer.calls()
        out = {k: calls[name] for k, name in CALLS}
        out.update({k: tracer.counts[k] for k in COUNTERS})
        searches = calls["fleet.rate_search"]
        out["fleet.rate_probes_per_search"] = (
            tracer.probes_under_search() / searches if searches else 0)
        return out

    errors = [err for err in check_all(wl, answers) if err]
    failed = len(errors)
    first, second = counts(passes[0][0]), counts(passes[1][0])
    if first != second:
        errors.append(f"counts differ between traced passes: {first} vs {second}")
    errors += _check_count_record(args, digest, first)

    passes[0][0].write(STATE / f"spans-{args.workload}-{args.seed}.jsonl")

    per_pass = [t.self_times() for t, _ in passes]
    metrics = {"cli.import_ms": (import_ms, "ms")}
    for key, name in TIMES:
        metrics[key] = (1000.0 * statistics.median(own[name] for own, _ in per_pass), "ms")
    metrics["star.table_in_rate_search_ms"] = (
        1000.0 * statistics.median(under["star.table"] for _, under in per_pass), "ms")
    for key, value in first.items():
        metrics[key] = (value, "count")
    simulate_s = statistics.median(own["oracle.simulate"] for own, _ in per_pass)
    metrics["oracle.des_events_per_s"] = (
        first["oracle.des_events"] / simulate_s if simulate_s else 0.0, "1/s")
    metrics["trace.peak_rss_mb"] = (peak_rss_mb(), "MB")
    traced_s = statistics.median(e for _, e in passes)
    metrics["trace.overhead_ratio"] = (statistics.median(untraced) / traced_s, "ratio")
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            len(answers), failed, errors)


def _check_count_record(args, digest: str, counts: dict) -> list[str]:
    """Counts must also repeat across runs with the same code and seed."""
    STATE.mkdir(exist_ok=True)
    path = STATE / "counts.json"
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {}
    key = f"{args.workload}:{args.seed}:{args.seconds}:{digest}"
    if key in record and record[key] != counts:
        return [f"counts differ from an earlier run: {record[key]} vs {counts}"]
    record[key] = counts
    path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hubfleet" / "__init__.py").is_file():
        print(f"perfbench: no hubfleet sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hubfleet  # noqa: F401  (compiles the sources once, before any timing)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    digest = _source_digest()
    print(json.dumps({"record": run_record(args, digest)}))

    if args.trace:
        metrics, attempted, failed, errors = traced_run(wl, args, digest)
    else:
        metrics, attempted, failed, errors = timed_run(wl, args)
    for err in errors[:20]:
        print(f"FAIL {err}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

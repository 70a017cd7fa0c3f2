#!/usr/bin/env python3
"""cavqfi benchmark: end-to-end speed of figure2, interactive qfi and wide-truncation sweeps.

Run from the root of a cavqfi checkout:

    python3 perfbench/run.py --workload figure2 --seed 1 --seconds 20 --trace 0

Workloads are ``figure2``, ``qfi_mix`` and ``wide_truncation`` (see
workloads.py and README.md).  The program is imported from ``src/`` of the
checkout and driven through ``cavqfi.cli.main`` in this one process, warm,
with BLAS and OpenMP pools pinned to one thread.

``--trace 0`` times the workload with tracing off and prints the end-to-end
metrics.  ``--trace 1`` runs the same rounds untraced and then traced, and
prints per-layer metrics normalised per point plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the environment manifest.
"""

import os

# pinned before numpy is first imported, here or in the set-up interpreters
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)
# the program runs on its defaults, whatever the calling shell holds
for _var in ("CAVQFI_NUMERIC_POLICY", "CAVQFI_KERNELS"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import PointTimer, Tracer  # noqa: E402
from workloads import WORKLOADS, execute  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root):
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    kernels = sys.modules.get("cavqfi.kernels")
    backend = getattr(kernels, "active_backend", None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend() if callable(backend) else None,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "git_commit": git_commit(ROOT),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def probe_setup():
    """(import_s, first_call_s) of one fresh interpreter.

    import_s runs from just before the interpreter is started to the end of
    ``import cavqfi.cli``; first_call_s is the first reference ``qfi`` call
    minus a second, warm one, i.e. the lazy set-up the first call pays.
    """
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_child.py"), str(SRC)],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    if probe["codes"] != [0, 0]:
        raise RuntimeError(f"reference qfi exited {probe['codes']} in the set-up probe")
    return probe["imported"] - start, probe["first_s"] - probe["warm_s"]


def run_rounds(rounds, seconds, probes):
    """Run whole rounds for ``seconds`` of wall time; take ``probes`` set-up probes.

    The probes are spread evenly over the run, between rounds, and their own
    time is not counted, so set-up is sampled across the same stretch of
    machine load as the timed calls.
    """
    outcomes, used, setups = [], [], []
    elapsed = 0.0
    while elapsed < seconds or len(setups) < probes:
        if len(setups) < probes and elapsed >= seconds * len(setups) / probes:
            setups.append(probe_setup())
            continue
        start = time.perf_counter()
        calls = next(rounds)
        used.append(calls)
        outcomes.extend(execute(call) for call in calls)
        elapsed += time.perf_counter() - start
    return outcomes, used, setups


def tally(workload, outcomes):
    verdicts, rows_bad, ok_per_call = [], 0, []
    for outcome in outcomes:
        found = workload.verdicts(outcome)
        verdicts.extend(found)
        ok_per_call.append(found.count("ok"))
        # a nonzero exit emits no row; "correct" is about emitted rows only
        if outcome.code == 0:
            rows_bad += found.count("bad")
    return {
        "attempted": len(verdicts),
        "ok": verdicts.count("ok"),
        "bad": verdicts.count("bad"),
        "xfail": verdicts.count("xfail"),
        "rows_bad": rows_bad,
        "ok_per_call": ok_per_call,
    }


def describe(name, values, unit):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{name}: n={len(values)} median={q2:.6g} q1={q1:.6g} q3={q3:.6g} {unit}"


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(args, workload, rounds):
    for call in next(rounds):  # warm-up round: caches filled, lazy imports done
        execute(call)

    timer = PointTimer() if workload.name != "qfi_mix" else None
    if timer:
        timer.install()
    try:
        outcomes, used, setups = run_rounds(rounds, args.seconds, SETUP_PROBES)
    finally:
        if timer:
            timer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    setup_totals = [a + b for a, b in setups]
    counts = tally(workload, outcomes)
    busy_s = sum(o.seconds for o in outcomes)
    if timer is None:
        latencies = [o.seconds for o in outcomes if o.code == 0]
    elif timer.available:
        latencies = timer.durations
    else:
        latencies = [o.seconds / o.call.n_points for o in outcomes for _ in range(o.call.n_points)]
    latencies_ms = [1e3 * s for s in latencies]
    if len(latencies_ms) < 2:
        raise RuntimeError(f"only {len(latencies_ms)} successful calls in {args.seconds} s; nothing to time")
    p90 = statistics.quantiles(latencies_ms, n=10)[8]

    round_rates, i = [], 0
    for calls in used:
        j = i + len(calls)
        round_rates.append(sum(counts["ok_per_call"][i:j]) / sum(o.seconds for o in outcomes[i:j]))
        i = j

    print(describe("setup_s", setup_totals, "s"))
    if len(round_rates) >= 2:
        print(describe("points_per_s by round", round_rates, "1/s"))
    print(describe("call latency", latencies_ms, "ms") + f" p90={p90:.6g} ms")
    print(
        f"points: attempted={counts['attempted']} ok={counts['ok']} bad={counts['bad']} "
        f"known-defect={counts['xfail']} in {busy_s:.3f} s of program time"
    )
    metrics = {
        "setup_s": (statistics.median(setup_totals), "s"),
        "points_per_s": (counts["ok"] / busy_s, "1/s"),
        "call_p50_ms": (statistics.median(latencies_ms), "ms"),
        "call_p90_ms": (p90, "ms"),
        "ok_share": (counts["ok"] / counts["attempted"], "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return counts, metrics


def per_layer(args, workload, rounds):
    for call in next(rounds):
        execute(call)

    plain, used, setups = run_rounds(rounds, args.seconds / 2.0, SETUP_PROBES)
    tracer = Tracer()
    tracer.install()
    try:
        traced = [execute(call) for calls in used for call in calls]
    finally:
        tracer.uninstall()

    counts = tally(workload, plain + traced)
    points = sum(o.call.n_points for o in traced)
    traced_s = sum(o.seconds for o in traced)
    plain_s = sum(o.seconds for o in plain)
    stats = tracer.stats

    def calls(layer):
        return stats[layer].calls / points, "calls/point"

    def ms(layer, self_only=False):
        stat = stats[layer]
        return 1e3 * (stat.self_s if self_only else stat.total_s) / points, "ms/point"

    fid = stats["metrology.fidelity"]
    metrics = {
        "setup.import_s": (statistics.median(a for a, _ in setups), "s"),
        "setup.first_call_s": (statistics.median(b for _, b in setups), "s"),
        "cli.evaluate_scenario.calls": calls("cli.evaluate_scenario"),
        "cli.evaluate_scenario.self_ms": ms("cli.evaluate_scenario", self_only=True),
        "cavity.build_scenario_series.ms": ms("cavity.build_scenario_series"),
        "cavity.coefficients_built": (
            stats["cavity.build_scenario_series"].extra["entries"] / points,
            "entries/point",
        ),
        "kernels.time_dependent_coefficients.ms": ms("kernels.time_dependent_coefficients"),
        "kernels.reduced_transform.calls": calls("kernels.reduced_transform"),
        "kernels.reduced_transform.ms": ms("kernels.reduced_transform"),
        "bogoliubov.transform_reduced.calls": calls("bogoliubov.transform_reduced"),
        "bogoliubov.transform_reduced.self_ms": ms("bogoliubov.transform_reduced", self_only=True),
        "bogoliubov.evaluate_series.ms": ms("bogoliubov.evaluate_series"),
        "bogoliubov.evaluate_series.bytes": (stats["bogoliubov.evaluate_series"].extra["bytes"] / points, "B/point"),
        "metrology.calibrate_phases.calls": calls("metrology.calibrate_phases"),
        "metrology.calibrate_phases.self_ms": ms("metrology.calibrate_phases", self_only=True),
        "metrology.qfi_analytic_h0.calls": calls("metrology.qfi_analytic_h0"),
        "metrology.mode_sums.ms": ms("metrology.mode_sums"),
        "metrology.qfi_numeric.calls": calls("metrology.qfi_numeric"),
        "metrology.qfi_numeric.ms": ms("metrology.qfi_numeric"),
        "metrology.fidelity.calls": calls("metrology.fidelity"),
        "metrology.fidelity_per_ladder": (fid.calls / max(stats["metrology.qfi_numeric"].calls, 1), "calls/ladder"),
        "metrology.fidelity.float_ms": (1e3 * fid.extra["float_s"] / points, "ms/point"),
        "metrology.fidelity.mp_share": (fid.extra["mp_calls"] / max(fid.calls, 1), "ratio"),
        "metrology.fidelity.mp_ms": (1e3 * fid.extra["mp_s"] / points, "ms/point"),
        "metrology.errors.ConditioningError": (tracer.errors["ConditioningError"] / points, "errors/point"),
        "metrology.errors.NoPlateauError": (tracer.errors["NoPlateauError"] / points, "errors/point"),
        "trace.overhead_ms": (1e3 * (traced_s - plain_s) / points, "ms/point"),
        "trace.layers_absent": (len(tracer.absent), "count"),
    }

    print(f"traced {points} points in {traced_s:.3f} s; untraced {plain_s:.3f} s (overhead {traced_s / plain_s - 1:+.2%})")
    print(f"{'layer':40s} {'calls/pt':>10s} {'ms/pt':>10s} {'self ms/pt':>10s} {'share':>7s}")
    for name, stat in stats.items():
        if name in tracer.absent:
            print(f"{name:40s} absent")
            continue
        print(
            f"{name:40s} {stat.calls / points:10.3f} {1e3 * stat.total_s / points:10.4f} "
            f"{1e3 * stat.self_s / points:10.4f} {stat.total_s / traced_s:7.1%}"
        )
    other_errors = {k: v for k, v in tracer.errors.items() if k not in ("ConditioningError", "NoPlateauError")}
    if other_errors:
        print(f"other errors: {other_errors}")
    return counts, metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cavqfi" / "__init__.py").is_file():
        print(f"error: no cavqfi package under {SRC}; run from a cavqfi checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cavqfi

    if Path(cavqfi.__file__).resolve().parent != (SRC / "cavqfi").resolve():
        print(f"error: cavqfi imported from {cavqfi.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import cavqfi.cli  # noqa: F401  (imported before any tracing or timing)

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORK_DIR)
    rounds = workload.rounds()

    run = per_layer if args.trace else end_to_end
    counts, metrics = run(args, workload, rounds)

    print(json.dumps({"manifest": manifest(args)}))
    result = {
        "correct": counts["rows_bad"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["bad"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""FoReCo repository benchmark: one workload, closed loop, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload heatmap-sweep --seed 1 --seconds 10 --trace 0

One caller drives the library in-process (``jobs=1``), issuing the next
request only after the previous one returns.  Inputs derive from ``--seed``.
Caches are warmed before timing; their cold cost, measured in fresh
processes, is ``setup_s``.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds of
requests.  Each request and each set-up probe is timed right after a
host-speed reference block (``hostspeed.py``), and its time is scaled to a
nominal host, so the figures hold still while a shared host changes speed.

``--trace 1`` is the separate traced run: it wraps the layer boundaries
listed in ``layers.py``, records spans in memory and reports the per-layer
metrics, writing a Chrome trace and a self-time table under
``.perfbench/``.  Either way the last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` and the run exits 0 only
when the result could be produced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PINS = HERE / "pins.json"

#: BLAS pools are pinned to one thread, like the single-caller loop.  NumPy,
#: and with it ``hostspeed``, is imported only after they are set.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "session_slots_per_s": "1/s",
    "slot_p50_us": "us",
    "slot_p99_us": "us",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    """Command-line arguments (``--setup-probe`` is the internal set-up child)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _pin_process() -> None:
    """One BLAS thread, like the single-caller loop, and the package on the path.

    The process is not bound to a CPU: on a shared host any one CPU may be
    busy with a neighbour, and the scheduler can move the loop off it.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def git_commit(root: Path = ROOT) -> str:
    """The checked-out commit, read from ``.git`` without leaving ``root``."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: ") :]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload: str, seed: int, trace: int) -> dict:
    """Provenance recorded with every result."""
    import numpy

    from repro.scenarios import ENGINE_EPOCH

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "engine_epoch": ENGINE_EPOCH,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


# ------------------------------------------------------------------ judging
def load_pins(path: Path = PINS) -> dict:
    """Pinned digests: ``{"engine_epoch", "numpy", "digests": {workload: {seed: hex}}}``."""
    return json.loads(path.read_text(encoding="utf-8"))


def pinned_digest(pins: dict, workload: str, seed: int) -> str | None:
    """The digest pinned for this workload and seed, when pins apply here.

    Pins were recorded under one engine epoch and NumPy version; under any
    other, float results may legitimately differ, so they do not apply.
    """
    import numpy

    from repro.scenarios import ENGINE_EPOCH

    if pins.get("engine_epoch") != ENGINE_EPOCH or pins.get("numpy") != numpy.__version__:
        return None
    return pins.get("digests", {}).get(workload, {}).get(str(seed))


def count_failures(reference, outcomes, pinned: str | None) -> int:
    """Sessions of every outcome that is wrong.

    An outcome is wrong when its own checks found a problem, when its digest
    differs from the warm-up reference (results must repeat exactly), or when
    the reference itself differs from the pinned digest.
    """
    reference_ok = not reference.problems and (pinned is None or reference.digest == pinned)
    return sum(
        outcome.sessions
        for outcome in outcomes
        if not reference_ok or outcome.problems or outcome.digest != reference.digest
    )


# ------------------------------------------------------------------ running
def _timed(workload):
    start = time.perf_counter()
    result = workload.request()
    return result, time.perf_counter() - start


def _setup_seconds(args) -> tuple[list[float], list[float]]:
    """Raw and nominal-host wall times of ``SETUP_PROBES`` fresh-process set-ups.

    Each probe imports the package, synthesises the seed's datasets and
    trains the master; a reference block runs just before it.
    """
    import hostspeed

    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    command += ["--workload", args.workload, "--seed", str(args.seed)]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        factor = hostspeed.scale(hostspeed.reference_seconds())
        start = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * factor)
    return raw, scaled


def _percentile_us(values_ns, q: float) -> float:
    import numpy

    return float(numpy.percentile(values_ns, q)) / 1e3


def slot_latencies_us(walls, outcomes, factors) -> tuple[float, float]:
    """``(p50, p99)`` per-decision latency of one run, in microseconds.

    Workloads that time single decisions give one p50 and one p99 per
    request (at least 600 samples beyond each p99); the run reports the
    median request's, so a burst of host load during a few requests does not
    move it.  Batch workloads advance every session of a request in
    lockstep: one slot step is the request's wall time over its steps, one
    sample per request.  ``factors`` scale each request to the nominal host.
    """
    timed = [(o.latencies_ns, f) for o, f in zip(outcomes, factors) if o.latencies_ns is not None]
    if timed:
        return (
            statistics.median(_percentile_us(values, 50) * factor for values, factor in timed),
            statistics.median(_percentile_us(values, 99) * factor for values, factor in timed),
        )
    steps_ns = [wall * f / o.steps * 1e9 for wall, o, f in zip(walls, outcomes, factors)]
    return _percentile_us(steps_ns, 50), _percentile_us(steps_ns, 99)


def measure(workload, args) -> tuple[dict, int, int, list[str]]:
    """The untraced run: end-to-end metrics over ``--seconds`` of requests.

    Every request is timed after a host-speed reference block and scaled to
    the nominal host.  Rates and latencies are medians over requests rather
    than totals over the run, so one request slowed by the host does not
    move them.  The loop, reference blocks included, lasts ``--seconds``.
    """
    import hostspeed

    setup_raw, setup = _setup_seconds(args)
    reference = workload.summarize(workload.request())
    workload.cleanup()
    outcomes, walls, factors = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        factors.append(hostspeed.scale(hostspeed.reference_seconds()))
        result, wall = _timed(workload)
        walls.append(wall)
        outcomes.append(workload.summarize(result))
        workload.cleanup()

    p50, p99 = slot_latencies_us(walls, outcomes, factors)
    metrics = {
        "setup_s": statistics.median(setup),
        "session_slots_per_s": statistics.median(
            outcome.slots / (wall * factor) for wall, outcome, factor in zip(walls, outcomes, factors)
        ),
        "slot_p50_us": p50,
        "slot_p99_us": p99,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted = sum(outcome.sessions for outcome in outcomes)
    failed = count_failures(reference, outcomes, pinned_digest(load_pins(), workload.name, args.seed))
    decisions = sum(len(o.latencies_ns) for o in outcomes if o.latencies_ns is not None)
    notes = [
        f"{len(walls)} requests in {sum(walls):.3f} s, {decisions} single decisions timed",
        f"request walls (raw s): {', '.join(f'{wall:.4f}' for wall in walls)}",
        f"host-speed factors: {', '.join(f'{factor:.4f}' for factor in factors)}",
        f"setup_s samples (raw s): {', '.join(f'{value:.4f}' for value in setup_raw)}",
        f"setup_s samples (nominal s): {', '.join(f'{value:.4f}' for value in setup)}",
        f"session_slots_per_s, raw median: "
        f"{statistics.median(o.slots / wall for wall, o in zip(walls, outcomes)):.1f}",
        f"failed_fraction {failed / attempted:.6f} ({failed} of {attempted} operator-sessions)",
    ]
    notes += sorted({problem for outcome in [reference, *outcomes] for problem in outcome.problems})
    return metrics, attempted, failed, notes


def measure_traced(workload, args, base: Path, record: dict) -> tuple[dict, int, int, list[str]]:
    """The traced run: per-layer metrics from spans at the layer boundaries.

    Pairs of untraced and traced requests run for ``--seconds`` (at least
    one pair).  Times are the set-up phase plus the median traced request
    (plus the warm store replay, where the workload has one); counts must
    repeat exactly across traced requests.  The first traced pass is written
    next to ``base`` as a Chrome trace and a self-time table.
    """
    from layers import HOOKS, PER_LAYER
    from spans import Tracer, self_time_table, write_chrome_trace

    setup_tracer = Tracer()
    with setup_tracer.installed(HOOKS), setup_tracer.span("bench.setup"):
        workload.setup()
    workload.prepare()
    reference = workload.summarize(workload.request())
    workload.cleanup()

    outcomes, untraced, traced, per_request = [], [], [], []
    replay_tracer = Tracer()
    first_pass: list[Tracer] = []
    problems = []
    while not traced or sum(untraced) + sum(traced) < args.seconds:
        result, wall = _timed(workload)
        untraced.append(wall)
        outcomes.append(workload.summarize(result))
        workload.cleanup()

        tracer = Tracer()
        with tracer.installed(HOOKS), tracer.span("bench.request"):
            result, wall = _timed(workload)
        traced.append(wall)
        outcomes.append(workload.summarize(result))
        if not per_request:
            first_pass = [setup_tracer, tracer]
            if workload.replays:
                with replay_tracer.installed(HOOKS), replay_tracer.span("bench.replay"):
                    workload.replay()
                first_pass.append(replay_tracer)
        workload.cleanup()
        tracer.check_nesting()
        per_request.append(tracer.metrics())
        if tracer.counts != first_pass[1].counts:
            problems.append("per-layer counts differ between traced requests")

    setup_tracer.check_nesting()
    replay_tracer.check_nesting()
    fixed = setup_tracer.metrics()
    for key, value in replay_tracer.metrics().items():
        fixed[key] = fixed.get(key, 0) + value
    metrics = {}
    for name in PER_LAYER:
        middle = statistics.median(request.get(name, 0) for request in per_request)
        metrics[name] = fixed.get(name, 0) + middle
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0

    write_chrome_trace(first_pass, base.with_suffix(".trace.json"), record)
    table = self_time_table(first_pass, header=f"{workload.name} seed {args.seed}: self time by span")
    base.with_suffix(".selftime.txt").write_text(table + "\n", encoding="utf-8")

    attempted = sum(outcome.sessions for outcome in outcomes)
    failed = count_failures(reference, outcomes, pinned_digest(load_pins(), workload.name, args.seed))
    if problems:
        failed = attempted
    notes = [f"{len(traced)} traced / {len(untraced)} untraced requests", *table.splitlines(), *problems]
    notes += sorted({problem for outcome in [reference, *outcomes] for problem in outcome.problems})
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    """Run one workload and print its result line; returns the exit code."""
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    _pin_process()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    if args.setup_probe:
        workload.setup()
        return 0

    record = stamp(args.workload, args.seed, args.trace)
    base = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        from layers import PER_LAYER

        metrics, attempted, failed, notes = measure_traced(workload, args, base, record)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        workload.setup()
        workload.prepare()
        metrics, attempted, failed, notes = measure(workload, args)
        units = END_TO_END

    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    base.with_suffix(".json").write_text(
        json.dumps({"run": record, "notes": notes, **summary}, indent=2) + "\n", encoding="utf-8"
    )
    for note in notes:
        print(f"# {note}")
    for name, unit in units.items():
        print(f"# {name:<40s} {metrics[name]:>16.6f} {unit}")
    print("# run " + json.dumps(record, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

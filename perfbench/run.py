#!/usr/bin/env python3
"""End-to-end benchmark of the enforcement loop (agreement calculus, window
LP, combining-tree fold, L7/L4 admission) on two workloads.

    python3 perfbench/run.py --workload figures --seed 1 \\
        --seconds 40 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
next to this directory, never from an installed copy.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs a separate traced
measurement and reports the per-layer metrics (see README.md).  A human
readable report goes to stdout, full results (per-op records, quartiles,
host fingerprint, spans) to ``perfbench/out/``; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from layers import (HARVEST, PER_LAYER, declared_metrics, layer_metrics,
                    op_targets, reference_targets)
from probe import slowdown, speed_probes
from tracer import ROOT as ROOT_SPAN
from tracer import Tracer
from workloads import WORKLOADS, make_workload, op_seed, paper_error

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

END_TO_END = declared_metrics("end_to_end")
# Printed and stored with every run but not in BENCHMARK.json: fail_ratio
# is 0 on a correct program, and paper_err_max spreads with the seed's
# statistics rather than with the program's speed.
# op_s_p50_raw and host_slowdown show what the contention correction
# (probe.py) removed from the gated times.
REPORT_ONLY = [("fail_ratio", "ratio"), ("paper_err_max", "ratio"),
               ("op_s_p50_raw", "s"), ("host_slowdown", "ratio")]
SETUP_REPEATS = 8
# Timed runs of each op input (--trace 0); its fastest counts.
REPEATS = 3
MIN_INPUTS = 2
LP_IMPORT_REPEATS = 3


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def locate_program() -> None:
    """Put this checkout's ``src/`` first on the import path, or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        die(f"no program sources at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        die(f"imported repro from {repro.__file__}, not from {SRC}")


# -- measurement helpers ----------------------------------------------------

def cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child (shard workers)."""
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(s, c) / 1024.0


def fresh_import_s(statement: str) -> float:
    """Wall seconds a fresh interpreter spends running ``statement``,
    divided by the :func:`probe.slowdown` it saw meanwhile."""
    code = "\n".join([
        "import sys, time",
        f"sys.path.append({str(BENCH_DIR)!r})",
        "from probe import speed_probes",
        "with speed_probes() as probes:",
        "    t0 = time.perf_counter()",
        f"    {statement}",
        "    wall = time.perf_counter() - t0",
        "print(repr([wall] + probes))",
    ])
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120)
    wall, *probes = json.loads(out.stdout.strip().splitlines()[-1])
    return wall / slowdown(probes)


def median_import_s(statement: str, repeats: int) -> float:
    """Median of ``repeats`` fresh imports after one untimed one (which
    compiles the bytecode cache of a new checkout)."""
    fresh_import_s(statement)
    return statistics.median(fresh_import_s(statement) for _ in range(repeats))


class SetupSampler:
    """``SETUP_REPEATS`` fresh-interpreter imports of a workload's entry
    points (``setup_s``), spread evenly between the timed ops.

    The speed of a shared host drifts by tens of percent over seconds to
    minutes, so imports taken in one burst all see the same moment; spread
    out, they see the moments the ops do.
    """

    def __init__(self, statement: str) -> None:
        self.statement = statement
        self.samples: List[float] = []
        fresh_import_s(statement)  # untimed: fills a new checkout's bytecode cache

    def take(self, upto: int) -> None:
        """Take samples until there are ``upto`` (at most ``SETUP_REPEATS``)."""
        while len(self.samples) < min(upto, SETUP_REPEATS):
            self.samples.append(fresh_import_s(self.statement))

    def median(self) -> float:
        self.take(SETUP_REPEATS)
        return statistics.median(self.samples)


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts to track
    the sharded lane's shared memory, so no process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def summary(values: Sequence[float]) -> Dict[str, float]:
    """min / quartiles / max of a sample, with its size."""
    xs = sorted(values)
    if not xs:
        return {"n": 0}
    q1, med, q3 = (statistics.quantiles(xs, n=4) if len(xs) > 1
                   else (xs[0], xs[0], xs[0]))
    return {"n": len(xs), "min": xs[0], "q1": q1, "median": med, "q3": q3,
            "max": xs[-1]}


def tail_percentile(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10:
            best = {"percentile": p,
                    "value": xs[min(n - 1, int(p / 100.0 * n))], "n": n}
    return best


# -- host and environment fingerprint ----------------------------------------

def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(dist: str) -> Optional[str]:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version(dist)
    except PackageNotFoundError:
        return None


def _git_rev() -> Optional[str]:
    """HEAD of this checkout; None when it is not a git repository (git
    would otherwise report an enclosing repository's HEAD)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    """Content digest of the program sources (checkouts need not be git)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint(extras: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Host and environment under which the numbers were taken.

    Records what ``backend="auto"`` resolved to and which sharded data
    plane actually ran, so a missing scipy or an shm->pipe fallback shows
    in the results instead of silently timing a different program.
    """
    import numpy

    from repro.lp.scipy_backend import scipy_available

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "git_rev": _git_rev(),
        "src_sha256": _src_sha256(),
        "lp_backend_auto": "scipy" if scipy_available() else "bounded",
        "sharded_data_plane": sorted({e["data_plane"] for e in extras}),
        "sharded_transport_fallback": sorted(
            {str(e["transport_fallback"]) for e in extras}),
    }


# -- ops ---------------------------------------------------------------------

@dataclass
class OpRecord:
    index: int
    seed: int
    kind: str            # "warmup", "timed" or "traced"
    wall: float
    cpu: float
    ok: bool
    requests: float = 0.0
    rates: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    digest: str = ""
    error: Optional[str] = None
    extras: Dict[str, Any] = field(default_factory=dict)
    probes: List[float] = field(default_factory=list)


def run_op(workload: Any, index: int, seed: int, reference: Any, kind: str,
           tracer: Any = None, probe: bool = False) -> OpRecord:
    """Run one op and check it.  A raising op is a failed op, never retried."""
    gc.collect()
    with speed_probes() if probe else nullcontext([]) as probes:
        c0, t0 = cpu_s(), time.perf_counter()
        try:
            if tracer is None:
                res = workload.op(seed, reference)
            else:
                res = tracer.call(ROOT_SPAN, workload.op, seed, reference)
        except Exception:  # counted in fail_ratio; the run goes on
            rec = OpRecord(index, seed, kind, time.perf_counter() - t0,
                           cpu_s() - c0, False,
                           error=traceback.format_exc(limit=3))
        else:
            wall, cpu = time.perf_counter() - t0, cpu_s() - c0
            rec = OpRecord(index, seed, kind, wall, cpu, bool(res.ok),
                           res.requests, res.rates, res.digest,
                           extras=dict(res.extras))
    rec.probes = list(probes)
    return rec


@dataclass
class Run:
    ops: List[OpRecord] = field(default_factory=list)
    reference_walls: List[float] = field(default_factory=list)


def measure(workload: Any, seed: int, seconds: float,
            tr: Optional[Tracer] = None, ref_tr: Optional[Tracer] = None,
            setup: Optional[SetupSampler] = None, probe: bool = False) -> Run:
    """Warm-up op, then ``REPEATS`` rounds over op inputs 1..k, with k
    (at least ``MIN_INPUTS``) sized from the warm-up so that the rounds
    take about ``seconds``.  ``setup`` takes its samples between the ops,
    and with ``probe`` the CPU's speed is sampled during the untraced ops.

    Every input's references are made first, outside the timed region.
    Each timed op must reproduce the digest of its input's first correct
    op.  With tracers there is one round, every timed op is followed by a
    traced op of the same seed, whose digest must equal the timed one's
    (tracing is digest-invisible), and every reference is also run once
    under ``ref_tr``.
    """
    run = Run()
    rounds = REPEATS if tr is None else 1

    def reference(s: int, timed: bool) -> Any:
        """The reference of seed ``s``.  For a timed input, its untraced
        wall is kept for ``sharded.scaling_eff`` and, with ``ref_tr``, a
        second, traced run of it feeds ``sharded.step_s``."""
        try:
            t0 = time.perf_counter()
            ref = workload.reference(s)
            wall = time.perf_counter() - t0
            if timed and ref_tr is not None:
                with ref_tr.installed(reference_targets()):
                    workload.reference(s)
        except Exception:  # no reference: the ops it would check fail
            traceback.print_exc(limit=3)
            return None
        if timed:
            run.reference_walls.append(wall)
        return ref

    s0 = op_seed(seed, 0)
    t0 = time.perf_counter()
    ref0 = reference(s0, False)
    ref_wall = time.perf_counter() - t0
    run.ops.append(run_op(workload, 0, s0, ref0, "warmup", probe=probe))
    per_input = ref_wall + run.ops[0].wall * rounds
    if tr is not None:  # traced reference and traced op, ~as long again
        per_input *= 2
    k = max(MIN_INPUTS, round(seconds / per_input))
    seeds = [op_seed(seed, i) for i in range(1, k + 1)]
    refs = [reference(s, True) for s in seeds]

    first: Dict[int, str] = {}
    total = rounds * k
    for j in range(total):
        if setup is not None:
            setup.take(1 + SETUP_REPEATS * j // total)
        i = j % k
        timed = run_op(workload, i + 1, seeds[i], refs[i], "timed", probe=probe)
        if timed.ok:
            timed.ok = timed.digest == first.setdefault(i, timed.digest)
        run.ops.append(timed)
        if tr is not None:
            with tr.installed(op_targets()):
                traced = run_op(workload, i + 1, seeds[i], refs[i], "traced", tr)
            tr.harvest(HARVEST)
            traced.ok = traced.ok and traced.digest == timed.digest
            run.ops.append(traced)
    return run


# -- metrics -----------------------------------------------------------------

def pooled_paper_error(ops: Sequence[OpRecord]) -> float:
    """Paper error of each phase rate averaged over ``ops``.

    Pooling the ops' rates before comparing keeps per-seed noise from
    swamping the systematic deviation this metric is for.
    """
    pooled: Dict[str, List[float]] = {}
    for o in ops:
        for key, (got, want) in o.rates.items():
            pooled.setdefault(key, [0.0, want])[0] += got / len(ops)
    return paper_error(pooled) if pooled else 0.0


def best_of_repeats(run: Run, corrected: bool
                    ) -> List[Tuple[float, float, float]]:
    """(wall, cpu, requests) of every op input: the least wall and CPU
    time over its timed runs, since a shared host's interference only ever
    adds time; if ``corrected``, each divided by its op's :func:`slowdown`.
    An input with a failed run completes no requests."""
    by_input: Dict[int, List[OpRecord]] = {}
    for o in run.ops:
        if o.kind == "timed":
            by_input.setdefault(o.index, []).append(o)

    def factor(o: OpRecord) -> float:
        return slowdown(o.probes) if corrected else 1.0

    return [(min(o.wall / factor(o) for o in reps),
             min(o.cpu / factor(o) for o in reps),
             reps[0].requests if all(o.ok for o in reps) else 0.0)
            for reps in by_input.values()]


def end_to_end(run: Run, setup_s: float) -> Dict[str, float]:
    """The :data:`END_TO_END` metrics: medians over op inputs of each
    input's best run, corrected for the host's contention."""
    best = best_of_repeats(run, corrected=True)
    return {
        "setup_s": setup_s,
        "req_per_s": statistics.median(req / wall for wall, _, req in best),
        "op_s_p50": statistics.median(wall for wall, _, _ in best),
        "cpu_s_per_op": statistics.median(cpu for _, cpu, _ in best),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(run: Run, tr: Tracer, ref_tr: Tracer) -> Dict[str, float]:
    timed = [o for o in run.ops if o.kind == "timed"]
    traced = [o for o in run.ops if o.kind == "traced"]
    sharded = [dict(o.extras, wall=o.wall) for o in timed if o.extras]
    lp_import_s = median_import_s("import repro.lp", LP_IMPORT_REPEATS)
    return layer_metrics(
        tr, ref_tr, [o.wall for o in traced],
        statistics.median(o.wall for o in timed), sharded,
        run.reference_walls, lp_import_s,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    locate_program()

    workload = make_workload(args.workload)
    trace = bool(args.trace)
    tr, ref_tr = (Tracer(), Tracer()) if trace else (None, None)
    setup = None if trace else SetupSampler(workload.entry_points)
    try:
        run = measure(workload, args.seed, args.seconds, tr, ref_tr, setup,
                      probe=not trace)
    finally:
        stop_resource_tracker()

    if trace:
        values, units = per_layer(run, tr, ref_tr), dict(PER_LAYER)
    else:
        values, units = end_to_end(run, setup.median()), dict(END_TO_END)
    if set(values) != set(units):
        die(f"computed metrics differ from BENCHMARK.json's: "
            f"{sorted(set(values) ^ set(units))}")
    attempted = len(run.ops)
    failed = sum(not o.ok for o in run.ops)
    timed = [o for o in run.ops if o.kind == "timed"]
    extras = [o.extras for o in run.ops if o.extras]
    report = {
        "fail_ratio": failed / attempted,
        "paper_err_max": pooled_paper_error([o for o in timed if o.rates]),
        "op_s_p50_raw": statistics.median(
            w for w, _, _ in best_of_repeats(run, corrected=False)),
        # 1.0 in a traced run, which is not probed
        "host_slowdown": statistics.median(slowdown(o.probes) for o in timed),
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                    for k in units},
        "report_only": {k: {"value": report[k], "unit": u}
                        for k, u in REPORT_ONLY},
        "samples": {
            "setup_s": summary([] if setup is None else setup.samples),
            "op_s": summary([o.wall for o in timed]),
            "op_s_best": summary([w for w, _, _ in best_of_repeats(run, True)]),
            "cpu_s": summary([o.cpu for o in timed]),
            "req_per_s": summary([o.requests / o.wall for o in timed if o.ok]),
            "paper_err": summary([paper_error(o.rates) for o in timed
                                  if o.rates]),
        },
        "op_s_tail": tail_percentile([o.wall for o in timed]),
        "host": fingerprint(extras),
        "ops": [asdict(o) for o in run.ops],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if trace:
        tr.dump(OUT / f"{stem}-spans.json",
                {"reference_stats": ref_tr.stats})

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:14.6g} {unit}")
    for name, unit in REPORT_ONLY:
        print(f"  {name:32s} {report[name]:14.6g} {unit} (report only)")
    tail = detail["op_s_tail"]
    if tail is not None:
        print(f"  {'op_s_p%g' % tail['percentile']:32s} {tail['value']:14.6g} s "
              f"({tail['n']} ops)")
    print(f"  {failed}/{attempted} ops failed")
    for o in run.ops:
        if not o.ok:
            print(f"  FAILED op {o.index} ({o.kind}, seed {o.seed}): "
                  f"{(o.error or 'wrong output').strip().splitlines()[-1]}")
    host = detail["host"]
    print(f"  host: {host['usable_cores']} cores, {host['cpu_model']}, "
          f"python {host['python']}, numpy {host['numpy']}, "
          f"scipy {host['scipy']}, lp auto={host['lp_backend_auto']}")
    print(f"  details: {OUT / (stem + '.json')}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": detail["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: what one op runs and how its output is checked.

Every op goes through the program's public entry points only
(``run_fig6``/``run_fig9``/``run_fig10`` and ``run_sharded``).  An op's seed
is derived from the workload seed and the op's index (:func:`op_seed`), so
the same ``--seed`` replays the same inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

FIG6_EXPECTED = {
    "phase1": {"A": 185.0, "B": 135.0},
    "phase2": {"A": 270.0, "B": 0.0},
    "phase3": {"A": 185.0, "B": 135.0},
}
# The sharded op's world: every fig6 client's demand ×LOAD_SCALE, on SHARDS
# worker processes (the core count of the 2-core host this was tuned on).
LOAD_SCALE = 100.0
SHARDS = 2
# duration_scale of the figure ops: ~50k completed requests per figure set
# and lane, and the smallest scale at which every figure still settles to
# the paper's rates.
FIGURE_SCALE = 0.1
# Both event lanes in one op: the slotted lane loads the event kernel, the
# request path and a miss-heavy window LP; the columnar lane idles the
# kernel, mostly hits the LP caches and spends its time in take_until and
# the bulk L7/L4 replay.  One workload covering both keeps the benchmark
# at two workloads, so that its runs can be long enough to average out a
# shared host's drift.
LANES = ("slotted", "columnar")


def op_seed(seed: int, index: int) -> int:
    """Seed of op ``index`` (0 is the warm-up) under workload seed ``seed``."""
    h = hashlib.sha256(f"perfbench:{seed}:{index}".encode()).digest()
    return int.from_bytes(h[:4], "big")


def series_digest(series_by_figure: Dict[str, Dict[str, Tuple[np.ndarray, np.ndarray]]]) -> str:
    """SHA-256 over the exact float bytes of every figure's rate series."""
    h = hashlib.sha256()
    for fig in sorted(series_by_figure):
        h.update(fig.encode())
        for key, (times, values) in sorted(series_by_figure[fig].items()):
            h.update(key.encode())
            h.update(np.ascontiguousarray(times, dtype=float).tobytes())
            h.update(np.ascontiguousarray(values, dtype=float).tobytes())
    return h.hexdigest()


def paper_error(rates: Dict[str, Tuple[float, float]]) -> float:
    """Largest relative deviation of a measured phase rate from the paper."""
    return max(abs(got - want) / want for got, want in rates.values())


@dataclass
class OpResult:
    """What one op produced; ``ok`` is the workload's correctness verdict.

    ``rates`` maps ``figure/phase/principal`` to (measured, paper) rate for
    every phase rate the paper gives as non-zero.
    """

    seed: int
    requests: float
    digest: str
    ok: bool
    rates: Dict[str, Tuple[float, float]]
    extras: Dict[str, Any] = field(default_factory=dict)


class FiguresWorkload:
    """One op = fig6, fig9 and fig10 on each event lane of :data:`LANES`,
    all with the op's seed.

    ``requests`` is the sum of every ``FigureResult.series`` (1 s bins of
    completed req/s, so the sum is completed requests).  An op is correct
    when every figure reproduces the paper's phase rates
    (``FigureResult.ok``).
    """

    entry_points = "from repro.experiments.figures import run_fig6, run_fig9, run_fig10"

    def __init__(self, name: str, scale: float) -> None:
        self.name = name
        self.scale = scale

    def reference(self, seed: int) -> Optional[str]:
        return None

    def op(self, seed: int, reference: Optional[str] = None) -> OpResult:
        from repro.experiments.figures import run_fig6, run_fig9, run_fig10

        results = [(lane, fn(duration_scale=self.scale, seed=seed, lane=lane))
                   for lane in LANES for fn in (run_fig6, run_fig9, run_fig10)]
        series = {f"{lane}/{r.figure}": r.series for lane, r in results}
        requests = sum(float(v.sum()) for s in series.values() for _, v in s.values())
        rates = {f"{lane}/{r.figure}/{phase}/{p}": (got, want)
                 for lane, r in results
                 for phase, p, got, want, _ in r.deviations() if want > 0}
        return OpResult(
            seed=seed, requests=requests, digest=series_digest(series),
            ok=all(r.ok for _, r in results), rates=rates,
        )


class ShardedWorkload:
    """One op = the fig6 world ×``replicas`` on the sharded lane, ``SHARDS``
    shards.

    ``requests`` counts admitted requests of a fluid-level model (Poisson
    demand, constant-service Lindley observer), not simulated request
    events, so it is not comparable with the figure workloads.  An op is
    correct when its digest equals the ``shards=1`` digest of its seed.
    """

    entry_points = "from repro.experiments.sharded import run_sharded"

    def __init__(self, name: str, scale: float, replicas: int) -> None:
        self.name = name
        self.scale = scale
        self.replicas = replicas

    def _run(self, seed: int, shards: int) -> Any:
        from repro.experiments.sharded import run_sharded

        return run_sharded("fig6", duration_scale=self.scale, seed=seed,
                           replicas=self.replicas, load_scale=LOAD_SCALE,
                           shards=shards)

    def reference(self, seed: int) -> str:
        """The ``shards=1`` (inline) digest of ``seed``; run untimed."""
        return self._run(seed, 1).digest()

    def op(self, seed: int, reference: Optional[str] = None) -> OpResult:
        res = self._run(seed, SHARDS)
        digest = res.digest()
        T = 100.0 * self.scale
        phases = [("phase1", 0.0, T), ("phase2", T, 2 * T), ("phase3", 2 * T, 3 * T)]
        norm = self.replicas * LOAD_SCALE
        rates = {f"fig6/{ph.name}/{p}": (ph.rates[p] / norm, want)
                 for ph in res.phase_rates(phases, keys=["A", "B"],
                                           settle=min(5.0, 0.2 * T))
                 for p, want in FIG6_EXPECTED[ph.name].items() if want > 0}
        admitted = sum(float(a.sum()) for per in res.admitted.values()
                       for a in per.values())
        return OpResult(
            seed=seed, requests=admitted, digest=digest,
            ok=digest == reference,
            rates=rates,
            extras={
                "shards": res.shards,
                "n_windows": res.n_windows,
                "lp_solves": res.lp_solves,
                "plane_wait_s": res.plane_wait_s,
                "barrier_wait_s": res.barrier_wait_s,
                "bytes_per_epoch": res.bytes_per_epoch,
                "data_plane": res.data_plane,
                "transport_fallback": res.transport_fallback,
            },
        )


def make_workload(name: str, tiny: bool = False) -> Any:
    """Build a workload by name; ``tiny`` shrinks every op for self-tests."""
    if name == "figures":
        return FiguresWorkload(name, 0.02 if tiny else FIGURE_SCALE)
    if name == "sharded_fig6":
        return ShardedWorkload(name, scale=0.01 if tiny else 0.05,
                               replicas=2 if tiny else 32)
    raise KeyError(name)


WORKLOADS = ("figures", "sharded_fig6")

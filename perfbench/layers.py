"""Which public calls the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<call>``; the layers are the program's packages
(``sim``, ``cluster``, ``l7``, ``l4``, ``scheduling``, ``lp``,
``coordination``, ``sharded``).  :data:`PER_LAYER` lists every metric a
``--trace 1`` run reports, with its unit, as ``BENCHMARK.json`` declares
them; ``*_s`` metrics are self seconds per op.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from tracer import Target, Tracer

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_metrics(section: str) -> List[Tuple[str, str]]:
    """(name, unit) of every metric ``BENCHMARK.json`` declares in
    ``section``, in report order: the one list of the benchmark's metrics."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


PER_LAYER = declared_metrics("per_layer")


def _see(tag: str):
    def after(tr: Tracer, args: tuple, result: Any) -> None:
        tr.see(tag, args[0])
    return after


def _solve_after(tr: Tracer, args: tuple, sol: Any) -> None:
    tr.count("lp.iterations", sol.iterations)
    tr.count("lp.warm", bool(sol.warm_started))


def _hit_after(key: str):
    def after(tr: Tracer, args: tuple, result: Any) -> None:
        tr.count(key, result is not None)
    return after


# Counters read off the instances the wrappers saw, once per op.
HARVEST = {
    "l7": lambda r: {"l7.admitted": sum(r.admitted.values())},
    "l4": lambda r: {"l4.admitted": sum(r.admitted.values())},
    "alloc": lambda a: {"scheduling.cache_hits": a.cache_hits,
                        "scheduling.lp_solves": a.lp_solves},
}


def op_targets() -> List[Target]:
    """The public calls wrapped around every traced op."""
    from repro.cluster.columnar import ColumnarClient
    from repro.cluster.server import Server
    from repro.coordination.aggregation import VectorAggregate
    from repro.coordination.protocol import AggregationNode
    from repro.coordination.shm import ShmDataPlane
    from repro.l4.switch import L4Switch
    from repro.l7.redirector import L7Redirector
    from repro.lp import solver
    from repro.lp.cache import SolveCache
    from repro.scheduling.allocator import WindowAllocator
    from repro.scheduling.community import CommunityScheduler
    from repro.scheduling.provider import ProviderScheduler
    from repro.sim.engine import Simulator

    return [
        Target(Simulator, "schedule", "sim.schedule"),
        Target(Simulator, "schedule_at", "sim.schedule_at"),
        Target(Server, "submit", "cluster.submit"),
        Target(ColumnarClient, "take_until", "cluster.take_until"),
        Target(L7Redirector, "handle", "l7.handle", _see("l7")),
        Target(L4Switch, "handle", "l4.handle", _see("l4")),
        Target(L4Switch, "install", "l4.install"),
        Target(WindowAllocator, "compute", "scheduling.compute", _see("alloc")),
        Target(CommunityScheduler, "schedule", "lp.schedule"),
        Target(ProviderScheduler, "schedule", "lp.schedule"),
        Target(solver, "solve", "lp.solve", _solve_after, everywhere=True),
        Target(SolveCache, "get", "lp.cache_get", _hit_after("lp.cache_hits")),
        Target(AggregationNode, "on_message", "coordination.on_message"),
        Target(VectorAggregate, "merge", "coordination.merge"),
        Target(ShmDataPlane, "try_read_boundary", "coordination.read_boundary",
               _hit_after("coordination.read_hits")),
        Target(ShmDataPlane, "write_allocation", "coordination.write_allocation"),
    ]


def reference_targets() -> List[Target]:
    """Wrapped around a second, traced run of each timed op's untimed
    ``shards=1`` reference."""
    from repro.experiments.sharded import ShardState

    return [Target(ShardState, "step", "sharded.step")]


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when the layer did no such work on this workload."""
    return num / den if den else 0.0


def _median(xs: Sequence[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(tr: Tracer, ref_tr: Tracer, traced_walls: Sequence[float],
                  untraced_p50: float, sharded_ops: Sequence[Dict[str, Any]],
                  reference_walls: Sequence[float], lp_import_s: float
                  ) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``tr`` traced ``len(traced_walls)`` ops.  ``reference_walls`` are the
    untraced walls of the timed ops' references, and ``ref_tr`` traced a
    second run of each (only the sharded workload's references do any
    work).  ``sharded_ops`` holds the wall time and ``ShardedResult``
    fields of each untraced sharded op.
    """
    n = max(1, len(traced_walls))
    c = tr.counts

    def per_op_calls(*names: str) -> float:
        return tr.calls(*names) / n

    def per_op_self(*names: str) -> float:
        return tr.self_s(*names) / n

    solves = tr.calls("lp.solve")
    m: Dict[str, float] = {
        "sim.events": per_op_calls("sim.schedule", "sim.schedule_at"),
        "sim.self_s": per_op_self("sim.schedule", "sim.schedule_at"),
        "cluster.submit_calls": per_op_calls("cluster.submit"),
        "cluster.submit_s": per_op_self("cluster.submit"),
        "cluster.take_until_calls": per_op_calls("cluster.take_until"),
        "cluster.take_until_s": per_op_self("cluster.take_until"),
        "l7.handle_calls": per_op_calls("l7.handle"),
        "l7.handle_s": per_op_self("l7.handle"),
        "l7.admit_ratio": _ratio(c.get("l7.admitted", 0.0), tr.calls("l7.handle")),
        "l4.handle_calls": per_op_calls("l4.handle"),
        "l4.handle_s": per_op_self("l4.handle"),
        "l4.admit_ratio": _ratio(c.get("l4.admitted", 0.0), tr.calls("l4.handle")),
        "l4.install_s": per_op_self("l4.install"),
        "scheduling.compute_calls": per_op_calls("scheduling.compute"),
        "scheduling.compute_s": per_op_self("scheduling.compute"),
        "scheduling.tol_hit_ratio": _ratio(
            c.get("scheduling.cache_hits", 0.0),
            c.get("scheduling.cache_hits", 0.0) + c.get("scheduling.lp_solves", 0.0)),
        "lp.schedule_s": per_op_self("lp.schedule"),
        "lp.solves": solves / n,
        "lp.solve_s": per_op_self("lp.solve"),
        "lp.solvecache_hit_ratio": _ratio(c.get("lp.cache_hits", 0.0),
                                          tr.calls("lp.cache_get")),
        "lp.iterations": c.get("lp.iterations", 0.0) / n,
        "lp.warm_ratio": _ratio(c.get("lp.warm", 0.0), solves),
        "lp.import_s": lp_import_s,
        "coordination.messages": per_op_calls("coordination.on_message"),
        "coordination.merge_calls": per_op_calls("coordination.merge"),
        "coordination.merge_s": per_op_self("coordination.merge"),
        "coordination.read_polls": per_op_calls("coordination.read_boundary"),
        "coordination.poll_hit_ratio": _ratio(
            c.get("coordination.read_hits", 0.0),
            tr.calls("coordination.read_boundary")),
        "coordination.publish_s": per_op_self("coordination.write_allocation"),
    }
    sh = sharded_ops
    waits = [o["plane_wait_s"] + o["barrier_wait_s"] for o in sh]
    m.update({
        "coordination.plane_wait_s": _median([o["plane_wait_s"] for o in sh]),
        "coordination.barrier_wait_s": _median([o["barrier_wait_s"] for o in sh]),
        "coordination.bytes_per_epoch": _median([o["bytes_per_epoch"] for o in sh]),
        "sharded.epoch_s": _median([o["wall"] / o["n_windows"] for o in sh]),
        "sharded.parent_busy_s": _median([o["wall"] - w for o, w in zip(sh, waits)]),
        "sharded.wait_share": _median([w / o["wall"] for o, w in zip(sh, waits)]),
        "sharded.step_s": ref_tr.self_s("sharded.step") / max(1, len(reference_walls)),
        "sharded.scaling_eff": _ratio(
            _median(reference_walls),
            _median([o["shards"] * o["wall"] for o in sh])),
        "sharded.lp_solves": _median([o["lp_solves"] for o in sh]),
        "trace.overhead": _median(traced_walls) / untraced_p50 - 1.0,
        "trace.coverage": _ratio(tr.layer_self_s(), sum(traced_walls)),
    })
    return m

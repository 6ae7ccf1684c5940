#!/usr/bin/env python3
"""Fast self-test of the benchmark (tiny ops; about a minute).

    python3 perfbench/selftest.py

Checks that a tiny op of every workload makes the command print every
named metric with its unit, that a failing op is counted in
``fail_ratio``, that the traced run leaves no wrapper installed, and that
the online self times equal the ones recomputed from the stored spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from layers import PER_LAYER, op_targets, reference_targets  # noqa: E402
from tracer import Target, Tracer  # noqa: E402
from workloads import WORKLOADS, make_workload, op_seed  # noqa: E402

run.locate_program()


def self_times_from_spans(spans):
    """Per-name self time recomputed from stored spans (cross-check of the
    tracer's online bookkeeping)."""
    child = {}
    for _, _, t0, t1, parent in spans:
        child[parent] = child.get(parent, 0.0) + (t1 - t0)
    out = {}
    for sid, name, t0, t1, _ in spans:
        out[name] = out.get(name, 0.0) + (t1 - t0) - child.get(sid, 0.0)
    return out


def tiny(name: str):
    return make_workload(name, tiny=True)


class FailingWorkload:
    """Wraps a workload; every op with ``fail_seed`` raises."""

    def __init__(self, inner, fail_seed: int) -> None:
        self.inner = inner
        self.fail_seed = fail_seed
        self.entry_points = inner.entry_points

    def reference(self, seed: int):
        return self.inner.reference(seed)

    def op(self, seed: int, reference=None):
        if seed == self.fail_seed:
            raise RuntimeError("forced failure")
        return self.inner.op(seed, reference)


def run_cli(argv, make=tiny):
    """Run the command in-process; returns (last-line JSON, stdout)."""
    out = io.StringIO()
    with mock.patch.object(run, "make_workload", make), \
            mock.patch.object(run, "SETUP_REPEATS", 1), \
            mock.patch.object(run, "LP_IMPORT_REPEATS", 1), \
            contextlib.redirect_stdout(out):
        code = run.main(argv)
    assert code == 0
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def installed_originals():
    """Identity of every attribute the traced run may patch."""
    targets = op_targets() + reference_targets()
    found = {}
    for t in targets:
        fn = vars(t.owner)[t.attr]
        found[(id(t.owner), t.attr)] = fn
        if t.everywhere:
            for m in list(sys.modules.values()):
                if m is not None and vars(m).get(t.attr) is fn:
                    found[(id(m), t.attr)] = fn
    return found


class MetricsEmitted(unittest.TestCase):
    def check(self, workload: str, trace: int) -> None:
        res, _ = run_cli(["--workload", workload, "--seed", "3",
                          "--seconds", "0", "--trace", str(trace)])
        want = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(res["metrics"]), [n for n, _ in want])
        for name, unit in want:
            metric = res["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            self.assertIsInstance(metric["value"], float, name)
        if workload == "sharded_fig6":
            # Digest parity holds at any scale; the figures' paper phase
            # rates need the real scale's settle time, so tiny figure ops
            # may legitimately fail their check here.
            self.assertEqual(res["failed"], 0)
        if not trace:
            # req_per_s counts the requests of correct ops only.
            positive = ["setup_s", "op_s_p50", "cpu_s_per_op", "peak_rss_mb"]
            if res["correct"]:
                positive.append("req_per_s")
            for name in positive:
                self.assertGreater(res["metrics"][name]["value"], 0.0, name)

    def test_every_workload_both_modes(self) -> None:
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)

    def test_per_layer_names_unique(self) -> None:
        names = [n for n, _ in PER_LAYER + run.END_TO_END]
        self.assertEqual(len(names), len(set(names)))


class SpeedProbeHygiene(unittest.TestCase):
    def test_probe_timer_and_handler_restored(self) -> None:
        before = signal.getsignal(signal.SIGALRM)
        res, _ = run_cli(["--workload", "figures", "--seed", "4",
                          "--seconds", "0", "--trace", "0"])
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        detail = json.loads((run.OUT / "figures-seed4-trace0.json").read_text())
        self.assertTrue(all(o["probes"] for o in detail["ops"]))
        self.assertGreater(detail["report_only"]["host_slowdown"]["value"], 0.0)


class FailuresCounted(unittest.TestCase):
    def test_raising_op_counts_in_fail_ratio(self) -> None:
        seed = 5
        make = lambda name: FailingWorkload(tiny(name), op_seed(seed, 1))
        res, text = run_cli(["--workload", "sharded_fig6", "--seed",
                             str(seed), "--seconds", "0", "--trace", "0"],
                            make=make)
        # Input 1 raises on each of its REPEATS runs; none is retried away.
        self.assertEqual(res["failed"], run.REPEATS)
        self.assertFalse(res["correct"])
        self.assertIn("forced failure", text)
        detail = json.loads((run.OUT / f"sharded_fig6-seed{seed}-trace0.json")
                            .read_text())
        self.assertEqual(detail["report_only"]["fail_ratio"]["value"],
                         run.REPEATS / res["attempted"])

    def test_wrong_digest_is_a_failure(self) -> None:
        class WrongReference(FailingWorkload):
            def reference(self, seed: int):
                return "0" * 64

        wl = WrongReference(tiny("sharded_fig6"), fail_seed=-1)
        ops = run.measure(wl, 1, 0.0).ops
        self.assertTrue(ops)
        self.assertTrue(all(not o.ok for o in ops))


class TracerHygiene(unittest.TestCase):
    def test_no_wrapper_left_after_traced_run(self) -> None:
        before = installed_originals()
        for workload in WORKLOADS:
            run_cli(["--workload", workload, "--seed", "2", "--seconds", "0",
                     "--trace", "1"])
        self.assertEqual(installed_originals(), before)

    def test_restored_when_traced_code_raises(self) -> None:
        before = installed_originals()
        tr = Tracer()
        with self.assertRaises(RuntimeError):
            with tr.installed(op_targets()):
                self.assertNotEqual(installed_originals(), before)
                raise RuntimeError("boom")
        self.assertEqual(installed_originals(), before)

    def test_online_self_time_matches_spans(self) -> None:
        tr = Tracer(span_cap=10 ** 9)
        wl = tiny("figures")
        with tr.installed(op_targets()):
            tr.call("op", wl.op, 7, None)
        recomputed = self_times_from_spans(tr.spans)
        self.assertGreater(tr.calls("sim.schedule"), 0)
        for name, (_, _, self_s) in tr.stats.items():
            self.assertAlmostEqual(recomputed.get(name, 0.0), self_s,
                                   delta=1e-6, msg=name)

    def test_function_imported_by_name_is_wrapped(self) -> None:
        from repro.lp import solver
        from repro.scheduling import community

        tr = Tracer()
        with tr.installed([Target(solver, "solve", "lp.solve", everywhere=True)]):
            self.assertTrue(hasattr(community.solve, "__wrapped__"))
            self.assertIs(community.solve, solver.solve)
        self.assertFalse(hasattr(community.solve, "__wrapped__"))


if __name__ == "__main__":
    unittest.main(verbosity=2)

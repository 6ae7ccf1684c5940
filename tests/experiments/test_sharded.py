"""Sharded single-scenario execution: parity, routing, and failure tests.

The sharded lane's whole contract is one equality: ``shards=1`` and
``shards=R`` produce bit-identical SHA-256 digests for every R — whether
the R shards ran as worker processes over the shared-memory plane or
inline because shm was unavailable.  The digest deliberately excludes the
shard count, so equality *is* the proof that partitioning, boundary
publication (shared-memory seqlock slots) and the combining-tree fold
carry no shard-dependent state.
"""

import platform

import pytest

from repro.coordination.barrier import ShardWorkerError
from repro.coordination.checkpoint import RecoveryPolicy
from repro.experiments.figures import run_fig6, run_fig9
from repro.experiments.harness import Scenario
from repro.experiments.sharded import (
    ShardedRunner,
    run_sharded,
    run_sharded_figure,
    sharded_fig6_world,
)
from repro.faults.plan import FaultPlanError

# Small but non-degenerate worlds: 4 replicas give fig6 8 clusters and
# fig9 4 clusters, so every shard count below actually partitions work.
SCALE = 0.02
REPLICAS = 4


def digest(figure, shards, seed=0):
    return run_sharded(figure, duration_scale=SCALE, seed=seed,
                       shards=shards, replicas=REPLICAS).digest()


def pretend_non_x86(monkeypatch):
    """Pretend to be an aarch64 host, where the fence-free seqlock is
    unsafe and the runner must step the world inline."""
    monkeypatch.setattr(platform, "machine", lambda: "aarch64")


class TestDigestParity:
    """``inline`` forces the shm-unavailable fallback (a non-x86-64 CPU),
    which must be as digest-invisible as the worker processes are."""

    @pytest.mark.parametrize("plane", ["shm", "inline"])
    def test_fig6_bit_identical_across_shard_counts(self, plane, monkeypatch):
        reference = digest("fig6", 1)
        if plane == "inline":
            pretend_non_x86(monkeypatch)
        for shards in (2, 4, 8):
            res = run_sharded("fig6", duration_scale=SCALE, seed=0,
                              shards=shards, replicas=REPLICAS)
            # A host without usable shm runs the "shm" case inline too.
            assert res.data_plane == plane or res.transport_fallback
            assert res.digest() == reference

    @pytest.mark.parametrize("plane", ["shm", "inline"])
    def test_fig9_bit_identical_across_shard_counts(self, plane, monkeypatch):
        reference = digest("fig9", 1)
        if plane == "inline":
            pretend_non_x86(monkeypatch)
        for shards in (2, 4):
            res = run_sharded("fig9", duration_scale=SCALE, seed=0,
                              shards=shards, replicas=REPLICAS)
            # A host without usable shm runs the "shm" case inline too.
            assert res.data_plane == plane or res.transport_fallback
            assert res.digest() == reference

    def test_digest_depends_on_seed_not_shards(self):
        assert digest("fig6", 1, seed=0) != digest("fig6", 1, seed=1)
        assert digest("fig6", 4, seed=1) == digest("fig6", 1, seed=1)

    def test_shards_clamped_to_cluster_count(self):
        world = sharded_fig6_world(duration_scale=SCALE, seed=0, replicas=1)
        runner = ShardedRunner(world, shards=64)
        assert runner.shards == len(world.clusters)

    def test_policy_counters_match_inline(self):
        a = run_sharded("fig6", duration_scale=SCALE, seed=0, shards=1,
                        replicas=REPLICAS)
        b = run_sharded("fig6", duration_scale=SCALE, seed=0, shards=4,
                        replicas=REPLICAS)
        # The LP runs in the parent either way: identical merged demand
        # must produce identical solve/cache/fallback counts.
        assert (a.lp_solves, a.cache_hits, a.fallback_windows) == \
               (b.lp_solves, b.cache_hits, b.fallback_windows)


class TestDataPlane:
    """Plane selection and the byte accounting the bench gates on."""

    def test_inline_run_reports_inline_plane(self):
        res = run_sharded("fig6", duration_scale=SCALE, seed=0, shards=1,
                          replicas=REPLICAS)
        assert res.data_plane == "inline"
        assert res.transport_fallback is None
        assert res.checkpoint_bytes == 0

    def test_non_x86_host_runs_inline(self, monkeypatch):
        pretend_non_x86(monkeypatch)
        res = run_sharded("fig6", duration_scale=SCALE, seed=0, shards=2,
                          replicas=REPLICAS)
        assert res.data_plane == "inline"
        assert res.shards == 1
        assert "aarch64" in res.transport_fallback
        assert res.digest() == digest("fig6", 1)

    def test_shm_moves_an_order_of_magnitude_fewer_bytes(self):
        shm = run_sharded("fig6", duration_scale=SCALE, seed=0, shards=4,
                          replicas=REPLICAS)
        if shm.data_plane != "shm":        # platform without POSIX shm
            assert shm.transport_fallback
            pytest.skip(f"shm unavailable: {shm.transport_fallback}")
        assert shm.transport_fallback is None
        # The pickled pipe plane moved 29724 B/epoch on the 64-cluster
        # bench world; a tenth of that bounds shm even on this world.
        assert 0 < shm.bytes_per_epoch <= 29724 // 10
        # The deferred checkpoint ring is accounted, not hidden.
        assert shm.ring_bytes_per_epoch > 0

    @pytest.mark.parametrize("shards", [2, 4])
    def test_checkpoint_bytes_count_the_retained_ring(self, shards):
        res = run_sharded("fig6", duration_scale=SCALE, seed=0,
                          shards=shards, replicas=REPLICAS,
                          checkpoint_retain=3)
        if res.data_plane != "shm":
            pytest.skip(f"shm unavailable: {res.transport_fallback}")
        assert res.checkpoint_bytes > 0
        assert res.checkpoint_bytes == 3 * res.ring_bytes_per_epoch

    def test_figure_notes_name_the_data_plane(self):
        res = run_sharded_figure("fig6", duration_scale=SCALE, seed=0,
                                 shards=2)
        assert "data plane shm" in res.notes


class TestFigureIntegration:
    def test_fig6_phase_rates_match_paper(self):
        res = run_sharded_figure("fig6", duration_scale=0.2, seed=0, shards=2)
        assert res.ok, res.notes
        assert "shards=2" in res.notes

    def test_fig9_phase_rates_match_paper(self):
        res = run_sharded_figure("fig9", duration_scale=0.2, seed=0, shards=2)
        assert res.ok, res.notes

    def test_run_fig6_routes_to_sharded_lane(self):
        res = run_fig6(duration_scale=0.2, seed=0, shards=2)
        assert "sharded lane" in res.notes

    def test_run_fig9_routes_to_sharded_lane(self):
        res = run_fig9(duration_scale=0.2, seed=0, shards=2)
        assert "sharded lane" in res.notes

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="sharded lane supports"):
            run_sharded("fig10")


class TestScenarioFallback:
    def test_event_lane_scenario_falls_back_to_serial(self, fig6_graph):
        scenario = Scenario(fig6_graph, shards=4)
        assert scenario.shards == 1
        assert scenario.shard_fallback is not None
        assert "sharded lane" in scenario.shard_fallback

    def test_shards_one_is_not_a_fallback(self, fig6_graph):
        scenario = Scenario(fig6_graph, shards=1)
        assert scenario.shards == 1
        assert scenario.shard_fallback is None

    def test_invalid_shards_rejected(self, fig6_graph):
        with pytest.raises(ValueError):
            Scenario(fig6_graph, shards=0)


class TestWorkerFailure:
    def test_worker_death_raises_typed_error_not_hang(self, monkeypatch):
        # Shard 0 calls os._exit(3) at the top of epoch 1; with recovery
        # disabled the barrier must detect the dead process and raise
        # within its timeout (the PR 7 fail-stop contract, preserved).
        monkeypatch.setenv("REPRO_SHARD_FAULT", "0:1")
        world = sharded_fig6_world(duration_scale=SCALE, seed=0,
                                   replicas=REPLICAS)
        runner = ShardedRunner(world, shards=2, epoch_timeout=30.0,
                               recovery=None)
        with pytest.raises(ShardWorkerError, match="died mid-window"):
            runner.run()

    def test_fault_env_ignored_by_other_shards(self, monkeypatch):
        # A fault address that never fires must leave results untouched.
        monkeypatch.setenv("REPRO_SHARD_FAULT", "99:0")
        assert digest("fig6", 2) == digest("fig6", 1)

    def test_explicit_out_of_range_fault_is_typed_error(self):
        world = sharded_fig6_world(duration_scale=SCALE, seed=0,
                                   replicas=REPLICAS)
        with pytest.raises(FaultPlanError, match="shard 9"):
            ShardedRunner(world, shards=2, faults=["9:1"])

    def test_explicit_malformed_fault_is_typed_error(self):
        world = sharded_fig6_world(duration_scale=SCALE, seed=0,
                                   replicas=REPLICAS)
        with pytest.raises(FaultPlanError, match="malformed"):
            ShardedRunner(world, shards=2, faults=["0:1:frobnicate"])

    def test_explicit_fault_past_the_horizon_is_typed_error(self):
        # A 60-window world has no epoch 9999: the fault could never fire,
        # and a run that silently skipped it would "pass" untested.
        world = sharded_fig6_world(duration_scale=SCALE, seed=0,
                                   replicas=REPLICAS)
        assert world.n_windows == 60
        with pytest.raises(FaultPlanError, match="epoch 9999"):
            ShardedRunner(world, shards=2, faults=["0:9999:kill"])
        with pytest.raises(FaultPlanError, match="epoch 60"):
            ShardedRunner(world, shards=2, faults=["0:60"])
        ShardedRunner(world, shards=2, faults=["0:59"])   # last epoch is fine


def faulted(figure, shards, faults, **kwargs):
    return run_sharded(figure, duration_scale=SCALE, seed=0, shards=shards,
                       replicas=REPLICAS, faults=faults, **kwargs)


class TestCrashRecovery:
    """Self-healing: deaths at window barriers leave the digest intact.

    Recovery restores from the shared checkpoint ring (decoded binary
    records) and must land on the unfaulted ``shards=1`` digest.
    """

    def test_exception_death_recovers_bit_identical(self):
        res = faulted("fig6", 2, ["0:3:exc"])
        assert [r.epoch for r in res.restarts] == [3]
        assert res.restarts[0].restored_epoch == 2
        assert res.digest() == digest("fig6", 1)

    def test_sigkill_death_recovers_bit_identical(self):
        res = faulted("fig6", 2, ["1:4:kill"])
        assert len(res.restarts) == 1
        assert res.digest() == digest("fig6", 1)

    def test_two_deaths_two_epochs_both_paths(self):
        baseline = run_sharded("fig6", duration_scale=SCALE, seed=0,
                               shards=1, replicas=REPLICAS)
        res = faulted("fig6", 4, ["0:2:exc", "1:5:kill"])
        assert [(r.shard, r.epoch) for r in res.restarts] == [(0, 2), (1, 5)]
        assert res.digest() == baseline.digest()
        # Recovery restored exactly the state the unfaulted run ends in.
        assert res.final_checkpoint_digest == baseline.final_checkpoint_digest

    def test_death_at_epoch_zero_rebuilds_fresh(self):
        res = faulted("fig6", 2, ["0:0:exc"])
        assert res.restarts[0].restored_epoch == -1
        assert res.digest() == digest("fig6", 1)

    def test_restart_records_checkpoint_digest(self):
        res = faulted("fig6", 2, ["0:3:exc"])
        assert res.restarts[0].restored_digest  # non-empty SHA-256
        assert res.restarts[0].attempt == 1     # 1-based: first respawn

    def test_budget_exhaustion_reassigns_to_survivors(self):
        policy = RecoveryPolicy(max_restarts=1, backoff_base=0.01)
        res = faulted("fig6", 2, ["0:2:kill", "0:4:kill"], recovery=policy)
        assert len(res.restarts) == 1
        assert len(res.reassignments) == 1
        move = res.reassignments[0]
        assert move.shard == 0 and move.epoch == 4
        assert set(move.assignments.values()) == {1}   # only survivor
        assert res.digest() == digest("fig6", 1)

    def test_no_reassign_policy_fails_stop(self):
        policy = RecoveryPolicy(max_restarts=0, reassign_on_exhaustion=False,
                                backoff_base=0.01)
        world = sharded_fig6_world(duration_scale=SCALE, seed=0,
                                   replicas=REPLICAS)
        runner = ShardedRunner(world, shards=2, epoch_timeout=30.0,
                               recovery=policy, faults=["0:2:exc"])
        with pytest.raises(ShardWorkerError):
            runner.run()

    def test_fig9_recovery_parity(self):
        res = faulted("fig9", 2, ["0:3:kill"])
        assert len(res.restarts) == 1
        assert res.digest() == digest("fig9", 1)


class TestUnexercisedCrashesFail:
    """A crash run that recorded no restart tested nothing: on a host
    that runs inline (no worker to kill) it must fail, not pass."""

    def test_crash_matrix_cells_need_a_restart(self, monkeypatch):
        from repro.experiments.faultmatrix import run_crash_recovery_matrix

        pretend_non_x86(monkeypatch)
        report = run_crash_recovery_matrix("fig6", duration_scale=SCALE,
                                           shards=2, replicas=REPLICAS)
        cells = report["cells"]
        assert all(c["match"] for c in cells.values())   # digests agree...
        assert all(c["restarts"] == 0 for c in cells.values())
        assert not any(c["ok"] for c in cells.values())  # ...yet nothing ran
        assert not report["ok"]

    def test_sharded_replay_crash_run_needs_a_restart(self, monkeypatch):
        from repro.analysis.replay import sharded_replay

        pretend_non_x86(monkeypatch)
        report = sharded_replay("fig6", duration_scale=SCALE, shards=2,
                                with_crashes=True)
        assert report.meta["crash_restarts"] == 0
        assert not report.ok
        crash = report.digests[report.labels.index("shards=2+crashes")]
        assert crash.endswith(":restart-not-triggered")

"""EpochBarrier failure model: every bad outcome is a typed error, fast.

The barrier's contract is that a worker that dies, stalls, or breaks the
control protocol surfaces as :class:`ShardWorkerError` in the parent —
never a hang.  Most tests drive the barrier directly over raw pipes (no
:class:`ShardedRunner`), so each failure mode is isolated.  The epoch
deadline and the poll backoff live in the runner's gather loop, so the
tests for those drive a runner whose worker entry point is swapped for a
silent or slow one.
"""

import multiprocessing as mp
import os
import time

import pytest

from repro.coordination.barrier import (
    BoundaryMessage,
    EpochBarrier,
    FinishMessage,
    ReassignMessage,
    ShardWorkerError,
    WorkerFailure,
)
from repro.experiments import sharded
from repro.experiments.sharded import ShardedRunner, sharded_fig6_world

CTX = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                     else "spawn")

_REAL_WORKER_MAIN = sharded._shard_worker_main


def _echo_worker(conn):
    """Answer each ReassignMessage with a matching BoundaryMessage."""
    while True:
        msg = conn.recv()
        if isinstance(msg, FinishMessage):
            return
        conn.send(BoundaryMessage(msg.epoch, 0, {}))


def _crash_worker(conn):
    conn.recv()
    os._exit(7)


def _stuck_worker(conn):
    """Never reads, never replies — simulates a wedged worker."""
    while True:
        time.sleep(60.0)


def _silent_shard_worker(conn, task):
    """A shard worker that stays alive but never publishes a boundary."""
    while True:
        time.sleep(60.0)


def _slow_start_shard_worker(conn, task):
    """A real shard worker that starts 0.3 s late."""
    time.sleep(0.3)
    _REAL_WORKER_MAIN(conn, task)


def _pipe_pair():
    parent, child = CTX.Pipe()
    return parent, child


def _start(target):
    parent, child = _pipe_pair()
    proc = CTX.Process(target=target, args=(child,), daemon=True)
    proc.start()
    child.close()
    return parent, proc


def _recv_within(barrier, shard, epoch, seconds=10.0):
    """Poll ``try_recv`` until a message arrives (or a typed error)."""
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        msg = barrier.try_recv(shard, epoch, BoundaryMessage)
        if msg is not None:
            return msg
        time.sleep(0.005)
    pytest.fail(f"nothing from shard {shard} within {seconds}s")


def _tiny_runner(**kwargs):
    world = sharded_fig6_world(duration_scale=0.001, seed=0, replicas=1)
    return ShardedRunner(world, shards=2, recovery=None, **kwargs)


class TestHappyPath:
    def test_send_try_recv_roundtrip(self):
        parent, proc = _start(_echo_worker)
        barrier = EpochBarrier([parent], [proc])
        try:
            for epoch in range(3):
                barrier.send(0, ReassignMessage(epoch))
                msg = _recv_within(barrier, 0, epoch)
                assert msg.epoch == epoch
            barrier.send(0, FinishMessage(3))
        finally:
            barrier.close(terminate=True)

    def test_len_counts_workers(self):
        a, _ = _pipe_pair()
        b, _ = _pipe_pair()
        assert len(EpochBarrier([a, b])) == 2


class TestFailureModes:
    def test_dead_worker_raises_not_hangs(self):
        parent, proc = _start(_crash_worker)
        barrier = EpochBarrier([parent], [proc])
        try:
            barrier.send(0, ReassignMessage(0))
            with pytest.raises(ShardWorkerError, match="died mid-window"):
                _recv_within(barrier, 0, 0)
        finally:
            barrier.close(terminate=True)

    def test_timeout_raises_typed_error(self, monkeypatch):
        # The workers stay alive and never publish: liveness cannot end
        # the wait, so the runner's epoch deadline must.
        monkeypatch.setattr(sharded, "_shard_worker_main",
                            _silent_shard_worker)
        runner = _tiny_runner(epoch_timeout=1.0)
        t0 = time.monotonic()
        with pytest.raises(ShardWorkerError, match="no boundary publication"):
            runner.run()
        assert time.monotonic() - t0 < 30.0

    def test_worker_failure_message_reraised(self):
        parent, child = _pipe_pair()
        child.send(WorkerFailure(0, "ValueError: boom"))
        barrier = EpochBarrier([parent])
        with pytest.raises(ShardWorkerError, match="ValueError: boom"):
            barrier.try_recv(0, 0, BoundaryMessage)

    def test_wrong_message_type_rejected(self):
        parent, child = _pipe_pair()
        child.send(FinishMessage(0))
        barrier = EpochBarrier([parent])
        with pytest.raises(ShardWorkerError, match="expected BoundaryMessage"):
            barrier.try_recv(0, 0, BoundaryMessage)

    def test_epoch_skew_rejected(self):
        parent, child = _pipe_pair()
        child.send(BoundaryMessage(4, 0, {}))
        barrier = EpochBarrier([parent])
        with pytest.raises(ShardWorkerError, match="epoch skew"):
            barrier.try_recv(0, 3, BoundaryMessage)

    def test_send_to_closed_pipe_raises(self):
        parent, child = _pipe_pair()
        parent.close()
        child.close()
        barrier = EpochBarrier([parent])
        with pytest.raises(ShardWorkerError, match="pipe closed"):
            barrier.send(0, FinishMessage(0))

    def test_mismatched_process_list_rejected(self):
        parent, _child = _pipe_pair()
        with pytest.raises(ValueError):
            EpochBarrier([parent], processes=[])


class TestTeardown:
    """Regression: a failed run must leak no worker process or pipe FD.

    The old ``close`` only terminated processes it was asked about and
    left parent pipe ends open; a wedged worker (or one that outlived a
    crashed sibling) survived the run.  ``close(terminate=True)`` must
    now kill and reap *every* slot and null both sides' references.
    """

    def test_close_reaps_all_workers_even_wedged_ones(self):
        conns, procs = [], []
        for _ in range(3):
            parent, proc = _start(_stuck_worker)
            conns.append(parent)
            procs.append(proc)
        barrier = EpochBarrier(conns, procs)
        handles = list(procs)
        barrier.close(terminate=True)
        # Liveness: every worker is dead and reaped, every slot released.
        for proc in handles:
            # A closed handle raises ValueError on is_alive(); either the
            # handle is closed or the process is provably dead.
            try:
                assert not proc.is_alive()
            except ValueError:
                pass
        assert barrier.connections == [None, None, None]
        assert barrier.processes == [None, None, None]

    def test_close_closes_parent_pipe_ends(self):
        parent, proc = _start(_echo_worker)
        barrier = EpochBarrier([parent], [proc])
        barrier.close(terminate=True)
        with pytest.raises(OSError):
            parent.send(FinishMessage(0))

    def test_close_without_processes_just_closes_pipes(self):
        parent, _child = _pipe_pair()
        barrier = EpochBarrier([parent])
        barrier.close()
        assert barrier.connections == [None]


class TestSlotSurgery:
    def test_deactivate_retires_slot(self):
        a, _ca = _pipe_pair()
        b, _cb = _pipe_pair()
        barrier = EpochBarrier([a, b])
        barrier.deactivate(0)
        assert barrier.active == [1]
        with pytest.raises(ShardWorkerError, match="deactivated"):
            barrier.send(0, FinishMessage(0))
        with pytest.raises(ShardWorkerError, match="deactivated"):
            barrier.poll_control(0)

    def test_replace_installs_new_worker(self):
        parent, proc = _start(_crash_worker)
        barrier = EpochBarrier([parent], [proc])
        barrier.send(0, ReassignMessage(0))
        with pytest.raises(ShardWorkerError):
            _recv_within(barrier, 0, 0)
        parent2, proc2 = _start(_echo_worker)
        barrier.replace(0, parent2, proc2)
        try:
            barrier.send(0, ReassignMessage(1))
            assert _recv_within(barrier, 0, 1).epoch == 1
        finally:
            barrier.close(terminate=True)


class TestPollBackoff:
    """Pipe checks never block; the runner's slot polls back off
    exponentially instead of spinning."""

    def test_ready_message_needs_one_poll(self):
        parent, child = _pipe_pair()
        child.send(BoundaryMessage(0, 0, {}))
        barrier = EpochBarrier([parent])
        assert barrier.try_recv(0, 0, BoundaryMessage) is not None
        assert barrier.polls == 1

    def test_slow_worker_polls_logarithmically(self, monkeypatch):
        monkeypatch.setattr(sharded, "_shard_worker_main",
                            _slow_start_shard_worker)
        res = _tiny_runner().run()
        assert res.data_plane == "shm"
        # 0.3 s of silence on 2 slots: doubling from 50 us and capping at
        # 2 ms needs ~150 rounds; a flat 50 us spin would need thousands.
        assert 10 <= res.plane_polls <= 1000
        assert res.plane_wait_s >= 0.2

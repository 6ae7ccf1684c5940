"""Shared-memory data plane: layout, seqlock protocol, codec round-trips.

The plane's contract has two halves.  *Correctness*: every value read out
of a slot is bit-identical to what the writer published — demand/admitted
columns as float64, checkpoints through the fixed binary record — and a
reader can never observe a half-written slot (the seqlock returns "retry"
instead).  *Economics*: the layout arithmetic in ``segment_nbytes`` and
the per-epoch byte accounting must match the actual views, since the
bench gates on those numbers.

The torn-read stress test races a real writer thread against a reader on
one slot ring: the reader may retry arbitrarily often but must never
return a row mixing two epochs' values.  That is the empirical check
backing the module's documented reliance on x86-64 total store order —
which is also why the plane refuses to exist on any other CPU.
"""

import platform
import threading

import numpy as np
import pytest

from repro.coordination.aggregation import StreamStats
from repro.coordination.checkpoint import ClusterCheckpoint, record_words
from repro.coordination.shm import PlaneSpec, ShmDataPlane, ShmUnavailable
from repro.sim.rng import RngStreams

PRINCIPALS = ("A", "B")


def make_checkpoint(draws=7, clock=1.5):
    rng = RngStreams(0).get("cluster:R1")
    rng.random(draws)
    stats = StreamStats()
    for x in (0.25, 2.0):
        stats.observe(x)
    return ClusterCheckpoint(
        rng_state=rng.bit_generator.state,
        carry={"A": 0.5, "B": 0.125},
        response=stats,
        clock=clock,
    )


@pytest.fixture
def plane():
    p = ShmDataPlane.create(
        clusters=["R1[0]", "R1[1]", "R2[0]", "R2[1]"],
        principals=PRINCIPALS, shards=2, depth=2,
    )
    yield p
    p.close()
    p.unlink()


def boundary_for(names, value, ck=None):
    ck = ck if ck is not None else make_checkpoint()
    vec = [value, value + 0.5]
    return {n: (list(vec), [v * 2 for v in vec], ck) for n in names}


class TestLayout:
    def test_segment_nbytes_matches_constructed_views(self, plane):
        C, P = 4, len(PRINCIPALS)
        assert plane.segment_bytes == \
            ShmDataPlane.segment_nbytes(C, P, shards=2, depth=2)
        # ctl + shards*depth*(seq word + C*(2P cols + record)) in words.
        expected = (3 + P) + 2 * 2 * (1 + C * (2 * P + record_words(P)))
        assert plane.segment_bytes == 8 * expected

    def test_byte_accounting(self, plane):
        C, P = 4, len(PRINCIPALS)
        assert plane.boundary_bytes_per_epoch == 8 * (C * 2 * P + (3 + P) + 2)
        assert plane.ring_bytes_per_epoch == 8 * C * record_words(P)

    @pytest.mark.parametrize("machine", ["aarch64", "arm64", "ppc64le", ""])
    def test_refused_without_x86_store_order(self, monkeypatch, machine):
        monkeypatch.setattr(platform, "machine", lambda: machine)
        with pytest.raises(ShmUnavailable, match="x86-64"):
            ShmDataPlane.create(clusters=["R1"], principals=PRINCIPALS,
                                shards=1)

    def test_depth_below_two_rejected(self, plane):
        bad = PlaneSpec(name="x", clusters=("a",), principals=PRINCIPALS,
                        shards=1, depth=1)
        with pytest.raises(ValueError, match="depth"):
            ShmDataPlane(bad, plane._shm, owner=False)


class TestAllocationBlock:
    def test_round_trip_with_absent_principal_as_nan(self, plane):
        plane.write_allocation(3, {"A": 0.75})          # B absent
        ready, frac = plane.poll_allocation(3)
        assert ready and frac == {"A": 0.75}            # key set preserved

    def test_none_frac_is_conservative_marker(self, plane):
        plane.write_allocation(0, None)
        ready, frac = plane.poll_allocation(0)
        assert ready and frac is None

    def test_not_ready_for_other_epochs(self, plane):
        plane.write_allocation(2, {"A": 0.5, "B": 0.5})
        assert plane.poll_allocation(1) == (False, None)
        assert plane.poll_allocation(3) == (False, None)

    def test_exact_float_bits_survive(self, plane):
        vals = {"A": 0.1 + 0.2, "B": 1.0 / 3.0}         # not representable
        plane.write_allocation(0, vals)
        _, frac = plane.poll_allocation(0)
        assert frac == vals                              # == is bitwise here


class TestBoundarySlots:
    def test_publish_then_read_is_bit_exact(self, plane):
        names = ["R1[0]", "R2[0]"]
        plane.publish(0, epoch=5, boundary=boundary_for(names, 1.25))
        rows = plane.try_read_boundary(0, 5, names)
        assert rows is not None
        d, a = rows["R1[0]"]
        assert list(d) == [1.25, 1.75] and list(a) == [2.5, 3.5]

    def test_unpublished_epoch_reads_none(self, plane):
        assert plane.try_read_boundary(0, 0, ["R1[0]"]) is None
        plane.publish(0, epoch=0, boundary=boundary_for(["R1[0]"], 1.0))
        assert plane.try_read_boundary(0, 2, ["R1[0]"]) is None  # same slot

    def test_odd_sequence_word_means_torn(self, plane):
        plane.publish(0, epoch=4, boundary=boundary_for(["R1[0]"], 1.0))
        plane.seq_words(0)[0] = 2 * 4 + 1               # mid-write marker
        assert plane.try_read_boundary(0, 4, ["R1[0]"]) is None

    def test_partial_publish_preserves_other_rows(self, plane):
        # A reassignment survivor republishes only adopted rows; its own
        # earlier writes in the same slot must survive.
        plane.publish(0, epoch=0, boundary=boundary_for(["R1[0]"], 1.0))
        plane.publish(0, epoch=0, boundary=boundary_for(["R2[0]"], 9.0))
        rows = plane.try_read_boundary(0, 0, ["R1[0]", "R2[0]"])
        assert list(rows["R1[0]"][0]) == [1.0, 1.5]
        assert list(rows["R2[0]"][0]) == [9.0, 9.5]

    def test_shards_have_independent_rings(self, plane):
        plane.publish(0, epoch=0, boundary=boundary_for(["R1[0]"], 1.0))
        assert plane.try_read_boundary(1, 0, ["R1[0]"]) is None


class TestCheckpointRing:
    def test_ring_round_trip_preserves_digest(self, plane):
        ck = make_checkpoint(draws=13)
        plane.publish(0, epoch=2, boundary=boundary_for(["R1[0]"], 0.0, ck))
        plane.publish(1, epoch=2, boundary=boundary_for(["R2[1]"], 0.0, ck))
        out = plane.read_checkpoints(2, {"R1[0]": 0, "R2[1]": 1})
        assert out["R1[0]"].digest() == ck.digest()
        assert out["R2[1]"].digest() == ck.digest()

    def test_wrong_epoch_in_slot_is_an_error(self, plane):
        plane.publish(0, epoch=0, boundary=boundary_for(["R1[0]"], 0.0))
        with pytest.raises(RuntimeError, match="checkpoint ring"):
            plane.read_checkpoints(2, {"R1[0]": 0})     # slot holds epoch 0


class TestAttach:
    def test_worker_view_shares_the_owner_segment(self, plane):
        worker = ShmDataPlane.attach(plane.spec)
        try:
            worker.publish(1, epoch=0, boundary=boundary_for(["R1[1]"], 3.0))
            rows = plane.try_read_boundary(1, 0, ["R1[1]"])
            assert rows is not None and list(rows["R1[1]"][0]) == [3.0, 3.5]
            plane.write_allocation(1, {"A": 0.25, "B": 0.5})
            assert worker.poll_allocation(1) == (True, {"A": 0.25, "B": 0.5})
        finally:
            worker.close()                              # owner still unlinks


class TestSeqlockStress:
    def test_reader_never_folds_a_mixed_epoch_row(self):
        # A writer thread publishes epochs as fast as it can into a
        # depth-2 ring; every published row holds the epoch number in all
        # columns.  The reader targets specific epochs: any non-None
        # return must be internally consistent (all values from that one
        # epoch).  With 64 clusters the row copy is slow enough that the
        # writer regularly laps the reader mid-copy, so the seqlock's
        # retry path is exercised for real, not just in theory.
        clusters = [f"C{i}" for i in range(64)]
        plane = ShmDataPlane.create(clusters=clusters, principals=PRINCIPALS,
                                    shards=1, depth=2)
        ck = make_checkpoint()
        stop = threading.Event()
        epochs_written = [0]

        def writer():
            e = 0
            vec = np.empty(len(PRINCIPALS))
            while not stop.is_set():
                vec[:] = float(e)
                plane.publish(
                    0, e,
                    {n: (vec, vec, ck) for n in clusters},
                )
                epochs_written[0] = e
                e += 1

        t = threading.Thread(target=writer)
        t.start()
        try:
            # Read until both 200 consistent copies *and* at least one
            # retry have been seen: on a quiet host the writer may not lap
            # the reader within the first 200 reads, so keep reading (a
            # bounded budget) until the race has actually happened.
            successes = retries = attempts = 0
            while ((successes < 200 or retries == 0)
                   and attempts < 2_000_000):
                attempts += 1
                e = epochs_written[0]           # a recently valid epoch
                rows = plane.try_read_boundary(0, e, clusters)
                if rows is None:
                    retries += 1                # torn or lapped: retried
                    continue
                successes += 1
                want = float(e)
                for d, a in rows.values():
                    assert np.all(d == want) and np.all(a == want), \
                        "seqlock let a mixed-epoch row through"
        finally:
            stop.set()
            t.join()
            plane.close()
            plane.unlink()
        assert successes >= 200
        # The race is real: the writer lapped the reader at least once.
        assert retries > 0

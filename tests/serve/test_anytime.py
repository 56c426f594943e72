"""Unit tests for the AnytimeEstimate publish/consume protocol."""

import threading

import numpy as np
import pytest
from scipy.stats import norm

from repro.core.exceptions import ValidationError
from repro.serve import AnytimeEstimate


def publish(est, *, completed=1, total=10, values=(1.0, 2.0),
            stderr=(0.1, 0.2)):
    return est.publish(method="m", completed=completed, total=total,
                       values=np.asarray(values, dtype=float),
                       stderr=np.asarray(stderr, dtype=float))


class TestPublish:
    def test_snapshot_fields_and_halfwidth(self):
        est = AnytimeEstimate(confidence=0.9)
        assert est.latest() is None
        assert publish(est) is False
        snap = est.latest()
        assert snap.method == "m"
        assert snap.completed == 1 and snap.total == 10
        assert snap.seq == 1 and not snap.done and snap.error is None
        z = norm.ppf(0.95)
        np.testing.assert_allclose(snap.halfwidth, z * np.array([0.1, 0.2]))
        assert snap.width == pytest.approx(z * 0.2)
        assert snap.fraction == pytest.approx(0.1)

    def test_quantile_matches_scipy_oracle(self):
        """The interval quantile comes from the standard library; scipy's
        ``norm.ppf`` is the independent check."""
        confidences = np.linspace(0.5, 0.999, 200)
        z = []
        for confidence in confidences:
            est = AnytimeEstimate(confidence=confidence)
            publish(est, values=(0.0,), stderr=(1.0,))
            z.append(est.latest().halfwidth[0])
        np.testing.assert_allclose(z, norm.ppf(0.5 + confidences / 2.0),
                                   rtol=1e-14, atol=0)

    def test_arrays_are_copied(self):
        est = AnytimeEstimate()
        values = np.array([1.0, 2.0])
        est.publish(method="m", completed=1, total=2, values=values,
                    stderr=np.zeros(2))
        values[0] = 99.0
        assert est.latest().values[0] == 1.0

    def test_seq_increments_per_publish(self):
        est = AnytimeEstimate()
        for k in range(1, 4):
            publish(est, completed=k)
            assert est.latest().seq == k

    def test_halfwidth_monotone_under_clt_shrinking_stderr(self):
        # Feeding the canonical CLT sequence s/sqrt(k) must yield a
        # nonincreasing width — the property stop_when() relies on.
        est = AnytimeEstimate()
        widths = []
        for k in range(2, 50):
            publish(est, completed=k, total=50,
                    stderr=(1.0 / np.sqrt(k), 0.5 / np.sqrt(k)))
            widths.append(est.latest().width)
        assert all(a >= b for a, b in zip(widths, widths[1:]))


class TestEarlyStop:
    def test_stop_when_fires_at_threshold(self):
        est = AnytimeEstimate()
        est.stop_when(0.5)
        assert publish(est, stderr=(1.0, 1.0)) is False
        assert publish(est, stderr=(0.1, 0.1)) is True

    def test_inf_stderr_never_satisfies_stop_when(self):
        est = AnytimeEstimate()
        est.stop_when(1e9)
        assert publish(est, stderr=(0.0, np.inf)) is False

    def test_stop_forces_next_publish(self):
        est = AnytimeEstimate()
        assert publish(est) is False
        est.stop()
        assert publish(est, stderr=(np.inf, np.inf)) is True

    def test_zero_width_threshold_needs_exact_estimate(self):
        est = AnytimeEstimate()
        est.stop_when(0.0)
        assert publish(est, stderr=(0.1, 0.0)) is False
        assert publish(est, stderr=(0.0, 0.0)) is True


class TestLifecycle:
    def test_mark_done_republishes_with_final_values(self):
        est = AnytimeEstimate()
        publish(est)
        est.mark_done(np.array([3.0, 4.0]))
        snap = est.latest()
        assert est.done and snap.done
        assert list(snap.values) == [3.0, 4.0]
        assert snap.seq == 2

    def test_mark_done_without_any_publish(self):
        est = AnytimeEstimate()
        est.mark_done(np.array([1.0]))
        assert est.done and est.latest().done

    def test_mark_failed_attaches_error(self):
        est = AnytimeEstimate()
        publish(est)
        est.mark_failed(RuntimeError("boom"))
        snap = est.latest()
        assert snap.done and "boom" in snap.error

    def test_wait_returns_newer_snapshot(self):
        est = AnytimeEstimate()
        publish(est)
        snap = est.wait(seq=0, timeout=1.0)
        assert snap is not None and snap.seq == 1
        assert est.wait(seq=snap.seq, timeout=0.02) is None

    def test_stream_from_background_publisher(self):
        est = AnytimeEstimate()

        def produce():
            for k in range(1, 5):
                publish(est, completed=k, total=4)
            est.mark_done()

        thread = threading.Thread(target=produce)
        thread.start()
        snaps = list(est.stream(timeout=5.0))
        thread.join()
        assert snaps[-1].done
        seqs = [s.seq for s in snaps]
        assert seqs == sorted(seqs)  # never goes backwards


class TestValidation:
    def test_confidence_bounds(self):
        with pytest.raises(ValidationError):
            AnytimeEstimate(confidence=0.0)
        with pytest.raises(ValidationError):
            AnytimeEstimate(confidence=1.0)

    def test_every_bound(self):
        with pytest.raises(ValidationError):
            AnytimeEstimate(every=0)

    def test_negative_stop_width_rejected(self):
        with pytest.raises(ValidationError):
            AnytimeEstimate().stop_when(-0.1)

"""Systematic crash-point enumeration over every durable writer.

Each case runs this file as a subprocess driver with the crash seam of
:mod:`repro.core.durable` armed: the hook SIGKILLs the process the
moment one chosen publish reaches one seam point (temp file written,
fsynced, renamed into place, directory fsynced). The parent then
recovers the way a user would and checks the crash-safety claims:

- **checkpoint** — a ``checkpoint=`` :class:`MonteCarloShapley` run
  killed while writing its third record resumes to scores, call counts
  and cache keys hex-identical to an uninterrupted run;
- **append / finalize** — a :class:`ShardWriter` killed inside a shard
  publish, a journal publish or the final-manifest publish never shows
  a torn file under a final name, and resuming finishes a dataset
  byte-identical to an uninterrupted one;
- **cache** — a :class:`FingerprintCache` killed inside a disk put
  returns, in a fresh process, exact values or misses — never a wrong
  float. The disk tier does not fsync, so it passes only the
  ``written`` and ``renamed`` points.

Run by hand as ``python tests/core/test_crash_points.py <writer>
<target-dir> <point> <file-glob> <nth>``.
"""

import fnmatch
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import durable
from repro.data import ShardWriter, ShardedDataset
from repro.data.shards import MANIFEST_NAME, PARTIAL_MANIFEST_NAME
from repro.datasets import make_blobs
from repro.importance import MonteCarloShapley, Utility
from repro.ml import LogisticRegression
from repro.observe import Observer
from repro.runtime import FingerprintCache, Runtime

SRC = str(Path(__file__).resolve().parents[2] / "src")
META = {"origin": "crash-points"}
CACHE_KEYS = [f"{i:02x}" + "5" * 62 for i in range(5)]


# --- the workloads, shared by the driver and the checks ----------------------

def chunks():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(30, 2))
    y = rng.integers(0, 2, size=30)
    return [{"X": X[i:i + 10], "y": y[i:i + 10]} for i in range(0, 30, 10)]


def cache_value(i: int) -> float:
    return 1.0 / (i + 3)


def run_shapley(**kwargs):
    X, y = make_blobs(48, n_features=3, centers=2, seed=7)
    utility = Utility(LogisticRegression(max_iter=40), X[:24], y[:24],
                      X[32:], y[32:],
                      runtime=Runtime(backend="serial",
                                      cache=FingerprintCache()))
    scores = MonteCarloShapley(n_permutations=6, seed=11,
                               checkpoint_every=1, **kwargs).score(utility)
    return ([v.hex() for v in scores], utility.calls,
            sorted(utility.runtime.cache.keys()))


def write_dataset(path):
    writer = ShardWriter(path)
    for chunk in chunks():
        writer.append(chunk)
    return writer.finalize(META)


def run_writer(writer: str, target: Path) -> None:
    if writer == "checkpoint":
        run_shapley(checkpoint=target)
    elif writer in ("append", "finalize"):
        write_dataset(target)
    else:
        cache = FingerprintCache(disk_dir=target)
        for i, key in enumerate(CACHE_KEYS):
            cache.put(key, cache_value(i))


def arm(point: str, pattern: str, nth: int) -> None:
    """SIGKILL this process when the ``nth`` publish of a file matching
    ``pattern`` reaches ``point``."""
    seen = [0]

    def hook(at, path):
        if at == point and fnmatch.fnmatch(path.name, pattern):
            seen[0] += 1
            if seen[0] == nth:
                os.kill(os.getpid(), signal.SIGKILL)

    durable._crash_hook = hook


# --- cases: (writer, file, glob, nth publish) × each seam point it passes ---

_TARGETS = [
    ("checkpoint", "record", "ckpt-*.json", 3),
    ("append", "shard", "shard-00001.shard", 1),
    ("append", "journal", PARTIAL_MANIFEST_NAME, 3),  # init, 2 appends
    ("finalize", "manifest", MANIFEST_NAME, 1),
    ("cache", "entry", "*.fpv", 3),
]
CASES = [
    pytest.param(writer, pattern, nth, point, id=f"{writer}-{file}-{point}")
    for writer, file, pattern, nth in _TARGETS
    for point in (("written", "renamed") if writer == "cache"
                  else durable.SEAM_POINTS)
]


@pytest.fixture(scope="module")
def shapley_reference():
    return run_shapley()


@pytest.fixture(scope="module")
def dataset_reference(tmp_path_factory):
    return write_dataset(tmp_path_factory.mktemp("reference") / "data")


def _kill_at(tmp_path, writer, pattern, nth, point) -> Path:
    target = tmp_path / writer
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, __file__, writer, str(target), point, pattern,
         str(nth)], env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == -signal.SIGKILL, "kill site never reached"
    return target


@pytest.mark.slow
@pytest.mark.parametrize("writer,pattern,nth,point", CASES)
def test_crash_point_recovers(tmp_path, writer, pattern, nth, point,
                              shapley_reference, dataset_reference):
    target = _kill_at(tmp_path, writer, pattern, nth, point)
    if writer == "checkpoint":
        _check_checkpoint_resume(target, shapley_reference)
    elif writer == "cache":
        _check_cache(target, point)
    else:
        _check_dataset(target, dataset_reference)


def _check_checkpoint_resume(store, reference):
    observer = Observer()
    assert run_shapley(resume_from=store, observer=observer) == reference
    assert observer.as_dict()["metrics"]["checkpoint.restores"] == 1


def _check_dataset(target, reference: ShardedDataset):
    expected = {p.name: p.read_bytes()
                for p in reference.path.glob("shard-*.shard")}
    expected[MANIFEST_NAME] = (reference.path / MANIFEST_NAME).read_bytes()
    # Nothing torn is visible under a final name.
    for name in [p.name for p in target.glob("shard-*.shard")] \
            + [MANIFEST_NAME]:
        if (target / name).exists():
            assert (target / name).read_bytes() == expected[name], name
    if (target / MANIFEST_NAME).exists():
        dataset = ShardedDataset(target)  # the final manifest wins
    else:
        writer = ShardWriter.resume(target)
        for chunk in chunks()[writer.n_shards:]:
            writer.append(chunk)
        dataset = writer.finalize(META)
    assert dataset.verify_all() == []
    assert not list(target.glob("*.tmp"))
    assert not (target / PARTIAL_MANIFEST_NAME).exists()
    for name, data in expected.items():
        assert (target / name).read_bytes() == data, name


def _check_cache(disk_dir, point):
    cache = FingerprintCache(disk_dir=disk_dir)
    got = [cache.get(key) for key in CACHE_KEYS]
    for i, value in enumerate(got):
        assert value is None or value.hex() == cache_value(i).hex()
    # Puts before the killed one landed; the killed one landed only if
    # its rename did; later ones never ran.
    landed = 3 if point == "renamed" else 2
    assert [v is not None for v in got] == [i < landed for i in range(5)]


if __name__ == "__main__":
    writer, target, point, pattern, nth = sys.argv[1:6]
    arm(point, pattern, int(nth))
    run_writer(writer, Path(target))
    sys.exit("the armed crash point was never reached")

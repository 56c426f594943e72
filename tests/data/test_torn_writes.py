"""Crash-consistency tests: SIGKILL mid-publish never tears a shard.

A subprocess driver writes a sharded dataset with the crash seam of
:mod:`repro.core.durable` armed, so it SIGKILLs itself deterministically
*inside* a publish window — after the temp file is fsynced but before
the rename. The format's contract: no partial shard or manifest is
ever visible under its final name, the journal only references
checksum-valid shards, and resuming completes a dataset byte-identical
to an uninterrupted run. ``tests/core/test_crash_points.py`` enumerates
every other seam point of every writer.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.exceptions import ValidationError
from repro.data import ShardWriter, ShardedDataset
from repro.data.shards import MANIFEST_NAME, PARTIAL_MANIFEST_NAME

SRC = str(Path(__file__).resolve().parents[2] / "src")

_DRIVER = '''\
"""Torn-write driver (modes: ref | shard | manifest)."""
import os
import signal
import sys

import numpy as np

from repro.core import durable
from repro.data import ShardWriter

META = {"origin": "torn-write-test"}


def parts():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(30, 2))
    y = rng.integers(0, 2, size=30)
    return [{"X": X[i:i + 10], "y": y[i:i + 10]} for i in range(0, 30, 10)]


def kill_after_fsync_of(name):
    def hook(point, path):
        if point == "fsynced" and path.name == name:
            os.kill(os.getpid(), signal.SIGKILL)
    durable._crash_hook = hook


def main():
    mode, path = sys.argv[1:3]
    chunks = parts()
    writer = ShardWriter(path)
    if mode == "ref":
        for chunk in chunks:
            writer.append(chunk)
        writer.finalize(META)
        return
    if mode == "shard":
        for chunk in chunks[:2]:
            writer.append(chunk)
        kill_after_fsync_of("shard-00002.shard")
        writer.append(chunks[2])
    else:  # manifest
        for chunk in chunks:
            writer.append(chunk)
        kill_after_fsync_of("manifest.json")
        writer.finalize(META)


main()
'''


def _write_driver(tmp_path) -> Path:
    driver = tmp_path / "torn_driver.py"
    driver.write_text(_DRIVER)
    return driver


def _reference(driver, tmp_path) -> ShardedDataset:
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, str(driver), "ref",
                    str(tmp_path / "ref")],
                   check=True, timeout=120, env=env, cwd=tmp_path)
    return ShardedDataset(tmp_path / "ref")


def _kill_mid_publish(driver, tmp_path, mode) -> Path:
    """Run the driver in ``mode``; it SIGKILLs itself inside the armed
    publish window (temp file fsynced, rename pending). Returns the
    dataset dir."""
    target = tmp_path / mode
    env = dict(os.environ, PYTHONPATH=SRC)
    process = subprocess.run([sys.executable, str(driver), mode,
                              str(target)],
                             timeout=120, env=env, cwd=tmp_path)
    assert process.returncode == -signal.SIGKILL
    return target


@pytest.mark.slow
class TestTornShardWrite:
    def test_sigkill_mid_shard_write_leaves_no_partial_shard(self, tmp_path):
        driver = _write_driver(tmp_path)
        reference = _reference(driver, tmp_path)
        target = _kill_mid_publish(driver, tmp_path, "shard")

        # The interrupted publish left its temp file, never the shard.
        assert list(target.glob("*.tmp"))
        visible = sorted(p.name for p in target.glob("shard-*.shard"))
        assert visible == [reference.shards[i].name for i in range(2)]
        # Every visible shard is whole — bit-for-bit the reference bytes.
        for i, name in enumerate(visible):
            assert (target / name).read_bytes() == \
                reference.shard_path(i).read_bytes()
        # Not readable as a dataset; the journal survives for resume.
        assert not (target / MANIFEST_NAME).exists()
        assert (target / PARTIAL_MANIFEST_NAME).exists()
        with pytest.raises(ValidationError, match="partial"):
            ShardedDataset(target)

        # Resume re-verifies the journal, sweeps the temp, and finishes
        # a dataset byte-identical to the uninterrupted run.
        writer = ShardWriter.resume(target)
        assert writer.n_shards == 2
        assert not list(target.glob("*.tmp"))
        chunk = {name: reference.load_shard(2)[name]
                 for name in reference.array_names}
        writer.append(chunk)
        resumed = writer.finalize({"origin": "torn-write-test"})
        for i in range(reference.n_shards):
            assert resumed.shard_path(i).read_bytes() == \
                reference.shard_path(i).read_bytes()
        assert (target / MANIFEST_NAME).read_bytes() == \
            (reference.path / MANIFEST_NAME).read_bytes()


@pytest.mark.slow
class TestTornManifestWrite:
    def test_sigkill_mid_manifest_write_is_recoverable(self, tmp_path):
        driver = _write_driver(tmp_path)
        reference = _reference(driver, tmp_path)
        target = _kill_mid_publish(driver, tmp_path, "manifest")

        # All shards were published whole; the manifest never appeared.
        assert not (target / MANIFEST_NAME).exists()
        assert (target / PARTIAL_MANIFEST_NAME).exists()
        visible = sorted(p.name for p in target.glob("shard-*.shard"))
        assert visible == [info.name for info in reference.shards]
        for i, name in enumerate(visible):
            assert (target / name).read_bytes() == \
                reference.shard_path(i).read_bytes()

        # Finalize-after-resume publishes the identical manifest.
        writer = ShardWriter.resume(target)
        assert writer.n_shards == reference.n_shards
        resumed = writer.finalize({"origin": "torn-write-test"})
        assert resumed.verify_all() == []
        assert (target / MANIFEST_NAME).read_bytes() == \
            (reference.path / MANIFEST_NAME).read_bytes()
        assert not (target / PARTIAL_MANIFEST_NAME).exists()

"""Tests for the on-disk sharded dataset format."""

import numpy as np
import pytest

from repro.core.exceptions import ValidationError
from repro.data import (
    ShardCorruptionError,
    ShardedDataset,
    ShardInfo,
    ShardWriter,
    write_shards,
)
from repro.data.shards import MANIFEST_NAME, PARTIAL_MANIFEST_NAME
from repro.observe import Observer


@pytest.fixture()
def arrays(rng):
    return {"X": rng.normal(size=(37, 3)),
            "y": rng.integers(0, 3, size=37)}


class TestWriteAndRead:
    def test_roundtrip_bit_identical(self, tmp_path, arrays):
        dataset = write_shards(tmp_path / "d", arrays, rows_per_shard=10)
        assert dataset.n_shards == 4
        assert dataset.n_rows == 37
        assert dataset.array_names == ["X", "y"]
        loaded = {name: np.concatenate([dataset.load_shard(i)[name]
                                        for i in range(dataset.n_shards)])
                  for name in dataset.array_names}
        for name in arrays:
            assert loaded[name].tobytes() == \
                np.asarray(arrays[name]).tobytes()
            assert loaded[name].dtype == np.asarray(arrays[name]).dtype

    def test_shard_files_are_byte_deterministic(self, tmp_path, arrays):
        a = write_shards(tmp_path / "a", arrays, rows_per_shard=10)
        b = write_shards(tmp_path / "b", arrays, rows_per_shard=10)
        for i in range(a.n_shards):
            assert a.shard_path(i).read_bytes() == b.shard_path(i).read_bytes()
            assert a.shards[i].sha256 == b.shards[i].sha256

    def test_object_dtype_roundtrip(self, tmp_path):
        labels = np.array(["a", "b", None, "longer-string"], dtype=object)
        dataset = write_shards(tmp_path / "d", {"labels": labels},
                               rows_per_shard=2)
        out = np.concatenate([dataset.load_shard(i)["labels"]
                              for i in range(dataset.n_shards)])
        assert all(x == y for x, y in zip(out, labels))

    def test_row_offsets(self, tmp_path, arrays):
        dataset = write_shards(tmp_path / "d", arrays, rows_per_shard=10)
        assert [dataset.row_offset(i) for i in range(4)] == [0, 10, 20, 30]
        assert [info.rows for info in dataset.shards] == [10, 10, 10, 7]

    def test_meta_persisted(self, tmp_path, arrays):
        dataset = write_shards(tmp_path / "d", arrays, rows_per_shard=20,
                               meta={"source": "unit-test"})
        reopened = ShardedDataset(dataset.path)
        assert reopened.meta["source"] == "unit-test"

    def test_observer_counters(self, tmp_path, arrays):
        observer = Observer(run_id="t")
        dataset = write_shards(tmp_path / "d", arrays, rows_per_shard=10,
                               observer=observer)
        dataset.load_shard(0, observer=observer)
        metrics = observer.as_dict()["metrics"]
        assert metrics["data.shards_written"] == 4
        assert metrics["data.bytes_written"] > 0
        assert metrics["data.shards_read"] == 1
        assert metrics["data.bytes_read"] > 0

    def test_validation_errors(self, tmp_path, arrays):
        with pytest.raises(ValidationError):
            write_shards(tmp_path / "a", arrays, rows_per_shard=0)
        with pytest.raises(ValidationError):
            write_shards(tmp_path / "b", {}, rows_per_shard=5)
        with pytest.raises(ValidationError):
            write_shards(tmp_path / "c",
                         {"X": np.zeros(4), "y": np.zeros(5)},
                         rows_per_shard=5)

    def test_open_requires_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValidationError, match="not a sharded dataset"):
            ShardedDataset(tmp_path / "empty")


class TestWriter:
    def test_mismatched_array_names_rejected(self, tmp_path):
        writer = ShardWriter(tmp_path / "d")
        writer.append({"X": np.zeros(3)})
        with pytest.raises(ValidationError, match="do not match"):
            writer.append({"Z": np.zeros(3)})

    def test_unequal_lengths_rejected(self, tmp_path):
        writer = ShardWriter(tmp_path / "d")
        with pytest.raises(ValidationError, match="share one length"):
            writer.append({"X": np.zeros(3), "y": np.zeros(4)})

    def test_refuses_finalized_directory(self, tmp_path, arrays):
        write_shards(tmp_path / "d", arrays, rows_per_shard=10)
        with pytest.raises(ValidationError, match="finalized"):
            ShardWriter(tmp_path / "d")

    def test_refuses_partial_directory_without_resume(self, tmp_path):
        writer = ShardWriter(tmp_path / "d")
        writer.append({"X": np.zeros(3)})
        with pytest.raises(ValidationError, match="resume"):
            ShardWriter(tmp_path / "d")

    def test_resume_continues_after_last_complete_shard(self, tmp_path,
                                                        arrays):
        reference = write_shards(tmp_path / "ref", arrays, rows_per_shard=10)
        # Write the first two shards, "die", resume, finish.
        writer = ShardWriter(tmp_path / "d")
        for start in (0, 10):
            writer.append({n: a[start:start + 10]
                           for n, a in arrays.items()})
        del writer  # killed before finalize — journal stays on disk

        resumed = ShardWriter.resume(tmp_path / "d")
        assert resumed.n_shards == 2
        for start in (20, 30):
            resumed.append({n: a[start:start + 10]
                            for n, a in arrays.items()})
        dataset = resumed.finalize()
        for i in range(reference.n_shards):
            assert dataset.shard_path(i).read_bytes() == \
                reference.shard_path(i).read_bytes()
        assert not (dataset.path / PARTIAL_MANIFEST_NAME).exists()

    def test_resume_detects_journaled_shard_corruption(self, tmp_path,
                                                       arrays):
        writer = ShardWriter(tmp_path / "d")
        writer.append({n: a[:10] for n, a in arrays.items()})
        shard = tmp_path / "d" / writer.shards[0].name
        shard.write_bytes(shard.read_bytes()[:-3] + b"zzz")
        with pytest.raises(ShardCorruptionError):
            ShardWriter.resume(tmp_path / "d")

    def test_resume_twice_keeps_array_names(self, tmp_path):
        # A writer killed again right after resuming must still hold the
        # dataset to its array names: the republished journal keeps them.
        writer = ShardWriter(tmp_path / "d")
        writer.append({"X": np.zeros(3)})
        ShardWriter.resume(tmp_path / "d")  # dies before its next append
        resumed = ShardWriter.resume(tmp_path / "d")
        with pytest.raises(ValidationError, match="do not match"):
            resumed.append({"Z": np.zeros(3)})

    def test_resume_sweeps_stray_temp_files(self, tmp_path):
        writer = ShardWriter(tmp_path / "d")
        writer.append({"X": np.zeros(3)})
        stray = tmp_path / "d" / "deadbeef.tmp"
        stray.write_bytes(b"half-written shard")
        resumed = ShardWriter.resume(tmp_path / "d")
        assert not stray.exists()
        resumed.finalize()

    def test_context_manager_finalizes_on_clean_exit(self, tmp_path):
        with ShardWriter(tmp_path / "d") as writer:
            writer.append({"X": np.arange(4)})
        dataset = ShardedDataset(tmp_path / "d")
        assert dataset.n_shards == 1

    def test_empty_finalize_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="empty"):
            ShardWriter(tmp_path / "d").finalize()

    def test_partial_dataset_open_error_is_helpful(self, tmp_path):
        writer = ShardWriter(tmp_path / "d")
        writer.append({"X": np.zeros(3)})
        with pytest.raises(ValidationError, match="partial dataset"):
            ShardedDataset(tmp_path / "d")


class TestCorruption:
    def test_checksum_failure_raises(self, tmp_path, arrays):
        dataset = write_shards(tmp_path / "d", arrays, rows_per_shard=10)
        path = dataset.shard_path(1)
        path.write_bytes(path.read_bytes()[:-4] + b"XXXX")
        with pytest.raises(ShardCorruptionError) as excinfo:
            dataset.load_shard(1)
        assert excinfo.value.index == 1
        assert excinfo.value.path == path
        # unverified load still decodes (the container is intact)
        dataset.load_shard(1, verify=False)

    def test_garbled_container_raises(self, tmp_path, arrays):
        dataset = write_shards(tmp_path / "d", arrays, rows_per_shard=10)
        dataset.shard_path(0).write_bytes(b"not a shard at all")
        with pytest.raises(ShardCorruptionError):
            dataset.load_shard(0)

    def test_verify_all_reports_damage(self, tmp_path, arrays):
        dataset = write_shards(tmp_path / "d", arrays, rows_per_shard=10)
        assert dataset.verify_all() == []
        dataset.shard_path(2).write_bytes(b"junk")
        assert dataset.verify_all() == [2]

    def test_quarantine_moves_file(self, tmp_path, arrays):
        dataset = write_shards(tmp_path / "d", arrays, rows_per_shard=10)
        target = dataset.quarantine_shard(1)
        assert target is not None and target.exists()
        assert not dataset.shard_path(1).exists()
        with pytest.raises(ShardCorruptionError, match="quarantine"):
            dataset.load_shard(1)

    def test_heal_from_mirror_restores_bytes(self, tmp_path, arrays):
        dataset = write_shards(tmp_path / "d", arrays, rows_per_shard=10,
                               mirror=True)
        original = dataset.shard_path(1).read_bytes()
        dataset.shard_path(1).write_bytes(b"bit rot")
        assert dataset.heal_from_mirror(1)
        assert dataset.shard_path(1).read_bytes() == original
        assert dataset.verify_all() == []

    def test_heal_without_mirror_fails(self, tmp_path, arrays):
        dataset = write_shards(tmp_path / "d", arrays, rows_per_shard=10)
        dataset.shard_path(1).write_bytes(b"bit rot")
        assert not dataset.heal_from_mirror(1)

    def test_torn_manifest_detected(self, tmp_path, arrays):
        dataset = write_shards(tmp_path / "d", arrays, rows_per_shard=10)
        manifest = dataset.path / MANIFEST_NAME
        manifest.write_text(manifest.read_text()[:-20])
        with pytest.raises(ShardCorruptionError, match="manifest"):
            ShardedDataset(dataset.path)


class TestShardInfo:
    def test_dict_roundtrip(self):
        info = ShardInfo(index=3, name="shard-00003.shard", rows=128,
                         sha256="ab" * 32, nbytes=4096)
        assert ShardInfo.from_dict(info.as_dict()) == info

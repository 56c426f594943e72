"""Pin the on-disk formats byte for byte.

Checkpoint records, shard files, partial and final manifests and disk
cache entries are read back by later releases (a resumed run, a dataset
written last week, a warm cache directory). The files under
``golden_bytes/`` were captured from the writers as they stood before
the atomic-publish layer was unified; every writer must keep producing
exactly those bytes.

Regenerate (only on a deliberate, versioned format change) with::

    PYTHONPATH=src python tests/core/test_golden_bytes.py --regenerate
"""

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data import ShardWriter
from repro.data.shards import MANIFEST_NAME, PARTIAL_MANIFEST_NAME
from repro.runtime import CheckpointStore, FingerprintCache

GOLDEN = Path(__file__).with_name("golden_bytes")

CACHE_KEY = "3f" + "a1" * 31


def _shard_arrays():
    return {"X": np.arange(12, dtype=np.float64).reshape(4, 3) / 7.0,
            "y": np.array([0, 1, 1, 0], dtype=np.int64)}


def build(root: Path) -> dict[str, Path]:
    """Write one artifact of each format under ``root``; map name → file."""
    store = CheckpointStore(root / "ckpt", keep=3)
    record = store.write("golden.kind", {
        "completed": 3,
        "marginals": [float(v).hex() for v in (0.1, -2.5, 1 / 3)],
        "array": np.array([1, 2, 3]),
        "nested": {"b": 1.25, "a": None},
    })

    writer = ShardWriter(root / "dataset")
    writer.append(_shard_arrays())
    partial = (root / "dataset" / PARTIAL_MANIFEST_NAME).read_bytes()
    (root / "partial_manifest.json").write_bytes(partial)
    writer.finalize({"origin": "golden"})

    cache = FingerprintCache(disk_dir=root / "cache")
    cache.put(CACHE_KEY, 0.1 + 0.2)
    return {
        "checkpoint_record.json": record.path,
        "partial_manifest.json": root / "partial_manifest.json",
        "final_manifest.json": root / "dataset" / MANIFEST_NAME,
        "shard-00000.shard": root / "dataset" / "shard-00000.shard",
        "cache_entry.fpv": root / "cache" / CACHE_KEY[:2]
        / f"{CACHE_KEY}.fpv",
    }


@pytest.mark.parametrize("name", ["checkpoint_record.json",
                                  "partial_manifest.json",
                                  "final_manifest.json",
                                  "shard-00000.shard",
                                  "cache_entry.fpv"])
def test_writer_bytes_match_golden(tmp_path, name):
    produced = build(tmp_path)[name].read_bytes()
    assert produced == (GOLDEN / name).read_bytes()


def test_no_temp_files_left_behind(tmp_path):
    build(tmp_path)
    assert not list(tmp_path.rglob("*.tmp"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.mkdir(exist_ok=True)
        for name, path in build(Path(scratch)).items():
            shutil.copyfile(path, GOLDEN / name)
            print(f"wrote {GOLDEN / name}")

"""Unit tests for group-by aggregation."""

import pytest

from repro.core.exceptions import SchemaError, ValidationError
from repro.dataframe import DataFrame


@pytest.fixture()
def frame():
    return DataFrame({
        "sector": ["health", "finance", "health", "finance", "health"],
        "grade": ["a", "a", "b", "b", None],
        "salary": [10.0, 20.0, 30.0, None, 50.0],
    })


class TestGrouping:
    def test_agg_on_empty_frame_keeps_columns(self, frame):
        empty = frame.head(0)
        result = empty.group_by("sector").agg(n=("salary", "count"),
                                              avg=("salary", "mean"))
        assert result.shape == (0, 3)
        assert result.columns == ["sector", "n", "avg"]

    def test_group_count(self, frame):
        assert len(frame.group_by("sector")) == 2

    def test_sizes(self, frame):
        assert frame.group_by("sector").sizes() == {
            ("health",): 3, ("finance",): 2,
        }

    def test_null_key_forms_own_group(self, frame):
        sizes = frame.group_by("grade").sizes()
        assert (None,) in sizes and sizes[(None,)] == 1

    def test_multi_key(self, frame):
        sizes = frame.group_by("sector", "grade").sizes()
        assert sizes[("health", "a")] == 1

    def test_missing_key_column_rejected(self, frame):
        with pytest.raises(SchemaError):
            frame.group_by("nope")

    def test_empty_keys_rejected(self, frame):
        with pytest.raises(ValidationError):
            frame.group_by()

    def test_groups_yield_subframes(self, frame):
        for key, sub in frame.group_by("sector").groups():
            assert set(sub["sector"].to_list()) == {key[0]}


class TestAggregation:
    def test_count_and_mean(self, frame):
        result = frame.group_by("sector").agg(
            n=("salary", "count"), avg=("salary", "mean"))
        by_sector = {r["sector"]: r for r in result.to_records()}
        assert by_sector["health"]["n"] == 3
        assert by_sector["health"]["avg"] == 30.0
        assert by_sector["finance"]["avg"] == 20.0  # null skipped

    def test_null_count_aggregate(self, frame):
        result = frame.group_by("sector").agg(nulls=("salary", "null_count"))
        by_sector = {r["sector"]: r["nulls"] for r in result.to_records()}
        assert by_sector["finance"] == 1

    def test_custom_callable_aggregate(self, frame):
        result = frame.group_by("sector").agg(
            spread=("salary", lambda col: (col.max() or 0) - (col.min() or 0)))
        by_sector = {r["sector"]: r["spread"] for r in result.to_records()}
        assert by_sector["health"] == 40.0

    def test_unknown_aggregate_rejected(self, frame):
        with pytest.raises(ValidationError):
            frame.group_by("sector").agg(x=("salary", "p99"))

    def test_empty_spec_rejected(self, frame):
        with pytest.raises(ValidationError):
            frame.group_by("sector").agg()

    def test_nunique_and_mode(self, frame):
        result = frame.group_by("sector").agg(
            kinds=("grade", "nunique"), common=("grade", "mode"))
        by_sector = {r["sector"]: r for r in result.to_records()}
        assert by_sector["health"]["kinds"] == 2

"""Unit tests for DataFrame relational operations."""

import numpy as np
import pytest

from repro.core.exceptions import SchemaError, ValidationError
from repro.dataframe import DataFrame, concat_rows


class TestConstruction:
    def test_shape_and_columns(self, small_frame):
        assert small_frame.shape == (5, 4)
        assert small_frame.columns == ["a", "b", "c", "flag"]

    def test_row_ids_are_unique_across_frames(self):
        f1 = DataFrame({"x": [1, 2]})
        f2 = DataFrame({"x": [3, 4]})
        assert set(f1.row_ids.tolist()).isdisjoint(f2.row_ids.tolist())

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            DataFrame({"a": [1, 2], "b": [1]})

    def test_from_records_fills_missing_keys_with_null(self):
        frame = DataFrame.from_records([{"a": 1}, {"a": 2, "b": "x"}])
        assert frame["b"].to_list() == [None, "x"]

    def test_row_returns_plain_dict(self, small_frame):
        row = small_frame.row(3)
        assert row == {"a": None, "b": "z", "c": 4.5, "flag": True}

    def test_copy_is_independent(self, small_frame):
        clone = small_frame.copy()
        clone["a"] = [9, 9, 9, 9, 9]
        assert small_frame["a"].get(0) == 1

    def test_null_counts(self, small_frame):
        assert small_frame.null_counts() == {"a": 1, "b": 1, "c": 1, "flag": 0}


class TestRowOperations:
    def test_take_keeps_row_ids(self, small_frame):
        subset = small_frame.take([2, 0])
        assert subset.row_ids.tolist() == [small_frame.row_ids[2],
                                           small_frame.row_ids[0]]

    def test_filter_with_mask(self, small_frame):
        result = small_frame.filter(np.asarray(small_frame["b"] == "x"))
        assert len(result) == 2

    def test_filter_with_callable(self, small_frame):
        result = small_frame.filter(lambda r: r["flag"])
        assert len(result) == 3

    def test_take_empty_list(self, small_frame):
        assert small_frame.take([]).shape == (0, 4)

    def test_filter_with_callable_on_empty_frame(self, small_frame):
        empty = small_frame.take(np.arange(0))
        result = empty.filter(lambda r: r["flag"])
        assert result.shape == (0, 4)
        assert result.columns == small_frame.columns

    def test_drop_rows_by_id(self, small_frame):
        target = small_frame.row_ids[1]
        result = small_frame.drop_rows([target])
        assert len(result) == 4
        assert target not in result.row_ids

    def test_drop_rows_tolerates_unknown_ids_by_default(self, small_frame):
        result = small_frame.drop_rows([small_frame.row_ids[0], 10**9])
        assert len(result) == len(small_frame) - 1

    def test_drop_rows_strict_rejects_unknown_ids(self, small_frame):
        bogus = 10**9
        with pytest.raises(ValidationError) as exc:
            small_frame.drop_rows([small_frame.row_ids[0], bogus],
                                  strict=True)
        assert str(bogus) in str(exc.value)

    def test_drop_rows_strict_accepts_known_ids(self, small_frame):
        result = small_frame.drop_rows(small_frame.row_ids[:2], strict=True)
        assert len(result) == len(small_frame) - 2

    def test_positions_of_roundtrip(self, small_frame):
        ids = small_frame.row_ids[[3, 1]]
        np.testing.assert_array_equal(small_frame.positions_of(ids), [3, 1])

    def test_positions_of_unknown_id_raises(self, small_frame):
        with pytest.raises(SchemaError):
            small_frame.positions_of([10**9])

    def test_sort_by_pushes_nulls_last(self, small_frame):
        result = small_frame.sort_by("c")
        assert result["c"].to_list()[-1] is None
        values = [v for v in result["c"].to_list() if v is not None]
        assert values == sorted(values)

    def test_sort_descending(self, small_frame):
        result = small_frame.sort_by("c", descending=True)
        values = [v for v in result["c"].to_list() if v is not None]
        assert values == sorted(values, reverse=True)

    def test_sample_without_replacement(self, small_frame):
        result = small_frame.sample(3, seed=0)
        assert len(result) == 3
        assert len(set(result.row_ids.tolist())) == 3

    def test_sample_too_large_rejected(self, small_frame):
        with pytest.raises(ValidationError):
            small_frame.sample(10)

    def test_split_fractions(self):
        frame = DataFrame({"x": list(range(100))})
        a, b, c = frame.split([0.6, 0.2, 0.2], seed=1)
        assert (len(a), len(b), len(c)) == (60, 20, 20)
        all_ids = set(a.row_ids) | set(b.row_ids) | set(c.row_ids)
        assert len(all_ids) == 100

    def test_split_over_one_rejected(self):
        with pytest.raises(ValidationError):
            DataFrame({"x": [1]}).split([0.7, 0.7])

    def test_set_values_by_row_id(self, small_frame):
        target = small_frame.row_ids[0]
        result = small_frame.set_values([target], "a", [42])
        assert result["a"].get(0) == 42
        assert small_frame["a"].get(0) == 1  # original untouched


class TestColumnOperations:
    def test_select(self, small_frame):
        assert small_frame.select(["b", "a"]).columns == ["b", "a"]

    def test_select_missing_raises(self, small_frame):
        with pytest.raises(SchemaError):
            small_frame.select(["nope"])

    def test_drop(self, small_frame):
        assert "a" not in small_frame.drop("a").columns

    def test_rename(self, small_frame):
        renamed = small_frame.rename({"a": "alpha"})
        assert "alpha" in renamed.columns and "a" not in renamed.columns

    def test_with_column_udf(self, small_frame):
        result = small_frame.with_column("double",
                                         lambda r: None if r["a"] is None
                                         else r["a"] * 2)
        assert result["double"].to_list() == [2, 4, 6, None, 10]

    def test_setitem_scalar_broadcast(self, small_frame):
        frame = small_frame.copy()
        frame["const"] = 7
        assert frame["const"].to_list() == [7] * 5

    def test_getitem_column_list(self, small_frame):
        sub = small_frame[["a", "b"]]
        assert sub.columns == ["a", "b"]


class TestJoins:
    def test_inner_join_basic(self):
        left = DataFrame({"k": ["a", "b", "c"], "v": [1, 2, 3]})
        right = DataFrame({"k": ["a", "b"], "w": [10, 20]})
        joined = left.join(right, on="k")
        assert len(joined) == 2
        assert joined["w"].to_list() == [10, 20]

    def test_inner_join_fanout(self):
        left = DataFrame({"k": ["a"], "v": [1]})
        right = DataFrame({"k": ["a", "a"], "w": [10, 20]})
        joined = left.join(right, on="k")
        assert len(joined) == 2

    def test_left_join_null_fills(self):
        left = DataFrame({"k": ["a", "z"], "v": [1, 2]})
        right = DataFrame({"k": ["a"], "w": [10]})
        joined = left.join(right, on="k", how="left")
        assert joined["w"].to_list() == [10, None]

    def test_null_keys_never_match(self):
        left = DataFrame({"k": [None, "a"], "v": [1, 2]})
        right = DataFrame({"k": [None, "a"], "w": [10, 20]})
        joined = left.join(right, on="k")
        assert len(joined) == 1

    def test_join_different_key_names(self):
        left = DataFrame({"lk": ["a"], "v": [1]})
        right = DataFrame({"rk": ["a"], "w": [2]})
        joined = left.join(right, on=("lk", "rk"))
        assert len(joined) == 1

    def test_join_name_collision_suffixed(self):
        left = DataFrame({"k": ["a"], "v": [1]})
        right = DataFrame({"k": ["a"], "v": [2]})
        joined = left.join(right, on="k")
        assert "v_right" in joined.columns

    def test_join_return_indices(self):
        left = DataFrame({"k": ["a", "b"], "v": [1, 2]})
        right = DataFrame({"k": ["b"], "w": [3]})
        _, lpos, rpos = left.join(right, on="k", return_indices=True)
        assert lpos.tolist() == [1]
        assert rpos.tolist() == [0]

    def test_invalid_how_rejected(self):
        frame = DataFrame({"k": ["a"]})
        with pytest.raises(ValidationError):
            frame.join(frame, on="k", how="outer")

    def test_fuzzy_join_normalizes_case_and_whitespace(self):
        left = DataFrame({"k": ["  Alpha Beta "], "v": [1]})
        right = DataFrame({"k": ["alpha  beta"], "w": [2]})
        joined = left.fuzzy_join(right, on="k")
        assert len(joined) == 1
        assert "__fuzzy_key__" not in joined.columns


class TestConcat:
    def test_concat_preserves_row_ids(self):
        f1 = DataFrame({"x": [1, 2]})
        f2 = DataFrame({"x": [3]})
        combined = concat_rows([f1, f2])
        assert combined.row_ids.tolist() == \
            f1.row_ids.tolist() + f2.row_ids.tolist()

    def test_concat_schema_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            concat_rows([DataFrame({"x": [1]}), DataFrame({"y": [1]})])

    def test_concat_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            concat_rows([])


class TestExport:
    def test_to_numpy_numeric(self, small_frame):
        matrix = small_frame.select(["a", "c"]).to_numpy()
        assert matrix.shape == (5, 2)

    def test_pretty_renders_nulls(self, small_frame):
        text = small_frame.pretty()
        assert "<null>" in text
        assert "row_id" in text


class TestDescribe:
    def test_numeric_summary(self, small_frame):
        summary = small_frame.describe()
        by_column = {r["column"]: r for r in summary.to_records()}
        assert by_column["a"]["count"] == 4
        assert by_column["a"]["nulls"] == 1
        assert by_column["a"]["min"] == 1.0
        assert by_column["a"]["max"] == 5.0

    def test_categorical_summary(self, small_frame):
        summary = small_frame.describe()
        by_column = {r["column"]: r for r in summary.to_records()}
        assert by_column["b"]["distinct"] == 3
        assert by_column["b"]["mode"] == "x"
        assert by_column["b"]["mean"] is None

    def test_one_row_per_column(self, small_frame):
        assert len(small_frame.describe()) == len(small_frame.columns)


class TestEditDistanceFuzzyJoin:
    def test_typo_resolved_within_distance_one(self):
        left = DataFrame({"city": ["berlim", "tokyo"], "v": [1, 2]})
        right = DataFrame({"city": ["berlin", "tokyo"], "w": [10, 20]})
        joined = left.fuzzy_join(right, on="city", max_edit_distance=1)
        assert len(joined) == 2
        assert sorted(joined["w"].to_list()) == [10, 20]

    def test_distance_zero_keeps_exact_semantics(self):
        left = DataFrame({"city": ["berlim"], "v": [1]})
        right = DataFrame({"city": ["berlin"], "w": [10]})
        assert len(left.fuzzy_join(right, on="city")) == 0

    def test_ambiguous_typos_stay_unmatched(self):
        """A key one edit away from TWO right keys must not guess."""
        left = DataFrame({"k": ["cat"], "v": [1]})
        right = DataFrame({"k": ["cut", "car"], "w": [10, 20]})
        joined = left.fuzzy_join(right, on="k", max_edit_distance=1)
        assert len(joined) == 0

    def test_far_keys_stay_unmatched(self):
        left = DataFrame({"k": ["zzzzzz"], "v": [1]})
        right = DataFrame({"k": ["berlin"], "w": [10]})
        joined = left.fuzzy_join(right, on="k", max_edit_distance=2)
        assert len(joined) == 0

    def test_levenshtein_helper(self):
        from repro.dataframe.frame import _levenshtein_within

        assert _levenshtein_within("kitten", "sitten", 1)
        assert _levenshtein_within("kitten", "sitting", 3)
        assert not _levenshtein_within("kitten", "sitting", 2)
        assert _levenshtein_within("", "ab", 2)
        assert not _levenshtein_within("", "abc", 2)

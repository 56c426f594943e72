"""Group-by aggregation for the dataframe engine.

Group assignment runs through the sort-based kernel
(:func:`repro.dataframe.kernels.group_positions`): per-key factorized
codes combined mixed-radix, one stable argsort, boundary split. The
row-wise tuple-dict loop is retained in
:mod:`repro.dataframe.reference` as the fallback for unsortable key
dtypes and as the differential-test oracle; both produce groups in
first-seen order.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import SchemaError, ValidationError
from repro.dataframe import kernels, reference
from repro.dataframe.kernels import KernelFallback

_AGGREGATES = {
    "count": lambda col: len(col),
    "sum": lambda col: col.sum(),
    "mean": lambda col: col.mean(),
    "std": lambda col: col.std(),
    "min": lambda col: col.min(),
    "max": lambda col: col.max(),
    "mode": lambda col: col.mode(),
    "null_count": lambda col: col.null_count(),
    "nunique": lambda col: len(col.unique()),
}


class GroupBy:
    """Deferred grouping created by :meth:`DataFrame.group_by`.

    Groups are formed over tuples of key values; rows with a null in any
    key column form their own ``None``-keyed groups (SQL-style grouping of
    nulls together per key value).
    """

    def __init__(self, frame, keys: list[str]):
        if not keys:
            raise ValidationError("group_by requires at least one key column")
        missing = [k for k in keys if k not in frame]
        if missing:
            raise SchemaError(f"no columns named {missing}; have {frame.columns}")
        self._frame = frame
        self._keys = keys
        key_columns = [frame[k] for k in keys]
        try:
            firsts, slices = kernels.group_positions(key_columns)
        except KernelFallback:
            firsts, slices = reference.group_positions_rowwise(key_columns)
        self._group_keys = [tuple(col.get(int(i)) for col in key_columns)
                            for i in firsts]
        self._group_positions = slices

    def __len__(self) -> int:
        return len(self._group_keys)

    def groups(self):
        """Iterate ``(key_tuple, sub_frame)`` pairs in first-seen order."""
        for key, positions in zip(self._group_keys, self._group_positions):
            yield key, self._frame.take(positions)

    def sizes(self) -> dict[tuple, int]:
        return {key: len(pos)
                for key, pos in zip(self._group_keys, self._group_positions)}

    def agg(self, **specs):
        """Aggregate into a new frame.

        Each keyword is ``output_name=(column, aggregate)`` where aggregate
        is one of count/sum/mean/std/min/max/mode/null_count/nunique or a
        callable taking a :class:`Column`.

        Example::

            df.group_by("sector").agg(n=("person_id", "count"),
                                      avg_rating=("employer_rating", "mean"))
        """
        from repro.dataframe.frame import DataFrame

        if not specs:
            raise ValidationError("agg requires at least one aggregation spec")
        rows = []
        for key, positions in zip(self._group_keys, self._group_positions):
            row = dict(zip(self._keys, key))
            for out_name, (column, how) in specs.items():
                func = _AGGREGATES.get(how, how) if isinstance(how, str) else how
                if isinstance(how, str) and how not in _AGGREGATES:
                    raise ValidationError(
                        f"unknown aggregate {how!r}; choose from {sorted(_AGGREGATES)}"
                    )
                # Aggregate over just the needed column slice instead of
                # materializing the whole sub-frame.
                value = func(self._frame[column].take(positions))
                row[out_name] = None if value is None else (
                    value.item() if isinstance(value, np.generic) else value
                )
            rows.append(row)
        # Explicit columns keep an empty frame's key and output columns.
        return DataFrame.from_records(rows, columns=[*self._keys, *specs])

"""The DataFrame: a dict of named columns with stable row identifiers.

Row identifiers (``row_ids``) give every row a durable identity that
survives filters, joins, projections and sorts. Provenance in
:mod:`repro.pipelines` is expressed entirely in terms of these ids, which
is what lets data-importance scores computed on pipeline *outputs* be
mapped back onto pipeline *source* rows.

The engine is columnar: every relational operator runs as a vectorized
kernel over typed array-backed columns (:mod:`repro.dataframe.kernels`),
with the original row-at-a-time loops retained in
:mod:`repro.dataframe.reference` as differential-test oracles and as
fallbacks for unsortable key dtypes. Columns are immutable, so
``select``/``copy``/``rename``/``head`` share backing arrays zero-copy;
mutation APIs (``__setitem__``, ``set_values``, ``with_column``) replace
whole columns instead.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Mapping

import numpy as np

from repro.core.exceptions import SchemaError, ValidationError
from repro.dataframe import kernels, reference
from repro.dataframe.column import Column
from repro.dataframe.expr import Expr
from repro.dataframe.kernels import KernelFallback
from repro.dataframe.reference import levenshtein_within as _levenshtein_within

_next_id_counter = [0]
#: Guards the global id counter: frames are constructed concurrently by
#: the repro.serve job tier, and a torn read-increment-write would hand
#: two frames overlapping ids (breaking provenance joins downstream).
_row_id_lock = threading.Lock()


def _fresh_row_ids(n: int) -> np.ndarray:
    """Allocate ``n`` globally unique row ids (thread-safe)."""
    with _row_id_lock:
        start = _next_id_counter[0]
        _next_id_counter[0] = start + n
    return np.arange(start, start + n, dtype=np.int64)


class DataFrame:
    """An ordered collection of equal-length named columns.

    Parameters
    ----------
    data:
        Mapping of column name to values (anything :class:`Column` accepts).
    row_ids:
        Optional explicit identifiers; freshly allocated when omitted.
        Operations that subset or reorder rows carry ids along, so
        ``frame.row_ids`` always answers "which original rows are these?".
    """

    def __init__(self, data: Mapping | None = None, row_ids=None):
        self._columns: dict[str, Column] = {}
        length = None
        for name, values in (data or {}).items():
            column = values if isinstance(values, Column) else Column(values)
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise ValidationError(
                    f"column {name!r} has length {len(column)}, expected {length}"
                )
            self._columns[str(name)] = column
        if length is None:
            length = 0 if row_ids is None else len(np.asarray(row_ids))
        if row_ids is None:
            self.row_ids = _fresh_row_ids(length)
        else:
            self.row_ids = np.asarray(row_ids, dtype=np.int64)
            if len(self.row_ids) != length:
                raise ValidationError(
                    f"row_ids has length {len(self.row_ids)}, expected {length}"
                )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable[Mapping], columns=None) -> "DataFrame":
        """Build from an iterable of row dicts (missing keys become null)."""
        records = list(records)
        if columns is None:
            columns, seen = [], set()
            for rec in records:
                for key in rec:
                    if key not in seen:
                        seen.add(key)
                        columns.append(key)
        data = {c: [rec.get(c) for rec in records] for c in columns}
        return cls(data)

    @classmethod
    def _from_columns(cls, columns: dict[str, Column], row_ids) -> "DataFrame":
        frame = cls.__new__(cls)
        frame._columns = columns
        frame.row_ids = np.asarray(row_ids, dtype=np.int64)
        return frame

    def copy(self) -> "DataFrame":
        """A new frame sharing this frame's (immutable) columns zero-copy.

        Mutation APIs replace whole columns, so sharing is safe; code that
        wants an independent backing array should copy a column explicitly
        via ``Column(frame[name])``.
        """
        return DataFrame._from_columns(dict(self._columns), self.row_ids.copy())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def columns(self) -> list[str]:
        return list(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self), len(self._columns))

    def __len__(self) -> int:
        return len(self.row_ids)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, key):
        """Column access by name, or row subsetting by boolean mask/indices."""
        if isinstance(key, str):
            if key not in self._columns:
                raise SchemaError(f"no column named {key!r}; have {self.columns}")
            return self._columns[key]
        if isinstance(key, (list, tuple)) and key and all(isinstance(k, str) for k in key):
            return self.select(list(key))
        return self.take(key)

    def __setitem__(self, name: str, values) -> None:
        column = values if isinstance(values, Column) else Column(
            np.full(len(self), values) if np.isscalar(values) or values is None else values
        )
        if len(column) != len(self):
            raise ValidationError(
                f"column length {len(column)} does not match frame length {len(self)}"
            )
        self._columns[str(name)] = column

    def __repr__(self) -> str:
        return f"DataFrame(shape={self.shape}, columns={self.columns})"

    def head(self, n: int = 5) -> "DataFrame":
        return self.take(slice(0, min(n, len(self))))

    def row(self, i: int) -> dict:
        """Row ``i`` as a plain dict (nulls become None)."""
        return {name: col.get(i) for name, col in self._columns.items()}

    def iter_rows(self):
        for i in range(len(self)):
            yield self.row(i)

    def to_records(self) -> list[dict]:
        return list(self.iter_rows())

    def to_shards(self, path, *, rows_per_shard: int, mirror: bool = False,
                  observer=None):
        """Spill the frame to an on-disk sharded dataset (see
        :func:`repro.data.frame_to_shards`); the round trip through
        :meth:`from_shards` is bitwise lossless. ``mirror=True`` keeps a
        verified replica of every shard for corruption healing."""
        from repro.data.frame_io import frame_to_shards
        return frame_to_shards(self, path, rows_per_shard=rows_per_shard,
                               mirror=mirror, observer=observer)

    @classmethod
    def from_shards(cls, dataset, *, observer=None, **reader_kwargs
                    ) -> "DataFrame":
        """Load a spilled frame back through the fault-tolerant reading
        service (see :func:`repro.data.frame_from_shards`);
        ``reader_kwargs`` are :class:`repro.data.ShardReader` knobs
        (``workers``, ``faults``, ``on_corrupt`` ...)."""
        from repro.data.frame_io import frame_from_shards
        return frame_from_shards(dataset, observer=observer,
                                 **reader_kwargs)

    def null_counts(self) -> dict[str, int]:
        return {name: col.null_count() for name, col in self._columns.items()}

    def schema(self) -> dict[str, str]:
        return {name: str(col.dtype) for name, col in self._columns.items()}

    # ------------------------------------------------------------------
    # Row-wise operations
    # ------------------------------------------------------------------
    def take(self, indices) -> "DataFrame":
        """Positional row selection (boolean mask, integer indices, or a
        :class:`slice` — slices are zero-copy views)."""
        if isinstance(indices, slice):
            columns = {n: c.take(indices) for n, c in self._columns.items()}
            return DataFrame._from_columns(columns, self.row_ids[indices])
        indices = np.asarray(indices)
        if indices.dtype == bool:
            if len(indices) != len(self):
                raise ValidationError(
                    f"boolean mask length {len(indices)} != frame length {len(self)}"
                )
            indices = np.flatnonzero(indices)
        elif indices.size == 0:
            indices = indices.astype(np.intp)  # ``[]`` arrives as float64
        columns = {n: c.take(indices) for n, c in self._columns.items()}
        return DataFrame._from_columns(columns, self.row_ids[indices])

    def filter(self, predicate) -> "DataFrame":
        """Keep rows where ``predicate`` holds.

        ``predicate`` is an :class:`~repro.dataframe.expr.Expr` (the fast
        path — evaluated as whole-column numpy operations), a boolean
        mask, or a callable mapping a row dict to bool (the retained
        row-wise fallback; rows with a null consumed by the callable are
        the callable's responsibility).
        """
        if isinstance(predicate, Expr):
            mask = predicate.evaluate(self)
        elif callable(predicate):
            mask = np.array([bool(predicate(row)) for row in self.iter_rows()],
                            dtype=bool)
        else:
            mask = np.asarray(predicate, dtype=bool)
        return self.take(mask)

    def drop_rows(self, row_ids, *, strict: bool = False) -> "DataFrame":
        """Remove rows by *identifier* (not position).

        With ``strict=True`` every id must exist in the frame;
        unknown ids raise :class:`ValidationError` listing the misses.
        The default keeps the historical tolerant behavior (unknown ids
        are ignored), which callers that *construct* id lists — rather
        than receive them from a user — rely on.
        """
        drop = np.asarray(np.atleast_1d(row_ids), dtype=np.int64)
        if strict and len(drop):
            present = np.isin(drop, self.row_ids)
            if not present.all():
                missing = sorted(int(i) for i in np.unique(drop[~present]))
                raise ValidationError(
                    f"row ids not present in frame: {missing} "
                    f"({len(missing)} of {len(drop)} requested)"
                )
        keep = ~np.isin(self.row_ids, drop)
        return self.take(keep)

    def _row_id_index(self):
        """Cached ``(order, sorted_ids)`` for vectorized id lookups."""
        cache = getattr(self, "_rid_cache", None)
        if cache is None:
            order = np.argsort(self.row_ids, kind="stable")
            cache = (order, self.row_ids[order])
            self._rid_cache = cache
        return cache

    def positions_of(self, row_ids) -> np.ndarray:
        """Map row identifiers to current positions (raises on misses)."""
        ids = np.asarray(np.atleast_1d(row_ids), dtype=np.int64)
        if len(ids) == 0:
            return np.empty(0, dtype=np.int64)
        if len(self) == 0:
            raise SchemaError(f"row id {int(ids[0])} not present in frame")
        order, sorted_ids = self._row_id_index()
        # side="right" - 1 lands on the *last* occurrence of a duplicated
        # id, matching the historical dict-overwrite semantics.
        pos = np.searchsorted(sorted_ids, ids, side="right") - 1
        bad = (pos < 0) | (sorted_ids[pos] != ids)
        if bad.any():
            raise SchemaError(
                f"row id {int(ids[int(np.argmax(bad))])} not present in frame"
            )
        return order[pos]

    def sort_by(self, column: str, *, descending: bool = False) -> "DataFrame":
        col = self[column]
        order = np.argsort(col.values, kind="stable")
        # Stable-sort nulls to the end regardless of direction.
        if descending:
            non_null = order[~col.mask[order]][::-1]
        else:
            non_null = order[~col.mask[order]]
        nulls = order[col.mask[order]]
        return self.take(np.concatenate([non_null, nulls]))

    def sample(self, n: int, *, seed=None, replace: bool = False) -> "DataFrame":
        from repro.core.rng import ensure_rng

        rng = ensure_rng(seed)
        if not replace and n > len(self):
            raise ValidationError(f"cannot sample {n} rows from {len(self)} without replacement")
        indices = rng.choice(len(self), size=n, replace=replace)
        return self.take(indices)

    def split(self, fractions: Iterable[float], *, seed=None) -> list["DataFrame"]:
        """Random disjoint splits; fractions must sum to at most 1."""
        from repro.core.rng import ensure_rng

        fractions = list(fractions)
        if sum(fractions) > 1.0 + 1e-9:
            raise ValidationError(f"fractions sum to {sum(fractions)} > 1")
        rng = ensure_rng(seed)
        perm = rng.permutation(len(self))
        splits, start = [], 0
        for frac in fractions:
            count = int(round(frac * len(self)))
            splits.append(self.take(perm[start:start + count]))
            start += count
        return splits

    # ------------------------------------------------------------------
    # Column-wise operations
    # ------------------------------------------------------------------
    def select(self, names: list[str]) -> "DataFrame":
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise SchemaError(f"no columns named {missing}; have {self.columns}")
        return DataFrame._from_columns(
            {n: self._columns[n] for n in names}, self.row_ids.copy()
        )

    def drop(self, names) -> "DataFrame":
        if isinstance(names, str):
            names = [names]
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise SchemaError(f"no columns named {missing}; have {self.columns}")
        keep = [n for n in self.columns if n not in set(names)]
        return self.select(keep)

    def rename(self, mapping: Mapping[str, str]) -> "DataFrame":
        missing = [n for n in mapping if n not in self._columns]
        if missing:
            raise SchemaError(f"no columns named {missing}; have {self.columns}")
        columns = {mapping.get(n, n): c for n, c in self._columns.items()}
        return DataFrame._from_columns(columns, self.row_ids.copy())

    def with_column(self, name: str, func_or_values) -> "DataFrame":
        """Return a copy with an added or replaced column.

        ``func_or_values`` is a :class:`Column`, column values, or a
        row-dict UDF (the retained row-wise fallback path).
        """
        out = self.copy()
        if isinstance(func_or_values, (Column, Expr)) or not callable(func_or_values):
            if isinstance(func_or_values, Expr):
                out[name] = Column(func_or_values.evaluate(self))
            else:
                out[name] = func_or_values
        else:
            out[name] = Column([func_or_values(row) for row in self.iter_rows()])
        return out

    def set_values(self, row_ids, column: str, values) -> "DataFrame":
        """Return a copy with cells overwritten at the given row *ids*.

        This is the primitive the cleaning oracle uses to apply repairs.
        Same-dtype repairs scatter directly into a copied backing array;
        dtype-changing repairs fall back to rebuilding the column from
        Python scalars (re-inferring its dtype, as always).
        """
        positions = self.positions_of(row_ids)
        out = self.copy()
        col = out[column]
        values = list(values) if isinstance(values, (list, tuple, np.ndarray, Column)) \
            else [values] * len(positions)
        if len(values) != len(positions):
            raise ValidationError(
                f"got {len(values)} values for {len(positions)} rows"
            )
        scattered = _scatter(col, positions, values)
        if scattered is not None:
            out[column] = scattered
        else:
            items = col.to_list()
            for pos, val in zip(positions, values):
                items[int(pos)] = val
            out[column] = Column(items)
        return out

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def join(self, other: "DataFrame", on: str | tuple[str, str], *,
             how: str = "inner", suffix: str = "_right",
             return_indices: bool = False):
        """Hash join on an equality key.

        The match table is computed by the vectorized factorize +
        ``searchsorted`` kernel (:func:`repro.dataframe.kernels.
        join_positions`); unsortable mixed-type keys fall back to the
        row-wise reference loop with identical semantics.

        Parameters
        ----------
        on:
            A column name present in both frames, or a ``(left, right)``
            pair of names.
        how:
            ``"inner"`` or ``"left"``. Left joins null-fill unmatched right
            columns.
        return_indices:
            Also return ``(left_positions, right_positions)`` arrays, with
            ``-1`` marking unmatched right positions in a left join. The
            provenance layer uses these to connect output rows to inputs.
        """
        left_key, right_key = (on, on) if isinstance(on, str) else on
        if how not in ("inner", "left"):
            raise ValidationError(f"how must be 'inner' or 'left', got {how!r}")
        left_col, right_col = self[left_key], other[right_key]

        try:
            left_pos, right_pos = kernels.join_positions(left_col, right_col, how)
        except KernelFallback:
            left_pos, right_pos = reference.join_positions_rowwise(
                left_col, right_col, how
            )

        result = self.take(left_pos)
        right_names = [n for n in other.columns if n != right_key or right_key != left_key]
        for name in right_names:
            if name == right_key and isinstance(on, str):
                continue
            out_name = name if name not in result._columns else name + suffix
            result[out_name] = kernels.gather_column(other[name], right_pos)
        if return_indices:
            return result, left_pos, right_pos
        return result

    def fuzzy_join(self, other: "DataFrame", on: str | tuple[str, str], *,
                   how: str = "inner", suffix: str = "_right",
                   normalizer: Callable[[str], str] | None = None,
                   max_edit_distance: int = 0,
                   return_indices: bool = False):
        """Join string keys after normalization — the tutorial's
        "(fuzzy) join".

        Normalization lowercases, trims, and collapses whitespace by
        default. With ``max_edit_distance > 0``, left keys that still
        match nothing are additionally resolved to the *unique* right key
        within that Levenshtein distance (ambiguous or distant keys stay
        unmatched — a wrong join is worse than a missing one). Candidate
        pairs are pruned by length bands and a character-bag lower bound
        before any edit-distance DP runs.
        """
        left_key, right_key = (on, on) if isinstance(on, str) else on
        if normalizer is None:
            normalizer = _default_normalizer
        left_norm = kernels.normalize_keys(self[left_key], normalizer)
        right_norm = kernels.normalize_keys(other[right_key], normalizer)
        if max_edit_distance > 0:
            resolved = kernels.resolve_fuzzy_keys(
                left_norm.unique(), right_norm.unique(),
                max_edit_distance, _levenshtein_within,
            )
            if resolved:
                rewritten = np.array(
                    [resolved.get(v, v) for v in left_norm.values], dtype=object
                )
                left_norm = Column._from_arrays(rewritten, left_norm.mask.copy())
        left = self.with_column("__fuzzy_key__", left_norm)
        right = other.with_column("__fuzzy_key__", right_norm)
        # Preserve the original right key column under a disambiguated name.
        result = left.join(right, on="__fuzzy_key__", how=how, suffix=suffix,
                           return_indices=return_indices)
        if return_indices:
            frame, li, ri = result
            return frame.drop("__fuzzy_key__"), li, ri
        return result.drop("__fuzzy_key__")

    # ------------------------------------------------------------------
    # Grouping and concatenation
    # ------------------------------------------------------------------
    def group_by(self, *keys: str):
        from repro.dataframe.groupby import GroupBy

        return GroupBy(self, list(keys))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_numpy(self, columns=None, *, null_value=None) -> np.ndarray:
        """Stack the selected columns into a 2-D float/object matrix."""
        columns = columns or self.columns
        arrays = [self[c].to_numpy(null_value=null_value) for c in columns]
        return np.column_stack(arrays)

    def describe(self) -> "DataFrame":
        """Per-column summary statistics (one row per column).

        Numeric columns report count/nulls/mean/std/min/max; other columns
        report count/nulls/distinct/mode.
        """
        records = []
        for name in self.columns:
            col = self[name]
            base = {"column": name, "dtype": str(col.dtype),
                    "count": len(col) - col.null_count(),
                    "nulls": col.null_count()}
            if col.dtype.kind in ("f", "i"):
                numeric = col.cast(float)
                base.update(mean=numeric.mean(), std=numeric.std(),
                            min=numeric.min(), max=numeric.max(),
                            distinct=None, mode=None)
            else:
                base.update(mean=None, std=None, min=None, max=None,
                            distinct=len(col.unique()),
                            mode=None if col.mode() is None
                            else str(col.mode()))
            records.append(base)
        return DataFrame.from_records(records)

    def pretty(self, max_rows: int = 10) -> str:
        """Render a fixed-width text table (the tutorial's pretty_print)."""
        names = ["row_id"] + self.columns
        rows = []
        for i in range(min(len(self), max_rows)):
            row = self.row(i)
            rows.append([str(self.row_ids[i])] +
                        [_fmt(row[c]) for c in self.columns])
        widths = [max(len(n), *(len(r[k]) for r in rows)) if rows else len(n)
                  for k, n in enumerate(names)]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        sep = "-+-".join("-" * w for w in widths)
        body = "\n".join(" | ".join(v.ljust(w) for v, w in zip(r, widths)) for r in rows)
        suffix = f"\n... ({len(self) - max_rows} more rows)" if len(self) > max_rows else ""
        return f"{header}\n{sep}\n{body}{suffix}"


def _scatter(col: Column, positions: np.ndarray, values: list) -> Column | None:
    """Scatter repair values into a copy of ``col``'s arrays when that is
    provably equivalent to rebuilding the column from scalars.

    Returns ``None`` when the repair could change the column dtype under
    re-inference (e.g. floats into an int column), signalling the caller
    to take the rebuild path.
    """
    kind = col.dtype.kind
    if kind == "f":
        if not all(v is None or (isinstance(v, (int, float, np.integer, np.floating))
                                 and not isinstance(v, bool)) for v in values):
            return None
        null = np.array([v is None or (isinstance(v, float) and np.isnan(v))
                         for v in values], dtype=bool)
        new_values = col.values.copy()
        new_mask = col.mask.copy()
        new_values[positions] = [np.nan if m else float(v)
                                 for v, m in zip(values, null)]
        new_mask[positions] = null
        return Column._from_arrays(new_values, new_mask)
    if kind == "i" and not col.mask.any():
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   for v in values):
            return None
        new_values = col.values.copy()
        new_values[positions] = [int(v) for v in values]
        return Column._from_arrays(new_values, np.zeros(len(new_values), dtype=bool))
    if kind == "b":
        if not all(isinstance(v, (bool, np.bool_)) for v in values):
            return None
        new_values = col.values.copy()
        new_mask = col.mask.copy()
        new_values[positions] = [bool(v) for v in values]
        new_mask[positions] = False
        return Column._from_arrays(new_values, new_mask)
    if kind == "O":
        if not all(v is None or isinstance(v, str) for v in values):
            return None
        null = np.array([v is None for v in values], dtype=bool)
        new_values = col.values.copy()
        new_mask = col.mask.copy()
        new_values[positions] = values
        new_mask[positions] = null
        return Column._from_arrays(new_values, new_mask)
    return None


def _fmt(value) -> str:
    if value is None:
        return "<null>"
    if isinstance(value, float):
        return f"{value:.4g}"
    text = str(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _default_normalizer(text: str) -> str:
    return " ".join(text.lower().split())


def concat_rows(frames: Iterable[DataFrame]) -> DataFrame:
    """Vertically concatenate frames with identical column sets.

    Row ids are preserved, so provenance through a union is the identity.
    Same-dtype columns concatenate as arrays; mixed-dtype columns rebuild
    from Python scalars (re-inferring the promoted dtype).
    """
    frames = list(frames)
    if not frames:
        raise ValidationError("concat_rows requires at least one frame")
    columns = frames[0].columns
    for f in frames[1:]:
        if f.columns != columns:
            raise SchemaError(
                f"column mismatch in concat: {f.columns} vs {columns}"
            )
    data: dict[str, Column] = {}
    for name in columns:
        cols = [f[name] for f in frames]
        kinds = {c.dtype.kind for c in cols}
        if len(kinds) == 1 and next(iter(kinds)) in "fibUO":
            values = np.concatenate([c.values for c in cols])
            mask = np.concatenate([c.mask for c in cols])
            data[name] = Column._from_arrays(values, mask)
        else:
            data[name] = Column([v for c in cols for v in c.to_list()])
    row_ids = np.concatenate([f.row_ids for f in frames])
    return DataFrame._from_columns(data, row_ids)

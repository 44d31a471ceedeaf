"""NumPy-backed columnar storage for relations (the vectorized engine).

A :class:`ColumnStore` keeps a relation's data column-wise as ``object``-dtype
arrays so that rows round-trip exactly (the same Python objects come back out),
with two cached derived views per column:

* a ``float64`` view (``None`` mapped to NaN) for numerical comparisons and
  stable sorting, and
* a factorized integer-code view (value -> small int) for categorical
  membership tests and DISTINCT de-duplication.

Selection evaluates a :class:`~repro.relational.predicates.Conjunction` as one
boolean mask per predicate AND-ed together, instead of materialising a dict
per row.

Derived stores produced by :meth:`ColumnStore.take` / :meth:`ColumnStore.head`
/ :meth:`ColumnStore.project` are *deferred*: they record only the source
store and the row coordinates, and gather a column (or a cached float/code
view) the first time it is read, caching the result.  Chained derivations
compose their coordinates so every store points straight at its eager root.
This is what makes the exhaustive baselines cheap — a candidate refinement's
result is a coordinate set over the shared ``~Q(D)`` store, and only the
handful of columns its constraint counts actually touch are ever gathered.

A view that cannot represent a column's values (a non-numeric value in the
float view, an unhashable one in the code view) reads as ``None``, and the
operator that asked for it answers with its row-at-a-time form instead.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as _np

from repro.relational.predicates import (
    CategoricalPredicate,
    Conjunction,
    NumericalPredicate,
    Operator,
)
from repro.relational.schema import Schema


def _compose_coordinates(base, indices, parent_length: int):
    """Row coordinates equivalent to applying ``base`` then ``indices``.

    ``base`` and ``indices`` are each either a slice or an int array; the
    composition keeps deferred stores pointing at their eager root instead of
    building chains of parents.
    """
    if isinstance(base, slice):
        base_range = range(*base.indices(parent_length))
        if isinstance(indices, slice):
            sub = base_range[indices]
            stop = sub.stop if sub.stop >= 0 else None
            return slice(sub.start, stop, sub.step)
        # Python-style negative positions count from the end of the *base*
        # window, exactly as fancy indexing into the gathered array would.
        indices = _np.where(indices < 0, indices + len(base_range), indices)
        return (base_range.start + base_range.step * indices).astype(_np.int64)
    return base[indices]


class ColumnStore:
    """Column-wise storage of one relation's data.

    Arrays are ``object`` dtype and aligned with the schema; mutating them is
    forbidden by convention (relations are immutable).  A store is either
    *eager* (every column array present) or *deferred* (``_source`` holds the
    eager parent store plus the row coordinates into it; columns and cached
    views are gathered lazily on first access).
    """

    __slots__ = ("schema", "length", "_arrays", "_numeric", "_codes", "_source")

    def __init__(self, schema: Schema, arrays: Sequence, length: int) -> None:
        self.schema = schema
        self._arrays = list(arrays)
        self.length = int(length)
        self._numeric: dict = {}
        self._codes: dict = {}
        self._source: tuple | None = None

    @classmethod
    def _deferred(cls, schema: Schema, parent: "ColumnStore", indices, length: int) -> "ColumnStore":
        store = cls(schema, [None] * len(schema), length)
        store._source = (parent, indices)
        return store

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_rows(cls, schema: Schema, rows: Sequence[tuple]) -> "ColumnStore":
        width = len(schema)
        count = len(rows)
        if count == 0:
            return cls(schema, [_np.empty(0, dtype=object) for _ in range(width)], 0)
        matrix = _np.empty((count, width), dtype=object)
        for j in range(width):
            matrix[:, j] = [row[j] for row in rows]
        return cls(schema, [matrix[:, j] for j in range(width)], count)

    # -- raw access ------------------------------------------------------------

    def array(self, name: str):
        """The object-dtype array of one column (gathered on first access)."""
        index = self.schema.index_of(name)
        array = self._arrays[index]
        if array is None:
            parent, indices = self._source
            array = self._arrays[index] = parent.array(name)[indices]
        return array

    def to_rows(self) -> list[tuple]:
        """Materialise the stored columns back into row tuples."""
        if not self._arrays:
            return [() for _ in range(self.length)]
        return list(zip(*(self.array(name).tolist() for name in self.schema.names)))

    # -- derived views ---------------------------------------------------------

    def numeric(self, name: str):
        """``float64`` view of a column (``None`` -> NaN); ``None`` if impossible."""
        if name in self._numeric:
            return self._numeric[name]
        if self._source is not None:
            parent, indices = self._source
            if name in parent._numeric:
                view = parent._numeric[name]
                view = None if view is None else view[indices]
                self._numeric[name] = view
                return view
        values = self.array(name).tolist()
        try:
            view = _np.array(
                [_np.nan if value is None else float(value) for value in values],
                dtype=float,
            )
        except (TypeError, ValueError):
            view = None
        self._numeric[name] = view
        return view

    def codes(self, name: str):
        """``(codes, mapping)`` factorization of a column; ``None`` if unhashable."""
        if name in self._codes:
            return self._codes[name]
        if self._source is not None:
            parent, indices = self._source
            if name in parent._codes:
                factorized = parent._codes[name]
                if factorized is None:
                    self._codes[name] = None
                    return None
                codes, mapping = factorized
                result = (codes[indices], mapping)
                self._codes[name] = result
                return result
        values = self.array(name).tolist()
        mapping: dict = {}
        codes = _np.empty(self.length, dtype=_np.int64)
        try:
            for position, value in enumerate(values):
                codes[position] = mapping.setdefault(value, len(mapping))
        except TypeError:
            self._codes[name] = None
            return None
        result = (codes, mapping)
        self._codes[name] = result
        return result

    # -- derivations (propagate cached views) ----------------------------------

    def take(self, indices) -> "ColumnStore":
        """Rows at the given coordinates (a slice or an integer array).

        The result is a deferred store: no column is gathered until read.
        Taking from a deferred store composes the coordinates, so derivation
        chains stay one hop from the eager root.
        """
        if not isinstance(indices, (slice, _np.ndarray)):
            indices = _np.asarray(indices, dtype=_np.int64)
        if isinstance(indices, slice):
            length = len(range(*indices.indices(self.length)))
        else:
            if indices.dtype == bool:
                # Boolean masks select rows; the derived length is the number
                # of True entries, not the mask size.
                indices = _np.flatnonzero(indices)
            length = int(indices.shape[0])
        parent, coordinates = self, indices
        if self._source is not None:
            parent, base = self._source
            coordinates = _compose_coordinates(base, indices, parent.length)
        return ColumnStore._deferred(self.schema, parent, coordinates, length)

    def head(self, k: int) -> "ColumnStore":
        return self.take(slice(0, max(k, 0)))

    def project(self, names: Sequence[str]) -> "ColumnStore":
        """Restrict to a subset of columns (arrays and views are shared)."""
        projected = self.schema.project(names)
        if self._source is not None:
            parent, indices = self._source
            derived = ColumnStore._deferred(projected, parent, indices, self.length)
            for position, name in enumerate(names):
                array = self._arrays[self.schema.index_of(name)]
                if array is not None:
                    derived._arrays[position] = array
                if name in self._numeric:
                    derived._numeric[name] = self._numeric[name]
                if name in self._codes:
                    derived._codes[name] = self._codes[name]
            return derived
        derived = ColumnStore(
            projected,
            [self.array(name) for name in names],
            self.length,
        )
        for name in names:
            if name in self._numeric:
                derived._numeric[name] = self._numeric[name]
            if name in self._codes:
                derived._codes[name] = self._codes[name]
        return derived

    def with_column(self, schema: Schema, values: Sequence) -> "ColumnStore":
        """A store extended with one appended column holding ``values``.

        ``schema`` is the extended schema; cached views of the existing
        columns carry over.
        """
        column = _np.empty(self.length, dtype=object)
        for position, value in enumerate(values):
            column[position] = value
        arrays = [self.array(name) for name in self.schema.names]
        derived = ColumnStore(schema, arrays + [column], self.length)
        derived._numeric.update(self._numeric)
        derived._codes.update(self._codes)
        return derived

    def concatenated(self, other: "ColumnStore") -> "ColumnStore":
        """The rows of ``self`` followed by the rows of ``other`` (same schema)."""
        arrays = [
            _np.concatenate([self.array(name), other.array(name)])
            for name in self.schema.names
        ]
        return ColumnStore(self.schema, arrays, self.length + other.length)

    # -- vectorized operators ---------------------------------------------------

    def mask(self, conjunction: Conjunction):
        """Boolean selection mask for a conjunction; ``None`` -> caller fallback."""
        mask = _np.ones(self.length, dtype=bool)
        for predicate in conjunction:
            if isinstance(predicate, NumericalPredicate):
                part = self._numerical_mask(predicate)
            else:
                part = self._categorical_mask(predicate)
            if part is None:
                return None
            mask &= part
        return mask

    def _numerical_mask(self, predicate: NumericalPredicate):
        if predicate.attribute not in self.schema:
            # Row semantics: a missing attribute reads as None, which fails.
            return _np.zeros(self.length, dtype=bool)
        values = self.numeric(predicate.attribute)
        if values is None:
            return None
        constant = predicate.constant
        operator = predicate.operator
        # NaN (was None) compares False under every operator, matching the
        # row path's "missing/None fails" rule.
        if operator is Operator.LESS:
            return values < constant
        if operator is Operator.LESS_EQUAL:
            return values <= constant
        if operator is Operator.EQUAL:
            return values == constant
        if operator is Operator.GREATER:
            return values > constant
        return values >= constant

    def _categorical_mask(self, predicate: CategoricalPredicate):
        if predicate.attribute not in self.schema:
            return _np.full(self.length, None in predicate.values, dtype=bool)
        factorized = self.codes(predicate.attribute)
        if factorized is None:
            return None
        codes, mapping = factorized
        wanted = [mapping[value] for value in predicate.values if value in mapping]
        if not wanted:
            return _np.zeros(self.length, dtype=bool)
        if len(wanted) == 1:
            return codes == wanted[0]
        return _np.isin(codes, _np.array(wanted, dtype=_np.int64))

    def argsort_by(self, name: str, descending: bool):
        """Stable sort order by one column, NULLs last; ``None`` -> fallback.

        NaN (the image of ``None``) sorts to the end of ``argsort`` for both
        the negated and the plain key, which is exactly the deterministic
        "NULLs last" contract.
        """
        values = self.numeric(name)
        if values is None:
            return None
        keys = -values if descending else values
        return _np.argsort(keys, kind="stable")

    def first_occurrence(self, names: Sequence[str]):
        """Positions of the first row for each distinct key, in row order.

        ``None`` when any key column cannot be factorized.
        """
        columns = []
        for name in names:
            factorized = self.codes(name)
            if factorized is None:
                return None
            columns.append(factorized[0])
        if not columns:
            return _np.arange(min(self.length, 1))
        if len(columns) == 1:
            _, first = _np.unique(columns[0], return_index=True)
        else:
            stacked = _np.stack(columns, axis=1)
            _, first = _np.unique(stacked, axis=0, return_index=True)
        return _np.sort(first)

    def count_conditions(self, conditions: Mapping[str, object]):
        """Rows satisfying every ``attribute == value`` condition; ``None`` -> fallback."""
        mask = _np.ones(self.length, dtype=bool)
        for attribute, value in conditions.items():
            factorized = self.codes(attribute)
            if factorized is None:
                return None
            codes, mapping = factorized
            try:
                code = mapping.get(value)
            except TypeError:
                return None
            if code is None:
                return 0
            mask &= codes == code
        return int(mask.sum())


def combined_codes(store: ColumnStore, names: Sequence[str]):
    """A single ``int64`` array identifying each row's key over ``names``.

    Rows with equal values in every key column share a code; codes are
    assigned in first-seen order.  ``None`` when factorization is impossible.
    """
    if not names:
        return None
    parts = []
    for name in names:
        factorized = store.codes(name)
        if factorized is None:
            return None
        parts.append(factorized[0])
    if len(parts) == 1:
        return parts[0]
    mapping: dict = {}
    combined = _np.empty(store.length, dtype=_np.int64)
    for position, key in enumerate(zip(*(part.tolist() for part in parts))):
        combined[position] = mapping.setdefault(key, len(mapping))
    return combined


__all__ = ["ColumnStore", "combined_codes"]

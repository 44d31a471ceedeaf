"""Regression tests for the relational-layer crash fixes.

1. ``QueryExecutor._join`` raises :class:`QueryError` on an empty table list
   (previously a bare ``IndexError``; a dead ``joined is None`` branch hid it).
2. ``Relation.order_by`` sorts ``None`` ranking values last deterministically
   (previously ``TypeError``), and ``RankedResult.scores`` zeroes them.
3. ``Relation.domain`` keeps mixed ``int``/``float`` numeric domains in one
   ordered run (previously split into two runs by type name).
"""

from __future__ import annotations

import pytest

from repro.exceptions import QueryError
from repro.relational import (
    Conjunction,
    Database,
    NumericalPredicate,
    QueryExecutor,
    Relation,
    Schema,
    SPJQuery,
)
from repro.relational.schema import categorical, numerical


@pytest.fixture
def nullable_scores():
    schema = Schema([categorical("id"), numerical("score")])
    rows = [
        ("a", 2),
        ("b", None),
        ("c", 5),
        ("d", None),
        ("e", 3),
    ]
    return Relation("r", schema, rows)


class TestEmptyJoin:
    def test_join_of_empty_table_list_raises_query_error(self, students_db):
        executor = QueryExecutor(students_db)
        with pytest.raises(QueryError):
            executor._join(())

    def test_query_constructor_still_rejects_empty_tables(self):
        with pytest.raises(QueryError):
            SPJQuery(tables=[], where=(), order_by="x")


class TestJoinCacheInvalidation:
    def test_replacing_a_relation_invalidates_cached_results(self):
        schema = Schema([categorical("id"), numerical("score")])
        database = Database([Relation("r", schema, [("a", 1), ("b", 2)])])
        query = SPJQuery(tables=["r"], where=(), order_by="score", name="q")
        # Pinned to the memory backend: the assertions below are white-box
        # about its join caches (the sqlite backend tracks swaps separately,
        # see test_sqlite_backend_reloads_swapped_relations).
        executor = QueryExecutor(database, backend="memory")
        assert len(executor.evaluate(query)) == 2
        database.add(Relation("r", schema, [("a", 1), ("b", 2), ("c", 3)]))
        assert len(executor.evaluate(query)) == 3
        # The stale entry is replaced, not kept alongside (bounded memory).
        # White-box cache reads hold the cache lock (REPRO_DEBUG_LOCKS).
        with executor._cache_lock:
            assert len(executor._join_cache) == 1
            assert len(executor._ordered_cache) == 1


class TestBackendSelection:
    def _database(self):
        schema = Schema([categorical("id"), numerical("score")])
        return Database([Relation("r", schema, [("a", 1), ("b", 2)])])

    def test_unknown_backend_raises(self):
        with pytest.raises(QueryError):
            QueryExecutor(self._database(), backend="duckdb")

    def test_backend_defaults_to_memory(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
        # REPRO_EXECUTOR_DB implies the sqlite backend, so the memory default
        # only applies with neither variable set.
        monkeypatch.delenv("REPRO_EXECUTOR_DB", raising=False)
        assert QueryExecutor(self._database()).backend == "memory"

    def test_backend_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", "sqlite")
        assert QueryExecutor(self._database()).backend == "sqlite"

    def test_explicit_backend_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", "sqlite")
        assert QueryExecutor(self._database(), backend="memory").backend == "memory"

    def test_sqlite_backend_reloads_swapped_relations(self):
        schema = Schema([categorical("id"), numerical("score")])
        database = Database([Relation("r", schema, [("a", 1), ("b", 2)])])
        query = SPJQuery(tables=["r"], where=(), order_by="score", name="q")
        executor = QueryExecutor(database, backend="sqlite")
        assert len(executor.evaluate(query)) == 2
        database.add(Relation("r", schema, [("a", 1), ("b", 2), ("c", 3)]))
        assert len(executor.evaluate(query)) == 3

    def test_sqlite_backend_survives_relation_id_reuse(self):
        """Repeated swaps where the freed Relation's id is reused must reload.

        The backend holds the loaded Relation objects (not bare ids), so a
        replacement allocated at a recycled address can never look current.
        """
        schema = Schema([categorical("id"), numerical("score")])
        database = Database([Relation("r", schema, [("a", 1), ("b", 2)])])
        query = SPJQuery(tables=["r"], where=(), order_by="score", name="q")
        executor = QueryExecutor(database, backend="sqlite")
        for extra in range(1, 6):
            rows = [("a", 1), ("b", 2)] + [(f"x{i}", 10 + i) for i in range(extra)]
            # The previous relation becomes garbage immediately; CPython often
            # hands its address to the next allocation.
            database.add(Relation("r", schema, rows))
            assert len(executor.evaluate(query)) == 2 + extra

    def test_sqlite_backend_validates_unknown_attributes(self):
        query = SPJQuery(
            tables=["r"],
            where=Conjunction([NumericalPredicate("nope", ">=", 1)]),
            order_by="score",
        )
        with pytest.raises(QueryError):
            QueryExecutor(self._database(), backend="sqlite").evaluate(query)


class TestNullOrdering:
    def test_order_by_descending_puts_nulls_last(self, nullable_scores):
        ordered = nullable_scores.order_by("score")
        assert [row[0] for row in ordered] == ["c", "e", "a", "b", "d"]

    def test_order_by_ascending_puts_nulls_last(self, nullable_scores):
        ordered = nullable_scores.order_by("score", descending=False)
        assert [row[0] for row in ordered] == ["a", "e", "c", "b", "d"]

    def test_store_backed_relation_puts_nulls_last(self, nullable_scores):
        relation = Relation.from_store("r", nullable_scores.column_store())
        assert [row[0] for row in relation.order_by("score")] == [
            "c", "e", "a", "b", "d"
        ]

    def test_ranked_result_scores_zeroes_nulls(self, nullable_scores):
        database = Database([nullable_scores])
        query = SPJQuery(tables=["r"], where=(), order_by="score", name="nulls")
        result = QueryExecutor(database).evaluate(query)
        assert result.scores() == [5.0, 3.0, 2.0, 0.0, 0.0]

    def test_min_max_ignores_nulls(self, nullable_scores):
        assert nullable_scores.min_max("score") == (2.0, 5.0)

    def test_selection_on_nullable_column_excludes_nulls(self, nullable_scores):
        condition = Conjunction([NumericalPredicate("score", ">=", 0)])
        selected = nullable_scores.select(condition)
        assert [row[0] for row in selected] == ["a", "c", "e"]


class TestOrderingParityAndSelectIdentity:
    def test_float_parseable_strings_sort_lexicographically(self):
        schema = Schema([categorical("id")])
        rows = [("10",), ("2",), ("1",)]
        ordered = Relation("r", schema, rows).order_by("id", descending=False)
        assert [row[0] for row in ordered] == ["1", "10", "2"]

    def test_empty_conjunction_select_returns_the_relation_itself(self, nullable_scores):
        assert nullable_scores.select(Conjunction()) is nullable_scores

    def test_zero_column_projection_preserves_row_count(self, nullable_scores):
        projected = nullable_scores.project([]).head(2)
        assert len(projected) == 2
        assert projected.rows == [(), ()]


class TestNullsThroughTheNaiveBaselines:
    """NULLs in the ranking or predicate attributes must not crash setup."""

    def _database(self):
        schema = Schema([categorical("id"), categorical("grp"), numerical("x"), numerical("s")])
        rows = [
            ("a", "F", 1.0, 10.0),
            ("b", "F", None, 9.0),   # dead: None fails every numerical predicate
            ("c", "M", 2.0, None),   # NULL ranking value: sorts last, scores 0
            ("d", "M", 3.0, 7.0),
            ("e", "F", 4.0, 6.0),
        ]
        return Database([Relation("r", schema, rows)])

    def _query(self):
        return SPJQuery(
            tables=["r"],
            where=[NumericalPredicate("x", ">=", 2)],
            order_by="s",
            name="nullable",
        )

    def test_annotation_drops_dead_tuples_and_zeroes_null_scores(self):
        from repro.provenance.lineage import annotate

        annotated = annotate(self._query(), self._database())
        ids = [t.values["id"] for t in annotated.tuples]
        assert "b" not in ids  # dead tuple omitted, not a float(None) crash
        scores = {t.values["id"]: t.score for t in annotated.tuples}
        assert scores["c"] == 0.0

    def test_naive_and_naive_prov_agree_end_to_end(self):
        from repro.core import ConstraintSet, NaiveProvenanceSearch, NaiveSearch, at_least

        constraints = ConstraintSet([at_least(1, 3, grp="F")])

        def run(cls):
            return cls(self._database(), self._query(), constraints, epsilon=0.5).search()

        naive = run(NaiveSearch)
        provenance = run(NaiveProvenanceSearch)
        assert naive.feasible and provenance.feasible
        assert naive.refinement == provenance.refinement
        assert naive.distance_value == provenance.distance_value
        assert naive.deviation == provenance.deviation


class TestMixedNumericDomain:
    def test_domain_orders_mixed_int_float_numerically(self):
        schema = Schema([numerical("x")])
        relation = Relation("r", schema, [(1.5,), (1,), (2,), (0.5,), (None,)])
        assert relation.domain("x") == [0.5, 1, 1.5, 2]

    def test_domain_with_non_numeric_values_stays_deterministic(self):
        schema = Schema([categorical("x")])
        relation = Relation("r", schema, [("b",), ("a",), ("b",)])
        assert relation.domain("x") == ["a", "b"]

    def test_domain_of_store_backed_relation_orders_numerically(self):
        schema = Schema([numerical("x")])
        rows = [(3,), (1.25,), (2,), (1,), (2.5,)]
        relation = Relation.from_store("r", Relation("r", schema, rows).column_store())
        assert relation.domain("x") == [1, 1.25, 2, 2.5, 3]

"""Parity suite: every execution engine must agree byte-for-byte.

Two engines answer the same SPJ queries — the in-memory columnar engine and
the sqlite pushdown backend — and this suite holds them to byte-identical
:class:`RankedResult`\\ s (rows, order, projection, distinct keys, scores) on
every registered dataset, including DISTINCT ranking queries, and on
randomized instances with NULLs.  The columnar engine and the Naive+prov
batched sweep are also held to a row-at-a-time reference evaluation written
out in this file, and the Naive+prov mask index to the executor's answer for
the same refined queries.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ConstraintSet,
    MaskIndexData,
    NaiveProvenanceSearch,
    NaiveSearch,
    at_least,
)
from repro.datasets.registry import DATASET_BUILDERS, load_dataset
from repro.relational import (
    CategoricalPredicate,
    Database,
    NumericalPredicate,
    OrderBy,
    QueryExecutor,
    Relation,
    Schema,
    SPJQuery,
)
from repro.relational.schema import categorical, numerical

#: Reduced sizes so the whole registry can be evaluated twice per test run.
_SMALL_PARAMETERS = {
    "students": {},
    "astronauts": {"num_rows": 120},
    "law_students": {"num_rows": 400},
    "meps": {"num_rows": 400},
    "tpch": {"scale_factor": 0.05},
}


def _bundle(name):
    return load_dataset(name, **_SMALL_PARAMETERS[name])


def _identical(fast, slow):
    """Byte-identical RankedResults: rows, order, projection, distinct keys."""
    assert fast.relation.schema == slow.relation.schema
    assert fast.projected.schema == slow.projected.schema
    assert fast.relation.rows == slow.relation.rows
    assert fast.projected.rows == slow.projected.rows
    # reprs catch type drift that == would mask (e.g. 34 vs 34.0).
    assert list(map(repr, fast.relation.rows)) == list(map(repr, slow.relation.rows))
    assert fast.top_k_keys(25) == slow.top_k_keys(25)
    assert fast.scores() == slow.scores()


# -- row-at-a-time reference -------------------------------------------------------


def _dict_rows(relation):
    names = relation.schema.names
    return [dict(zip(names, row)) for row in relation.rows]


def _rowwise_join(database, tables):
    """Nested-loop NATURAL JOIN of ``tables`` in order, as named dict rows.

    Left rows drive the output order and each left row meets its matches in
    right-relation order; with no shared attribute the join is a cartesian
    product.  Shared values compare with ``==``, so NULLs join each other.
    """
    first = database.relation(tables[0])
    names = list(first.schema.names)
    rows = _dict_rows(first)
    for table in tables[1:]:
        other = database.relation(table)
        shared = [name for name in other.schema.names if name in names]
        extra = [name for name in other.schema.names if name not in names]
        other_rows = _dict_rows(other)
        rows = [
            {**left, **{name: right[name] for name in extra}}
            for left in rows
            for right in other_rows
            if all(left[name] == right[name] for name in shared)
        ]
        names.extend(extra)
    return names, rows


def _rowwise_filter(rows, query):
    """Rows satisfying ``query.where``, then DISTINCT (first row per key wins)."""
    kept = [row for row in rows if query.where.matches(row)]
    if query.distinct and query.select:
        seen = set()
        unique = []
        for row in kept:
            key = tuple(row[name] for name in query.select)
            if key not in seen:
                seen.add(key)
                unique.append(row)
        kept = unique
    return kept


def _rowwise_evaluate(database, query):
    """The SPJ semantics one row at a time: join, stable sort, filter, DISTINCT.

    Returns the result's column names and its rows in rank order.  The sort
    is stable and puts NULL scores last in both directions.
    """
    names, rows = _rowwise_join(database, query.tables)
    attribute = query.order_by.attribute
    scored = [row for row in rows if row[attribute] is not None]
    nulls = [row for row in rows if row[attribute] is None]
    ordered = sorted(
        scored, key=lambda row: row[attribute], reverse=query.order_by.descending
    )
    kept = _rowwise_filter(ordered + nulls, query)
    return names, [tuple(row[name] for name in names) for row in kept]


def _matches_rowwise(database, query):
    result = QueryExecutor(database).evaluate(query)
    names, rows = _rowwise_evaluate(database, query)
    assert list(result.relation.schema.names) == names
    assert result.relation.rows == rows
    # reprs catch type drift that == would mask (e.g. 34 vs 34.0).
    assert list(map(repr, result.relation.rows)) == list(map(repr, rows))
    select = list(query.select) or names
    projected = [tuple(row[names.index(name)] for name in select) for row in rows]
    assert list(map(repr, result.projected.rows)) == list(map(repr, projected))


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_vectorized_executor_matches_rowwise(name):
    """The columnar executor answers the paper query and a DISTINCT ranking
    projection exactly as a row-at-a-time evaluation does."""
    bundle = _bundle(name)
    _matches_rowwise(bundle.database, bundle.query)
    _matches_rowwise(bundle.database, _distinct_variant(bundle))


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_vectorized_unfiltered_evaluation_matches_rowwise(name):
    bundle = _bundle(name)
    executor = QueryExecutor(bundle.database)
    unfiltered = executor.evaluate_unfiltered(bundle.query)
    names, rows = _rowwise_evaluate(bundle.database, bundle.query.without_selection())
    assert list(unfiltered.relation.schema.names) == names
    assert list(map(repr, unfiltered.relation.rows)) == list(map(repr, rows))


#: DISTINCT projections with plenty of duplicates, per dataset, so the
#: "keep the better-ranked duplicate" semantics is exercised on every engine.
_DISTINCT_SELECTS = {
    "students": ("Gender", "Income"),
    "astronauts": ("Gender", "Status"),
    "law_students": ("Sex", "Race"),
    "meps": ("Sex", "Race"),
    "tpch": ("OrderPriority", "MktSegment"),
}


def _distinct_variant(bundle) -> SPJQuery:
    return SPJQuery(
        tables=bundle.query.tables,
        where=bundle.query.where,
        order_by=bundle.query.order_by,
        select=_DISTINCT_SELECTS[bundle.name],
        distinct=True,
        name=f"{bundle.query.name}_distinct",
    )


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_sqlite_backend_matches_memory_engines(name):
    """columnar == sqlite on the paper query and its unfiltered ~Q."""
    bundle = _bundle(name)
    for query in (bundle.query, bundle.query.without_selection()):
        sqlite = QueryExecutor(bundle.database, backend="sqlite").evaluate(query)
        memory = QueryExecutor(bundle.database, backend="memory").evaluate(query)
        _identical(sqlite, memory)


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_sqlite_backend_matches_memory_engines_on_distinct_ranking(name):
    """columnar == sqlite on a DISTINCT ranking projection."""
    bundle = _bundle(name)
    query = _distinct_variant(bundle)
    sqlite = QueryExecutor(bundle.database, backend="sqlite").evaluate(query)
    memory = QueryExecutor(bundle.database, backend="memory").evaluate(query)
    _identical(sqlite, memory)


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_candidate_mask_evaluation_matches_executors(name):
    """The Naive+prov mask index selects the same tuples as both executor
    backends evaluating the refined query, for a sample of candidates; so
    does its executor fallback for candidates no mask can answer."""
    bundle = _bundle(name)
    constraints = ConstraintSet([at_least(1, 5, **_any_group(bundle))])
    search = NaiveProvenanceSearch(
        bundle.database, bundle.query, constraints, max_candidates=0
    )
    search.search()  # runs _prepare, examining no candidates
    assert search._fast is not None
    # An index built for a query with no predicates has no mask to offer.
    unfiltered = bundle.query.without_selection()
    fallback = NaiveProvenanceSearch(
        bundle.database,
        bundle.query,
        constraints,
        max_candidates=0,
        mask_data=MaskIndexData.build(
            unfiltered, QueryExecutor(bundle.database).evaluate(unfiltered).relation
        ),
    )
    fallback.search()

    from repro.core.refinement import RefinementSpace
    from repro.provenance.lineage import annotate

    memory = QueryExecutor(bundle.database, backend="memory")
    sqlite = QueryExecutor(bundle.database, backend="sqlite")
    annotated = annotate(bundle.query, bundle.database)
    space = RefinementSpace(bundle.query, annotated)
    for count, refinement in enumerate(space.enumerate()):
        if count >= 40:
            break
        refined_query = refinement.apply(bundle.query)
        fast = search._evaluate(refinement, refined_query)
        # The result came from the mask index, not the executor fallback.
        assert search._positions is not None
        _identical(fast, memory.evaluate(refined_query))
        _identical(fast, sqlite.evaluate(refined_query))
        _identical(fallback._evaluate(refinement, refined_query), fast)
        assert fallback._positions is None


def _any_group(bundle):
    """Pick one categorical attribute/value so a constraint set can be built."""
    categorical = bundle.query.categorical_predicates
    if categorical:
        predicate = categorical[0]
        return {predicate.attribute: sorted(predicate.values, key=str)[0]}
    unfiltered = QueryExecutor(bundle.database).evaluate_unfiltered(bundle.query)
    relation = unfiltered.relation
    for attribute in relation.schema:
        if attribute.is_categorical:
            domain = relation.domain(attribute.name)
            if domain:
                return {attribute.name: domain[0]}
    raise AssertionError("dataset has no categorical attribute to group on")


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_batched_sweep_matches_per_candidate_positions(name):
    """The batched-sweep threshold tables select exactly the positions of
    ``~Q(D)`` a per-candidate, row-at-a-time filter selects."""
    from repro.core.refinement import RefinementSpace
    from repro.provenance.lineage import annotate

    bundle = _bundle(name)
    constraints = ConstraintSet([at_least(1, 5, **_any_group(bundle))])
    search = NaiveProvenanceSearch(
        bundle.database, bundle.query, constraints, max_candidates=0
    )
    search.search()  # runs _prepare, examining no candidates
    assert search._fast is not None
    base_rows = _dict_rows(search._base)
    position_of = {id(row): position for position, row in enumerate(base_rows)}

    annotated = annotate(bundle.query, bundle.database)
    space = RefinementSpace(bundle.query, annotated)
    for count, refinement in enumerate(space.enumerate()):
        if count >= 40:
            break
        refined_query = refinement.apply(bundle.query)
        batched = search._fast.selected_positions(refined_query)
        per_candidate = [
            position_of[id(row)] for row in _rowwise_filter(base_rows, refined_query)
        ]
        assert batched is not None
        assert batched.tolist() == per_candidate


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_jobs_axis_parity(name):
    """The jobs axis of the engine matrix: sharded == serial on every dataset."""
    bundle = _bundle(name)
    constraints = ConstraintSet([at_least(1, 5, **_any_group(bundle))])

    def run(jobs):
        return NaiveProvenanceSearch(
            bundle.database,
            bundle.query,
            constraints,
            max_candidates=250,
            jobs=jobs,
        ).search()

    serial = run(1)
    sharded = run(2)
    assert sharded.feasible == serial.feasible
    assert sharded.candidates_examined == serial.candidates_examined
    assert sharded.refinement == serial.refinement
    assert sharded.distance_value == serial.distance_value
    assert sharded.deviation == serial.deviation
    assert sharded.exhausted == serial.exhausted


def test_full_naive_prov_search_matches_naive_result():
    """End-to-end: Naive+prov picks the same refinement as Naive, which
    re-evaluates every candidate on the executor."""
    bundle = _bundle("students")
    constraints = ConstraintSet(
        [at_least(3, 6, Gender="F"), at_least(1, 3, Income="High")]
    )

    def run(cls):
        return cls(
            bundle.database, bundle.query, constraints, max_candidates=400
        ).search()

    fast = run(NaiveProvenanceSearch)
    slow = run(NaiveSearch)
    assert fast.feasible == slow.feasible
    assert fast.candidates_examined == slow.candidates_examined
    assert fast.refinement == slow.refinement
    assert fast.distance_value == slow.distance_value
    assert fast.deviation == slow.deviation


# -- randomized memory == sqlite parity ------------------------------------------

#: Small value pools so that random instances hit ties, duplicate DISTINCT
#: keys, NULLs and int/float mixes (``1`` next to ``1.0``) often.
_GROUPS = ("a", "b", "c", None)
_NUMBERS = st.one_of(
    st.none(), st.integers(-2, 3), st.sampled_from([-1.5, 0.0, 0.5, 1.0, 2.5])
)
_SCORES = st.one_of(st.none(), st.integers(0, 3), st.sampled_from([1.0, 2.5]))
_KEYS = st.sampled_from([1, 2, 3, None])
_OPERATORS = ("<", "<=", "=", ">", ">=")


def _where(draw, numeric_attributes):
    """0-2 numerical predicates plus an optional IN-list that may hold None."""
    predicates = []
    for _ in range(draw(st.integers(0, 2))):
        predicates.append(
            NumericalPredicate(
                draw(st.sampled_from(numeric_attributes)),
                draw(st.sampled_from(_OPERATORS)),
                draw(st.sampled_from([-1, 0, 0.5, 1, 2])),
            )
        )
    if draw(st.booleans()):
        values = draw(st.sets(st.sampled_from(_GROUPS), min_size=1))
        predicates.append(CategoricalPredicate("grp", values))
    return predicates


def _select(draw, attributes):
    """``SELECT *``, or a DISTINCT projection over 1-2 attributes."""
    if not draw(st.booleans()):
        return (), False
    chosen = draw(st.lists(st.sampled_from(attributes), min_size=1, max_size=2, unique=True))
    return tuple(chosen), True


@st.composite
def _single_table_instances(draw):
    size = draw(st.integers(0, 12))
    rows = [
        (f"r{i}", draw(st.sampled_from(_GROUPS)), draw(_NUMBERS), draw(_SCORES))
        for i in range(size)
    ]
    schema = Schema([categorical("id"), categorical("grp"), numerical("x"), numerical("s")])
    select, distinct = _select(draw, ["grp", "x", "s"])
    query = SPJQuery(
        tables=["r"],
        where=_where(draw, ["x", "s"]),
        order_by=OrderBy("s", descending=draw(st.booleans())),
        select=select,
        distinct=distinct,
        name="random",
    )
    return Database([Relation("r", schema, rows)]), query


@st.composite
def _join_instances(draw):
    left = [
        (f"l{i}", draw(_KEYS), draw(_NUMBERS), draw(_SCORES))
        for i in range(draw(st.integers(0, 8)))
    ]
    right = [
        (draw(_KEYS), draw(st.sampled_from(_GROUPS)))
        for _ in range(draw(st.integers(0, 6)))
    ]
    left_schema = Schema([categorical("id"), categorical("k"), numerical("x"), numerical("s")])
    right_schema = Schema([categorical("k"), categorical("grp")])
    select, distinct = _select(draw, ["k", "grp", "x"])
    query = SPJQuery(
        tables=["l", "r"],
        where=_where(draw, ["x", "s"]),
        order_by=OrderBy("s", descending=draw(st.booleans())),
        select=select,
        distinct=distinct,
        name="random_join",
    )
    database = Database(
        [Relation("l", left_schema, left), Relation("r", right_schema, right)]
    )
    return database, query


def _assert_backends_agree(database, query):
    sqlite_executor = QueryExecutor(database, backend="sqlite")
    try:
        sqlite = sqlite_executor.evaluate(query)
    finally:
        sqlite_executor.close_connections()
    memory = QueryExecutor(database, backend="memory").evaluate(query)
    assert memory.relation.schema == sqlite.relation.schema
    assert list(map(repr, memory.relation.rows)) == list(map(repr, sqlite.relation.rows))
    assert list(map(repr, memory.projected.rows)) == list(map(repr, sqlite.projected.rows))
    assert memory.scores() == sqlite.scores()
    assert repr(memory.top_k_keys(5)) == repr(sqlite.top_k_keys(5))


@settings(deadline=None, max_examples=200)
@given(_single_table_instances())
def test_random_single_table_queries_match_across_backends(instance):
    _assert_backends_agree(*instance)


@settings(deadline=None, max_examples=200)
@given(_join_instances())
def test_random_join_queries_match_across_backends(instance):
    """The natural join key holds NULLs, which join each other on both engines."""
    _assert_backends_agree(*instance)

import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rorokit.relations import (
    BRUTE_FORCE_MAX_N,
    CycleError,
    InvalidPermutationError,
    OrderViolation,
    Relation,
    RelationError,
    SizeLimitError,
    best_permutation_recall,
    is_acyclic,
    is_strict_partial_order,
    permutation_to_relation,
    relation_from_json,
    relation_to_json,
    topological_linearization,
    transitive_closure,
)

# --- independent oracle: repeated relational composition to a fixed point ---


def compose(pairs):
    by_source = {}
    for a, b in pairs:
        by_source.setdefault(b, set()).add(a)
    out = set()
    for c, d in pairs:
        for a in by_source.get(c, ()):
            out.add((a, d))
    return out


def closure_oracle(pairs):
    current = set(pairs)
    while True:
        bigger = current | compose(current)
        if bigger == current:
            return current
        current = bigger


def is_transitive(pairs):
    succ = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    return all(
        (a, c) in pairs for a, b in pairs for c in succ.get(b, ())
    )


# --- strategies ---


@st.composite
def relations(draw, max_n=8, allow_empty=True):
    n = draw(st.integers(0 if allow_empty else 1, max_n))
    if n == 0:
        return Relation(0, ())
    idx = st.integers(0, n - 1)
    pairs = draw(st.sets(st.tuples(idx, idx), max_size=n * n))
    return Relation.from_pairs(n, pairs)


@st.composite
def acyclic_relations(draw, max_n=10):
    # Orient every drawn pair along a hidden random order: cycles impossible.
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(list(range(n))))
    rank = {e: i for i, e in enumerate(order)}
    idx = st.integers(0, n - 1)
    raw = draw(st.sets(st.tuples(idx, idx), max_size=3 * n))
    pairs = {
        (a, b) if rank[a] < rank[b] else (b, a) for a, b in raw if a != b
    }
    return Relation.from_pairs(n, pairs)


# --- Relation type ---


def test_relation_normalizes_and_validates():
    rel = Relation.from_pairs(3, [(0, 1), (0, 1), (2, 1)])
    assert rel.pairs == {(0, 1), (2, 1)}
    assert len(rel) == 2
    assert (0, 1) in rel.pairs and (1, 0) not in rel.pairs
    assert rel.sorted_pairs() == [(0, 1), (2, 1)]


def test_relation_rejects_out_of_range():
    with pytest.raises(RelationError):
        Relation.from_pairs(2, [(0, 2)])
    with pytest.raises(RelationError):
        Relation.from_pairs(2, [(-1, 0)])
    with pytest.raises(RelationError):
        Relation(-1, frozenset())


@pytest.mark.parametrize(
    "count, pairs, reason",
    [
        (2, {(True, 1.9)}, "pair (True, 1.9) is not two integers"),
        (2, {(0, 1.0)}, "pair (0, 1.0) is not two integers"),
        (2, {("0", 1)}, "pair ('0', 1) is not two integers"),
        (2, {(0, np.int64(1))}, "is not two integers"),
        (2.5, {(0, 1)}, "element_count must be an integer, got 2.5"),
        (True, frozenset(), "element_count must be an integer, got True"),
    ],
    ids=["bool-and-float", "float", "string", "numpy", "float-count", "bool-count"],
)
def test_relation_refuses_what_is_not_a_python_int(count, pairs, reason):
    # Each was coerced before: (True, 1.9) became (1, 1), 2.5 became 2.
    with pytest.raises(RelationError, match=re.escape(reason)):
        Relation(count, pairs)


def test_relation_degree_helpers():
    rel = Relation.from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert rel.out_degrees() == [2, 1, 1, 0]
    assert rel.in_degrees() == [0, 1, 1, 2]
    assert rel.successors() == [[1, 2], [3], [3], []]


def test_relation_json_round_trip_and_sorted_pairs():
    rel = Relation.from_pairs(4, [(2, 3), (0, 1), (0, 3)])
    text = relation_to_json(rel)
    assert json.loads(text) == {"n": 4, "pairs": [[0, 1], [0, 3], [2, 3]]}
    assert relation_from_json(text) == rel


# --- is_acyclic ---


def test_acyclic_branching():
    ok, violation = is_acyclic(Relation.from_pairs(3, [(0, 1), (0, 2)]))
    assert ok and violation is None


def test_three_cycle_witness():
    ok, violation = is_acyclic(Relation.from_pairs(3, [(0, 1), (1, 2), (2, 0)]))
    assert not ok
    assert violation.kind == "cycle"
    assert violation.witness == (0, 1, 2, 0)


def test_empty_relation_is_acyclic():
    ok, _ = is_acyclic(Relation(5, ()))
    assert ok


def test_self_pair_is_a_cycle():
    ok, violation = is_acyclic(Relation.from_pairs(2, [(0, 0)]))
    assert not ok
    assert violation.witness == (0, 0)


@given(acyclic_relations())
def test_witness_pairs_belong_to_relation(rel):
    # Force a cycle by adding the reverse of one pair, then check the witness.
    if not rel.pairs:
        return
    a, b = rel.sorted_pairs()[0]
    cyclic = Relation(rel.element_count, rel.pairs | {(b, a)})
    ok, violation = is_acyclic(cyclic)
    assert not ok
    w = violation.witness
    assert w[0] == w[-1]
    assert all((w[i], w[i + 1]) in cyclic.pairs for i in range(len(w) - 1))


# --- transitive_closure ---


def test_closure_chain():
    rel = Relation.from_pairs(3, [(0, 1), (1, 2)])
    assert transitive_closure(rel).pairs == {(0, 1), (1, 2), (0, 2)}


def test_closure_already_transitive():
    rel = Relation.from_pairs(3, [(0, 1), (0, 2)])
    assert transitive_closure(rel) == rel


def test_closure_preserves_element_count():
    rel = Relation(7, ())
    assert transitive_closure(rel).element_count == 7


@given(relations(max_n=8))
@settings(max_examples=200)
def test_closure_matches_composition_oracle(rel):
    assert transitive_closure(rel).pairs == closure_oracle(rel.pairs)


@given(relations(max_n=12))
def test_closure_idempotent(rel):
    once = transitive_closure(rel)
    assert transitive_closure(once) == once


@given(relations(max_n=12))
def test_closure_extensive(rel):
    assert rel.pairs <= transitive_closure(rel).pairs


@given(relations(max_n=7))
@settings(max_examples=100)
def test_closure_minimal_under_single_pair_removal(rel):
    closed = transitive_closure(rel)
    for p in closed.pairs - rel.pairs:
        assert not is_transitive(closed.pairs - {p})


# --- order property checks ---


def test_reflexive_pair_reported_first():
    ok, violation = is_strict_partial_order(Relation.from_pairs(1, [(0, 0)]))
    assert not ok
    assert violation == OrderViolation("reflexive-pair", (0,))


def test_antisymmetry_violation():
    ok, violation = is_strict_partial_order(Relation.from_pairs(2, [(0, 1), (1, 0)]))
    assert not ok
    assert violation == OrderViolation("antisymmetry-pair", (0, 1))


def test_missing_transitive_pair():
    ok, violation = is_strict_partial_order(Relation.from_pairs(3, [(0, 1), (1, 2)]))
    assert not ok
    assert violation == OrderViolation("missing-transitive-pair", (0, 1, 2))


@given(acyclic_relations(max_n=12))
@settings(max_examples=300)
def test_closure_of_acyclic_is_strict_partial_order(rel):
    ok, violation = is_strict_partial_order(transitive_closure(rel))
    assert ok, violation


@given(acyclic_relations(max_n=12))
def test_closure_of_acyclic_never_symmetric(rel):
    closed = transitive_closure(rel)
    assert not any((b, a) in closed.pairs for a, b in closed.pairs)


def is_total(rel):
    """Strict total order: a strict partial order in which every two distinct
    elements are comparable."""
    pairs = itertools.combinations(range(rel.element_count), 2)
    return is_strict_partial_order(rel)[0] and all(
        p in rel.pairs or p[::-1] in rel.pairs for p in pairs
    )


def test_total_order_of_chain_closure():
    assert is_total(transitive_closure(Relation.from_pairs(3, [(0, 1), (1, 2)])))
    # Branching leaves 1 and 2 incomparable.
    assert not is_total(transitive_closure(Relation.from_pairs(3, [(0, 1), (0, 2)])))


def test_total_order_singleton_and_empty():
    assert is_total(Relation(1, ()))
    assert is_total(Relation(0, ()))


@given(st.permutations(list(range(6))))
def test_permutation_adjacency_closure_is_total(perm):
    closed = transitive_closure(permutation_to_relation(perm))
    assert is_total(closed)
    # Each element before the ones the permutation puts after it.
    assert closed.pairs == set(itertools.combinations(perm, 2))


# --- permutation conversions ---


def test_permutation_to_relation_examples():
    assert permutation_to_relation([2, 0, 1]).pairs == {(2, 0), (0, 1)}
    assert permutation_to_relation([0]).pairs == set()
    assert permutation_to_relation([0, 1, 2, 3]).pairs == {(0, 1), (1, 2), (2, 3)}


def test_permutation_to_relation_rejects_non_permutations():
    with pytest.raises(InvalidPermutationError):
        permutation_to_relation([0, 0, 1])
    with pytest.raises(InvalidPermutationError):
        permutation_to_relation([0, 2])
    for perm, element in [
        ([1.9, 0.2], "1.9"),
        ([True, False], "True"),
        ([0, 1.0], "1.0"),
        ([1, "0"], "'0'"),
        (np.array([1, 0]), repr(np.int64(1))),  # "1" before numpy 2
    ]:
        with pytest.raises(InvalidPermutationError,
                           match=re.escape(f"permutation element {element} is not an integer")):
            permutation_to_relation(perm)


# --- topological_linearization ---


def test_linearization_index_tie_break():
    assert topological_linearization(Relation.from_pairs(3, [(0, 1), (0, 2)])) == [0, 1, 2]


def test_linearization_empty():
    assert topological_linearization(Relation(3, ())) == [0, 1, 2]


def test_linearization_cycle_error_carries_witness():
    rel = Relation.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CycleError) as excinfo:
        topological_linearization(rel)
    assert excinfo.value.witness == (0, 1, 2, 0)


def test_linearization_geometric_tie_break():
    # Keys sort element 2 ahead of element 1 when both are available.
    rel = Relation.from_pairs(3, [(0, 1), (0, 2)])
    order = topological_linearization(rel, tie_key=[(0, 0), (5, 0), (1, 0)])
    assert order == [0, 2, 1]


def test_linearization_tie_key_length_checked():
    with pytest.raises(RelationError):
        topological_linearization(Relation(2, ()), tie_key=[(0, 0)])


@given(acyclic_relations(max_n=10))
def test_linearization_respects_all_pairs(rel):
    order = topological_linearization(rel)
    assert sorted(order) == list(range(rel.element_count))
    position = {e: i for i, e in enumerate(order)}
    assert all(position[a] < position[b] for a, b in rel.pairs)


def test_chain_linearization_round_trips():
    chain = Relation.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    assert permutation_to_relation(topological_linearization(chain)) == chain


# --- best_permutation_recall ---


def test_branching_recall_half():
    perm, recall = best_permutation_recall(Relation.from_pairs(3, [(0, 1), (0, 2)]))
    assert recall == 0.5
    assert sorted(perm) == [0, 1, 2]


def test_chain_recall_one():
    perm, recall = best_permutation_recall(Relation.from_pairs(3, [(0, 1), (1, 2)]))
    assert recall == 1.0
    assert perm == [0, 1, 2]


def test_grid_2x2_recall_half():
    grid = Relation.from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    _, recall = best_permutation_recall(grid)
    assert recall == 0.5


def test_empty_relation_recall_is_vacuously_perfect():
    perm, recall = best_permutation_recall(Relation(3, ()))
    assert (perm, recall) == ([0, 1, 2], 1.0)


def test_recall_refuses_large_inputs():
    rel = Relation.from_pairs(BRUTE_FORCE_MAX_N + 1, [(0, 1)])
    with pytest.raises(SizeLimitError):
        best_permutation_recall(rel)


def test_recall_refuses_cyclic_inputs():
    with pytest.raises(CycleError):
        best_permutation_recall(Relation.from_pairs(2, [(0, 1), (1, 0)]))


@given(acyclic_relations(max_n=5))
@settings(max_examples=60, deadline=None)
def test_recall_matches_exhaustive_recount(rel):
    if not rel.pairs:
        return
    perm, recall = best_permutation_recall(rel)
    best = max(
        sum(1 for adj in zip(p, p[1:]) if adj in rel.pairs)
        for p in itertools.permutations(range(rel.element_count))
    )
    assert recall == best / len(rel.pairs)
    hits = sum(1 for adj in zip(perm, perm[1:]) if adj in rel.pairs)
    assert hits == best


@given(acyclic_relations(max_n=6))
@settings(deadline=None)
def test_recall_bounded_by_adjacency_budget(rel):
    n = rel.element_count
    if len(rel.pairs) <= n - 1:
        return
    _, recall = best_permutation_recall(rel)
    assert recall <= (n - 1) / len(rel.pairs)

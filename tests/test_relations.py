import itertools
import json
import re
import tracemalloc
from dataclasses import dataclass

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
    best_permutation_recall,
    is_acyclic,
    is_strict_partial_order,
    permutation_to_relation,
    relation_from_json,
    relation_to_json,
    topological_linearization,
    transitive_closure,
)
from rorokit.synth import grid_relation_pairs

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


# --- reference: the relation as a pair set, with its pair-set algorithms ---


@dataclass(frozen=True)
class PairSet:
    """A relation stored as a frozenset of pairs over ``0..element_count-1``."""

    element_count: int
    pairs: frozenset

    def successors(self):
        succ = [[] for _ in range(self.element_count)]
        for a, b in self.pairs:
            succ[a].append(b)
        for lst in succ:
            lst.sort()
        return succ


def reference_is_acyclic(rel: PairSet):
    """Depth-first search from ascending starts, ascending successors; the
    first cycle met is the witness."""
    succ = rel.successors()
    color = [0] * rel.element_count  # 0 unvisited, 1 on stack, 2 done
    for start in range(rel.element_count):
        if color[start]:
            continue
        path = [start]
        stack = [(start, iter(succ[start]))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    witness = tuple(path[path.index(nxt):] + [nxt])
                    return False, OrderViolation("cycle", witness)
                if color[nxt] == 0:
                    color[nxt] = 1
                    path.append(nxt)
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                path.pop()
                stack.pop()
    return True, None


def reference_closure(rel: PairSet) -> PairSet:
    """One graph search per source through a successor map."""
    succ = {}
    for a, b in rel.pairs:
        succ.setdefault(a, []).append(b)
    out = set()
    for s in succ:
        seen = set()
        frontier = list(succ[s])
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(succ.get(node, ()))
        out.update((s, t) for t in seen)
    return PairSet(rel.element_count, frozenset(out))


def reference_is_strict_partial_order(rel: PairSet):
    """Irreflexivity, antisymmetry, transitivity, each in a scan of sorted
    pairs; the first violation is the witness."""
    for i in range(rel.element_count):
        if (i, i) in rel.pairs:
            return False, OrderViolation("reflexive-pair", (i,))
    ordered = sorted(rel.pairs)
    for a, b in ordered:
        if a < b and (b, a) in rel.pairs:
            return False, OrderViolation("antisymmetry-pair", (a, b))
    succ = rel.successors()
    for a, b in ordered:
        for c in succ[b]:
            if (a, c) not in rel.pairs:
                return False, OrderViolation("missing-transitive-pair", (a, b, c))
    return True, None


def exhaustive_recall(rel: Relation) -> float:
    """The best recall of ``rel`` by a permutation's adjacent pairs, by search
    of all n! permutations."""
    n = rel.element_count
    assert n <= BRUTE_FORCE_MAX_N, f"exhaustive search refused for n={n}"
    pairs = rel.pairs
    if not pairs:
        return 1.0
    best_hits = 0
    for perm in itertools.permutations(range(n)):
        best_hits = max(best_hits, len(pairs.intersection(zip(perm, perm[1:]))))
        if best_hits == len(pairs):
            break
    return best_hits / len(pairs)


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


@st.composite
def pair_sets(draw, max_n=8):
    """(n, pairs): any relation, reflexive and cyclic ones included."""
    n = draw(st.integers(0, max_n))
    if n == 0:
        return 0, set()
    idx = st.integers(0, n - 1)
    return n, draw(st.sets(st.tuples(idx, idx), max_size=n * n))


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


@given(pair_sets(), pair_sets(), st.randoms(use_true_random=False))
@settings(max_examples=300, derandomize=True, database=None)
def test_rows_match_the_pair_set_reference(drawn, other_drawn, rnd):
    n, pairs = drawn
    listed = sorted(pairs)
    rnd.shuffle(listed)
    rel, ref = Relation(n, listed), PairSet(n, frozenset(pairs))
    assert rel.sorted_pairs() == sorted(ref.pairs)
    assert rel.pairs == ref.pairs and len(rel) == len(ref.pairs)
    assert rel.successors() == ref.successors()
    assert rel.out_degrees() == [len(s) for s in ref.successors()]
    assert rel.in_degrees() == [sum(b == i for _, b in ref.pairs) for i in range(n)]
    twin = Relation(n, sorted(pairs, reverse=True))
    assert rel == twin and hash(rel) == hash(twin)
    assert Relation.from_rows(
        [sum(1 << b for b in succ) for succ in ref.successors()]
    ) == rel

    other = Relation(*other_drawn)
    assert (rel == other) == ((n, ref.pairs) == (other.element_count, other.pairs))
    assert rel.shared(other) == len(ref.pairs & other.pairs)

    closed, ref_closed = transitive_closure(rel), reference_closure(ref)
    assert closed.sorted_pairs() == sorted(ref_closed.pairs)
    assert is_acyclic(rel) == reference_is_acyclic(ref)
    for checked, reference in ((rel, ref), (closed, ref_closed)):
        assert is_strict_partial_order(checked) == reference_is_strict_partial_order(
            reference
        )


def test_closure_of_a_long_chain_holds_rows_not_pairs():
    # As 130816 pair tuples in a set the closure held 11.5 MB.
    chain = Relation(512, [(i, i + 1) for i in range(511)])
    tracemalloc.start()
    try:
        closed = transitive_closure(chain)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(closed) == 512 * 511 // 2
    assert held < 1 << 20, f"closure holds {held} bytes"


def test_rows_keep_only_the_elements_pairs_name():
    rel = Relation.from_rows([0, 0b1000, 0, 0, 0])
    assert rel == Relation(5, [(1, 3)])
    assert (rel.nodes, rel.rows) == ((1, 3), (0b10, 0))
    assert len(Relation(10**12, [(0, 10**12 - 1)]).rows) == 2
    for rows in ([0b100, 0], [-1, 0]):
        with pytest.raises(RelationError, match=re.escape("outside 0..1")):
            Relation.from_rows(rows)


def test_relation_is_immutable():
    rel = Relation(2, [(0, 1)])
    with pytest.raises(AttributeError):
        rel.element_count = 3
    assert {rel: "kept"}[Relation.from_pairs(2, [(0, 1)])] == "kept"


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
@settings(derandomize=True, database=None)
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
@settings(max_examples=200, derandomize=True, database=None)
def test_closure_matches_composition_oracle(rel):
    assert transitive_closure(rel).pairs == closure_oracle(rel.pairs)


@given(relations(max_n=12))
@settings(derandomize=True, database=None)
def test_closure_idempotent(rel):
    once = transitive_closure(rel)
    assert transitive_closure(once) == once


@given(relations(max_n=12))
@settings(derandomize=True, database=None)
def test_closure_extensive(rel):
    assert rel.pairs <= transitive_closure(rel).pairs


@given(relations(max_n=7))
@settings(max_examples=100, derandomize=True, database=None)
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
@settings(max_examples=300, derandomize=True, database=None)
def test_closure_of_acyclic_is_strict_partial_order(rel):
    ok, violation = is_strict_partial_order(transitive_closure(rel))
    assert ok, violation


@given(acyclic_relations(max_n=12))
@settings(derandomize=True, database=None)
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
@settings(derandomize=True, database=None)
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
@settings(derandomize=True, database=None)
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


def test_recall_on_grids_above_the_oracle_cap():
    # An r x c grid's paths cover all but min(r, c) of its cells at best.
    for rows, cols in [(2, 5), (5, 7), (12, 12), (20, 30)]:
        grid = Relation.from_pairs(rows * cols, grid_relation_pairs(rows, cols))
        assert grid.element_count > BRUTE_FORCE_MAX_N
        perm, recall = best_permutation_recall(grid)
        n_pairs = rows * (cols - 1) + cols * (rows - 1)
        assert recall == (rows * cols - min(rows, cols)) / n_pairs
        assert sorted(perm) == list(range(rows * cols))
        hits = len(grid.pairs.intersection(zip(perm, perm[1:])))
        assert hits / n_pairs == recall


def test_recall_of_a_long_chain_is_one():
    chain = Relation.from_pairs(2048, [(i, i + 1) for i in range(2047)])
    assert best_permutation_recall(chain) == (list(range(2048)), 1.0)


def test_recall_permutation_joins_paths_by_first_element():
    rel = Relation.from_pairs(6, [(4, 0), (0, 5), (1, 2)])
    assert best_permutation_recall(rel) == ([1, 2, 3, 4, 0, 5], 1.0)


def test_recall_refuses_cyclic_inputs():
    with pytest.raises(CycleError):
        best_permutation_recall(Relation.from_pairs(2, [(0, 1), (1, 0)]))


@given(acyclic_relations(max_n=BRUTE_FORCE_MAX_N))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_recall_matches_exhaustive_recount(rel):
    perm, recall = best_permutation_recall(rel)
    assert recall == exhaustive_recall(rel)
    assert sorted(perm) == list(range(rel.element_count))
    if rel.pairs:
        hits = len(rel.pairs.intersection(zip(perm, perm[1:])))
        assert hits / len(rel.pairs) == recall


@given(acyclic_relations(max_n=6))
@settings(deadline=None, derandomize=True, database=None)
def test_recall_bounded_by_adjacency_budget(rel):
    n = rel.element_count
    if len(rel.pairs) <= n - 1:
        return
    _, recall = best_permutation_recall(rel)
    assert recall <= (n - 1) / len(rel.pairs)

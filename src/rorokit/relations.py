"""Ordering-relation algebra over indexed elements.

A ``Relation`` is a finite binary relation over the element set
``{0, ..., element_count - 1}``. Reading-order annotations (immediate
succession), their transitive closures (generalized succession), predicted
pair sets, and permutation-derived adjacency sets are all instances of this
one type, so the order-theoretic checks below apply uniformly to all of them.

All functions here are pure and deterministic; violation witnesses are
reported in a fixed scan order so tests can assert on them.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

# ``eval``'s ceiling covers no larger document (until ROADMAP item 1 drops
# the cap), nor does the tests' exhaustive oracle (9! = 362880 permutations).
BRUTE_FORCE_MAX_N = 9


class RelationError(ValueError):
    """Base class for relation-domain errors."""


class CycleError(RelationError):
    """Raised when an operation requires acyclic input but found a cycle."""

    def __init__(self, witness: Sequence[int]):
        self.witness = tuple(int(i) for i in witness)
        super().__init__(f"relation contains a cycle: {list(self.witness)}")


class InvalidPermutationError(RelationError):
    """Raised when a sequence is not a permutation of [0, n)."""


@dataclass(frozen=True)
class OrderViolation:
    """A witnessed failure of an order property.

    ``kind`` is one of "cycle", "reflexive-pair", "antisymmetry-pair" and
    "missing-transitive-pair". ``witness`` holds the element indices forming
    the violating chain or pair, e.g. a cycle ``[a, b, c, a]`` or a missing
    transitive pair ``[i, j, k]`` (meaning (i,j) and (j,k) hold but (i,k)
    does not).
    """

    kind: str
    witness: tuple[int, ...]


def _bits(row: int) -> list[int]:
    """The positions of the set bits of ``row``, ascending."""
    out = []
    while row:
        low = row & -row
        out.append(low.bit_length() - 1)
        row ^= low
    return out


@dataclass(frozen=True, slots=True, init=False)
class Relation:
    """A binary relation over elements ``0..element_count-1`` (set semantics);
    the count and every element are Python ``int``s (not bools), never coerced.

    ``nodes`` holds, ascending, the elements that some pair names, and bit q
    of ``rows[p]`` the pair ``(nodes[p], nodes[q])``: the cost follows the
    pairs, not ``element_count``, and equal relations store equal rows.
    """

    element_count: int
    nodes: tuple[int, ...]
    rows: tuple[int, ...]

    def __init__(self, element_count: int, pairs: Iterable[Sequence[int]] = ()):
        n = element_count
        if type(n) is not int:
            raise RelationError(f"element_count must be an integer, got {n!r}")
        if n < 0:
            raise RelationError("element_count must be non-negative")
        pairs, named = list(pairs), set()
        for a, b in pairs:
            if type(a) is not int or type(b) is not int:
                raise RelationError(f"pair ({a!r}, {b!r}) is not two integers")
            if not (0 <= a < n and 0 <= b < n):
                raise RelationError(
                    f"pair ({a}, {b}) out of range for element_count={n}"
                )
            named.add(a)
            named.add(b)
        rows = [0] * len(named)
        if len(named) == n:  # every element named: positions are elements
            nodes: Sequence[int] = range(n)
            for a, b in pairs:
                rows[a] |= 1 << b
        else:
            nodes = sorted(named)
            position = {e: p for p, e in enumerate(nodes)}
            for a, b in pairs:
                rows[position[a]] |= 1 << position[b]
        self._set_rows(n, nodes, rows)

    def _set_rows(self, element_count: int, nodes: Sequence[int], rows: Sequence[int]):
        object.__setattr__(self, "element_count", element_count)
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "rows", tuple(rows))
        return self

    @classmethod
    def from_pairs(cls, element_count: int, pairs: Iterable[Sequence[int]]) -> "Relation":
        return cls(element_count, pairs)

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "Relation":
        """The relation over ``len(rows)`` elements holding (i, j) for each
        bit j of the Python int ``rows[i]``."""
        named = 0
        for i, row in enumerate(rows):
            named |= row | bool(row) << i
        if named >> len(rows):  # a negative row, or a bit past the last element
            raise RelationError(f"rows name an element outside 0..{len(rows) - 1}")
        nodes, kept = _bits(named), rows
        if len(nodes) < len(rows):  # renumber the bits to the named elements
            position = {e: p for p, e in enumerate(nodes)}
            kept = [sum(1 << position[j] for j in _bits(rows[i])) for i in nodes]
        return object.__new__(cls)._set_rows(len(rows), nodes, kept)

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """The pair set, built from the rows on each read."""
        return frozenset(self.sorted_pairs())

    def sorted_pairs(self) -> list[tuple[int, int]]:
        nodes, out = self.nodes, []
        for a, row in zip(nodes, self.rows):
            while row:  # ``_bits`` inlined, half the time on short rows
                low = row & -row
                out.append((a, nodes[low.bit_length() - 1]))
                row ^= low
        return out

    def successors(self) -> list[list[int]]:
        """Adjacency lists, each sorted ascending."""
        succ: list[list[int]] = [[] for _ in range(self.element_count)]
        for a, row in zip(self.nodes, self.rows):
            succ[a] = [self.nodes[q] for q in _bits(row)]
        return succ

    def in_degrees(self) -> list[int]:
        deg = [0] * self.element_count
        for _, b in self.sorted_pairs():
            deg[b] += 1
        return deg

    def out_degrees(self) -> list[int]:
        deg = [0] * self.element_count
        for a, row in zip(self.nodes, self.rows):
            deg[a] = row.bit_count()
        return deg

    def __len__(self) -> int:
        return sum(map(int.bit_count, self.rows))

    def shared(self, other: "Relation") -> int:
        """The number of pairs that both relations hold."""
        if self.nodes != other.nodes:
            return len(self.pairs & other.pairs)
        return sum((a & b).bit_count() for a, b in zip(self.rows, other.rows))


def index_pair(pair, field: str) -> tuple[int, int]:
    """A JSON pair ``[i, j]`` as a tuple; a value that is not a list of two
    integers (booleans are not) raises ``RelationError`` naming ``field``."""
    if isinstance(pair, list) and len(pair) == 2:
        a, b = pair
        if type(a) is int and type(b) is int:
            return a, b
    raise RelationError(f"{field} pair {pair!r} is not two integers")


def json_relation(element_count: int, pairs, field: str) -> Relation:
    """The relation over ``element_count`` elements of a JSON list of pairs
    (see ``index_pair``). A pair listed twice raises ``RelationError`` naming
    ``field`` and the pair, rather than the set quietly keeping one."""
    indexed = [index_pair(pair, field) for pair in pairs]
    rel = Relation(element_count, indexed)
    if len(rel) != len(indexed):
        repeated = next(p for p, count in Counter(indexed).items() if count > 1)
        raise RelationError(f"{field} lists pair {list(repeated)} more than once")
    return rel


def relation_to_json(rel: Relation) -> str:
    """Serialize as ``{"n": N, "pairs": [[i,j],...]}``, pairs sorted."""
    pairs = [list(p) for p in rel.sorted_pairs()]
    return json.dumps({"n": rel.element_count, "pairs": pairs})


def relation_from_json(text: str) -> Relation:
    """The relation of ``{"n": N, "pairs": [[i, j], ...]}``, each pair listed
    once; anything else raises ``RelationError`` naming the missing or
    malformed field, or the repeated pair."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise RelationError(f"relation is a JSON {type(obj).__name__}, not an object")
    n, pairs = obj.get("n"), obj.get("pairs")
    if type(n) is not int:
        raise RelationError(f"relation field 'n' is missing or not an integer: {n!r}")
    if not isinstance(pairs, list):
        raise RelationError("relation field 'pairs' is missing or not a list")
    return json_relation(n, pairs, "relation")


def _depth_first(rows: Sequence[int]) -> tuple[list[int], Optional[list[int]]]:
    """Depth-first search over row positions, in ascending start and
    successor order: the positions in the order they finish, and the first
    cycle met, as positions ``[s1, ..., sk, s1]`` (None if there is none)."""
    color = [0] * len(rows)  # 0 unvisited, 1 on the path, 2 finished
    finished: list[int] = []
    cycle = None
    for start in range(len(rows)):
        if color[start]:
            continue
        color[start] = 1
        path, stack = [start], [iter(_bits(rows[start]))]
        while stack:
            for nxt in stack[-1]:
                if color[nxt] == 0:
                    color[nxt] = 1
                    path.append(nxt)
                    stack.append(iter(_bits(rows[nxt])))
                    break
                if color[nxt] == 1 and cycle is None:
                    cycle = path[path.index(nxt):] + [nxt]
            else:
                color[path[-1]] = 2
                finished.append(path.pop())
                stack.pop()
    return finished, cycle


def is_acyclic(rel: Relation) -> tuple[bool, Optional[OrderViolation]]:
    """Check that no directed cycle exists; on failure return a witness cycle.

    The witness is a node sequence ``[s1, ..., sk, s1]`` whose consecutive
    pairs all belong to the relation. Scan order is deterministic (ascending
    start node, ascending successors), so the same input always yields the
    same witness.
    """
    _, cycle = _depth_first(rel.rows)
    if cycle is None:
        return True, None
    return False, OrderViolation("cycle", tuple(rel.nodes[p] for p in cycle))


def transitive_closure(rel: Relation) -> Relation:
    """Smallest transitive superset of ``rel`` over the same element set.

    Defined for any relation, cyclic or not. Each row becomes its successors'
    closed rows joined with its own, computed in depth-first finish order, in
    which an acyclic relation's successors close first; a cyclic one repeats
    the pass until no row grows. The cost follows the pairs, not
    ``element_count``, and no N x N matrix is built.
    """
    rows = rel.rows
    finished, cycle = _depth_first(rows)
    reach = [0] * len(rows)
    grown = True
    while grown:
        grown = False
        for p in finished:
            closed = rows[p]
            for q in _bits(rows[p]):
                closed |= reach[q]
            grown |= closed != reach[p]
            reach[p] = closed
        grown &= cycle is not None
    return object.__new__(Relation)._set_rows(rel.element_count, rel.nodes, reach)


def is_strict_partial_order(rel: Relation) -> tuple[bool, Optional[OrderViolation]]:
    """Check irreflexivity, antisymmetry and transitivity, in that order.

    The first violation found in a fixed scan (ascending indices / sorted
    pairs) is reported.
    """
    nodes, rows = rel.nodes, rel.rows
    for p, row in enumerate(rows):
        if row >> p & 1:
            return False, OrderViolation("reflexive-pair", (nodes[p],))
    for p, row in enumerate(rows):
        for q in _bits(row):
            if q > p and rows[q] >> p & 1:
                return False, OrderViolation("antisymmetry-pair", (nodes[p], nodes[q]))
    for p, row in enumerate(rows):
        for q in _bits(row):
            missing = rows[q] & ~row
            if missing:
                c = (missing & -missing).bit_length() - 1
                return False, OrderViolation(
                    "missing-transitive-pair", (nodes[p], nodes[q], nodes[c])
                )
    return True, None


def permutation_to_relation(perm: Sequence[int]) -> Relation:
    """Relation holding exactly the adjacent pairs of a permutation of [0, n);
    every element must be a Python ``int`` (not a bool), never coerced."""
    n = len(perm)
    values = list(perm)
    for p in values:
        if type(p) is not int:
            raise InvalidPermutationError(f"permutation element {p!r} is not an integer")
    if sorted(values) != list(range(n)):
        raise InvalidPermutationError(
            f"sequence is not a permutation of [0, {n}): {values}"
        )
    return Relation(n, zip(values, values[1:]))


def topological_linearization(
    rel: Relation, tie_key: Optional[Sequence] = None
) -> list[int]:
    """A permutation placing i before j for every pair (i, j) in the relation.

    Ties among simultaneously-available elements break on ``tie_key`` (one key
    per element, e.g. a geometric (y, x) tuple); ascending element index when
    no key is given. Raises :class:`CycleError` on cyclic input.
    """
    import heapq

    n = rel.element_count
    if tie_key is not None and len(tie_key) != n:
        raise RelationError("tie_key must provide one key per element")

    def key(i: int):
        return (i,) if tie_key is None else (tie_key[i], i)

    succ = rel.successors()
    indeg = rel.in_degrees()
    heap = [key(i) for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        node = heapq.heappop(heap)[-1]
        order.append(node)
        for nxt in succ[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(heap, key(nxt))
    if len(order) != n:
        _, violation = is_acyclic(rel)
        assert violation is not None
        raise CycleError(violation.witness)
    return order


def best_permutation_recall(rel: Relation) -> tuple[list[int], float]:
    """The permutation whose adjacent pairs cover the most of acyclic ``rel``,
    and that recall: how much of a branching reading order one sequence
    can carry. Its pairs in ``rel`` are disjoint paths, so the best count is
    a maximum matching between elements as sources and as targets (a minimum
    path cover has n minus that many paths; Fulkerson 1956), grown by one
    augmenting path per source, searched without recursion. The permutation
    is the matched paths joined in ascending order of their first elements.
    """
    n = rel.element_count
    if not len(rel):
        # Recall over an empty gold set is vacuously perfect.
        return list(range(n)), 1.0
    ok, violation = is_acyclic(rel)
    if not ok:
        assert violation is not None
        raise CycleError(violation.witness)
    rows = rel.rows
    target_of = [-1] * len(rows)  # position matched as each source's successor
    source_of = [-1] * len(rows)  # position matched as each target's predecessor
    for start in range(len(rows)):
        via: dict[int, int] = {}  # target reached -> source it was reached from
        seen, frontier, free = 0, [start], -1
        while frontier and free < 0:
            source = frontier.pop()
            fresh = rows[source] & ~seen
            seen |= fresh
            for target in _bits(fresh):
                via[target] = source
                if source_of[target] < 0:
                    free = target
                    break
                frontier.append(source_of[target])
        target = free
        while target >= 0:  # flip the alternating path back to ``start``
            source = via[target]
            source_of[target] = source
            target_of[source], target = target, target_of[source]
    nodes = rel.nodes
    successor = {nodes[p]: nodes[q] for p, q in enumerate(target_of) if q >= 0}
    perm: list[int] = []
    for first in sorted(set(range(n)) - set(successor.values())):
        perm.append(first)
        while perm[-1] in successor:
            perm.append(successor[perm[-1]])
    return perm, len(successor) / len(rel)

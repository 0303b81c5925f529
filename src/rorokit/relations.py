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

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

# Exhaustive permutation search refuses above this many elements (9! = 362880).
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


class SizeLimitError(RelationError):
    """Raised when an exhaustive operation is asked to exceed its size bound."""


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


@dataclass(frozen=True)
class Relation:
    """A binary relation over elements ``0..element_count-1`` (set semantics);
    the count and every element are Python ``int``s (not bools), never coerced."""

    element_count: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        n = self.element_count
        if type(n) is not int:
            raise RelationError(f"element_count must be an integer, got {n!r}")
        if n < 0:
            raise RelationError("element_count must be non-negative")
        pairs = frozenset((a, b) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        for a, b in pairs:
            if type(a) is not int or type(b) is not int:
                raise RelationError(f"pair ({a!r}, {b!r}) is not two integers")
            if not (0 <= a < n and 0 <= b < n):
                raise RelationError(
                    f"pair ({a}, {b}) out of range for element_count={n}"
                )

    @classmethod
    def from_pairs(cls, element_count: int, pairs: Iterable[Sequence[int]]) -> "Relation":
        return cls(element_count, pairs)  # __post_init__ builds the pair set

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)

    def successors(self) -> list[list[int]]:
        """Adjacency lists, each sorted ascending."""
        succ: list[list[int]] = [[] for _ in range(self.element_count)]
        for a, b in self.pairs:
            succ[a].append(b)
        for lst in succ:
            lst.sort()
        return succ

    def in_degrees(self) -> list[int]:
        deg = [0] * self.element_count
        for _, b in self.pairs:
            deg[b] += 1
        return deg

    def out_degrees(self) -> list[int]:
        deg = [0] * self.element_count
        for a, _ in self.pairs:
            deg[a] += 1
        return deg

    def __len__(self) -> int:
        return len(self.pairs)


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


def is_acyclic(rel: Relation) -> tuple[bool, Optional[OrderViolation]]:
    """Check that no directed cycle exists; on failure return a witness cycle.

    The witness is a node sequence ``[s1, ..., sk, s1]`` whose consecutive
    pairs all belong to the relation. Scan order is deterministic (ascending
    start node, ascending successors), so the same input always yields the
    same witness.
    """
    n = rel.element_count
    succ = rel.successors()
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done
    for start in range(n):
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
                    i = path.index(nxt)
                    witness = tuple(path[i:] + [nxt])
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


def transitive_closure(rel: Relation) -> Relation:
    """Smallest transitive superset of ``rel`` over the same element set.

    Defined for any relation, cyclic or not. One graph search per source,
    through a successor map built from the pairs, so the cost follows the
    pairs, not ``element_count``, and no N x N matrix is built.
    """
    succ: dict[int, list[int]] = {}
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
    return Relation(rel.element_count, frozenset(out))


def is_strict_partial_order(rel: Relation) -> tuple[bool, Optional[OrderViolation]]:
    """Check irreflexivity, antisymmetry and transitivity, in that order.

    The first violation found in a fixed scan (ascending indices / sorted
    pairs) is reported.
    """
    for i in range(rel.element_count):
        if (i, i) in rel.pairs:
            return False, OrderViolation("reflexive-pair", (i,))
    ordered = rel.sorted_pairs()
    for a, b in ordered:
        if a < b and (b, a) in rel.pairs:
            return False, OrderViolation("antisymmetry-pair", (a, b))
    succ = rel.successors()
    for a, b in ordered:
        for c in succ[b]:
            if (a, c) not in rel.pairs:
                return False, OrderViolation("missing-transitive-pair", (a, b, c))
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
    """Exhaustively find the permutation whose adjacency best covers ``rel``.

    Searches all n! permutations and returns the lexicographically first one
    maximizing ``|adjacent pairs of perm∩ rel| / |rel|``, together with that
    recall. Quantifies how much of a branching reading order a single
    sequence can carry.
    """
    n = rel.element_count
    if n > BRUTE_FORCE_MAX_N:
        raise SizeLimitError(
            f"exhaustive search refused for n={n} > {BRUTE_FORCE_MAX_N}"
        )
    if not rel.pairs:
        # Recall over an empty gold set is vacuously perfect.
        return list(range(n)), 1.0
    ok, violation = is_acyclic(rel)
    if not ok:
        assert violation is not None
        raise CycleError(violation.witness)
    total = len(rel.pairs)
    best_perm: list[int] = list(range(n))
    best_hits = -1
    for perm in itertools.permutations(range(n)):
        hits = sum(1 for adj in zip(perm, perm[1:]) if adj in rel.pairs)
        if hits > best_hits:
            best_hits = hits
            best_perm = list(perm)
            if hits == total:
                break
    return best_perm, best_hits / total

"""Planar-free matching diagrams on n top and n bottom points.

Endpoints are labelled T1..Tn across the top and B1..Bn across the bottom.
Internally endpoint k is an integer: 0..n-1 for T1..Tn, n..2n-1 for B1..Bn.
A diagram is a perfect matching of the 2n endpoints; virtual crossings make
every matching admissible, not just the planar ones.

The product x * y stacks x above y: x's bottom row is glued to y's top row,
the composite matching is read off the glued picture, and closed loops in the
middle layer are counted and returned separately.
"""

from __future__ import annotations

import random
from functools import total_ordering

from .errors import StrandMismatchError

Pair = tuple[int, int]


def _canonical(pairs) -> tuple[Pair, ...]:
    return tuple(sorted((p, q) if p < q else (q, p) for p, q in pairs))


@total_ordering
class Matching:
    __slots__ = ("n", "pairs")

    def __init__(self, n: int, pairs):
        if n < 1:
            raise ValueError("need at least one strand")
        pairs = _canonical(pairs)
        seen = [False] * (2 * n)
        for p, q in pairs:
            for e in (p, q):
                if not 0 <= e < 2 * n:
                    raise ValueError(f"endpoint {e} out of range for n={n}")
                if seen[e]:
                    raise ValueError(f"endpoint {endpoint_label(e, n)} used twice")
                seen[e] = True
        if len(pairs) != n:
            raise ValueError(f"expected {n} pairs, got {len(pairs)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def _trusted(cls, n: int, pairs) -> Matching:
        """Canonicalise pairs already known to match the 2n endpoints; no checks."""
        return cls._sorted(n, _canonical(pairs))

    @classmethod
    def _sorted(cls, n: int, pairs: tuple[Pair, ...]) -> Matching:
        """Wrap pairs that are already canonical; no checks, no sort."""
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "pairs", pairs)
        return out

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Matching is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self.n == other.n and self.pairs == other.pairs

    def __lt__(self, other) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return (self.n, self.pairs) < (other.n, other.pairs)

    def __hash__(self):
        return hash((self.n, self.pairs))

    def __repr__(self) -> str:
        body = ", ".join(
            f"({endpoint_label(p, self.n)},{endpoint_label(q, self.n)})"
            for p, q in self.pairs
        )
        return f"Matching(n={self.n}: {body})"

    def partner(self, endpoint: int) -> int:
        for p, q in self.pairs:
            if p == endpoint:
                return q
            if q == endpoint:
                return p
        raise ValueError(f"endpoint {endpoint} not present")

    def to_obj(self) -> list[list[str]]:
        return [
            [endpoint_label(p, self.n), endpoint_label(q, self.n)]
            for p, q in self.pairs
        ]


def endpoint_label(k: int, n: int) -> str:
    return f"T{k + 1}" if k < n else f"B{k - n + 1}"


def parse_endpoint(label: str, n: int) -> int:
    row, idx = label[0], int(label[1:])
    if not 1 <= idx <= n or row not in "TB":
        raise ValueError(f"bad endpoint label {label!r} for n={n}")
    return idx - 1 if row == "T" else n + idx - 1


def matching_from_labels(n: int, pairs) -> Matching:
    return Matching(n, [(parse_endpoint(p, n), parse_endpoint(q, n)) for p, q in pairs])


def identity_diagram(n: int) -> Matching:
    return Matching(n, [(i, n + i) for i in range(n)])


def e_diagram(i: int, n: int) -> Matching:
    """Cup-cap diagram: T_i-T_{i+1} and B_i-B_{i+1} joined, rest through."""
    _check_site(i, n)
    pairs = [(i - 1, i), (n + i - 1, n + i)]
    pairs += [(j, n + j) for j in range(n) if j not in (i - 1, i)]
    return Matching(n, pairs)


def v_diagram(i: int, n: int) -> Matching:
    """Virtual crossing: strands i and i+1 swapped, rest through."""
    _check_site(i, n)
    pairs = [(i - 1, n + i), (i, n + i - 1)]
    pairs += [(j, n + j) for j in range(n) if j not in (i - 1, i)]
    return Matching(n, pairs)


def permutation_diagram(n: int, image: list[int]) -> Matching:
    """Diagram wiring top j to bottom image[j] (0-based one-line notation)."""
    if sorted(image) != list(range(n)):
        raise ValueError("not a permutation")
    return Matching(n, [(j, n + image[j]) for j in range(n)])


def _check_site(i: int, n: int) -> None:
    if not 1 <= i <= n - 1:
        raise ValueError(f"site index {i} out of range for n={n}")


def compose(upper: Matching, lower: Matching) -> tuple[Matching, int]:
    """Stack `upper` above `lower`; return the glued matching and loop count.

    Nodes of the glued picture: upper tops (the new tops), a middle layer
    where upper bottoms meet lower tops, and lower bottoms (the new bottoms).
    Every middle node has exactly one edge from each layer, so paths from a
    boundary endpoint alternate layers until they exit at another boundary
    endpoint; middle components never reaching the boundary are closed loops.
    """
    if upper.n != lower.n:
        raise StrandMismatchError(f"cannot compose n={upper.n} with n={lower.n}")
    n = upper.n

    # Glued-picture node encoding: 0..n-1 new tops, n..2n-1 middle (upper
    # bottoms = lower tops), 2n..3n-1 new bottoms.  Upper endpoints keep
    # their indices; lower endpoints shift by n.
    mid_end = 2 * n
    up_nbr = [0] * mid_end
    low_nbr = [0] * (3 * n)
    for p, q in upper.pairs:
        up_nbr[p] = q
        up_nbr[q] = p
    for p, q in lower.pairs:
        low_nbr[p + n] = q + n
        low_nbr[q + n] = p + n

    # Boundary endpoints are walked in increasing order of their new label,
    # so each path is entered at its smaller end.
    visited = [False] * (3 * n)
    new_pairs: list[Pair] = []
    for start in (*range(n), *range(mid_end, 3 * n)):
        if visited[start]:
            continue
        layer_up = start < n  # leave a new top through the upper layer
        node = up_nbr[start] if layer_up else low_nbr[start]
        while n <= node < mid_end:
            visited[node] = True
            layer_up = not layer_up
            node = up_nbr[node] if layer_up else low_nbr[node]
        visited[node] = True
        new_pairs.append((start if start < n else start - n, node if node < n else node - n))

    # What is left of the middle layer are closed loops.  Each is walked
    # from one node, an upper edge then a lower edge at a time, until the
    # walk is back where it began.
    loops = 0
    for m in range(n, mid_end):
        if visited[m]:
            continue
        loops += 1
        node = m
        while not visited[node]:
            visited[node] = True
            node = up_nbr[node]
            visited[node] = True
            node = low_nbr[node]
    return Matching._trusted(n, new_pairs), loops


# Kinds of the generator matchings that `apply_generator` multiplies by.
IDENTITY, CUP, CROSS = "1", "e", "v"

_generator_tables: dict[int, dict[Matching, tuple[str, int]]] = {}


def generator_table(n: int) -> dict[Matching, tuple[str, int]]:
    """The 2n-1 generator matchings on n strands, each mapped to (kind, site).

    The identity maps to (IDENTITY, 0), e_i to (CUP, i) and v_i to (CROSS, i).
    Built once per n.
    """
    table = _generator_tables.get(n)
    if table is None:
        table = {identity_diagram(n): (IDENTITY, 0)}
        for i in range(1, n):
            table[e_diagram(i, n)] = (CUP, i)
            table[v_diagram(i, n)] = (CROSS, i)
        _generator_tables[n] = table
    return table


def apply_generator(m: Matching, kind: str, i: int) -> tuple[Matching, int]:
    """`compose(m, g)` for a generator g of `generator_table`, on m's bottoms alone.

    Below m, v_i swaps the labels B_i and B_{i+1}.  e_i joins the partners
    of B_i and B_{i+1} and pairs B_i with B_{i+1}; when m already pairs them,
    its cap closes a loop and m is unchanged.  The pairs of m are canonical,
    so relabelling keeps each pair in order, and no two pairs share a first
    endpoint, so one sort on first endpoints makes the result canonical.
    """
    if kind == IDENTITY:
        return m, 0
    if not 0 < i < m.n:
        raise ValueError(f"site index {i} out of range for n={m.n}")
    a = m.n + i - 1
    b = a + 1
    out = []
    if kind == CROSS:
        for pair in m.pairs:
            p, q = pair
            if q == a:
                out.append((p, b))
            elif q == b:
                if p == a:
                    return m, 0
                out.append((p, a))
            elif p == a:
                out.append((b, q))
            elif p == b:
                out.append((a, q))
            else:
                out.append(pair)
        out.sort()
        return Matching._sorted(m.n, tuple(out)), 0
    if kind != CUP:
        raise ValueError(f"unknown generator kind {kind!r}")
    for pair in m.pairs:
        p, q = pair
        if q == a:
            pa = p
        elif q == b:
            if p == a:
                return m, 1
            pb = p
        elif p == a:
            pa = q
        elif p == b:
            pb = q
        else:
            out.append(pair)
    out.append((pa, pb) if pa < pb else (pb, pa))
    out.append((a, b))
    out.sort()
    return Matching._sorted(m.n, tuple(out)), 0


def closure_loops(m: Matching) -> int:
    """Loops of the Markov closure, where T_i is joined back to B_i."""
    n = m.n
    parent = list(range(2 * n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for p, q in m.pairs:
        union(p, q)
    for i in range(n):
        union(i, n + i)
    return len({find(k) for k in range(2 * n)})


def random_matching(n: int, rng: random.Random) -> Matching:
    points = list(range(2 * n))
    rng.shuffle(points)
    return Matching(n, list(zip(points[0::2], points[1::2])))

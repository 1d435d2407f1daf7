"""Planar-free matching diagrams on n top and n bottom points.

Endpoints are labelled T1..Tn across the top and B1..Bn across the bottom.
Internally endpoint k is an integer: 0..n-1 for T1..Tn, n..2n-1 for B1..Bn.
A diagram is a perfect matching of the 2n endpoints; virtual crossings make
every matching admissible, not just the planar ones.

A `Matching` is stored as its partner array: a tuple of length 2n whose
entry k is the endpoint paired with k.  The array is canonical, so hashing,
equality and order are the tuple's own.  Within one n, tuple order is the
order of the sorted pair lists: at the first index k where two arrays
differ, both agree on every pair with an endpoint below k, so in both k is
the smaller end of its pair, and the pair lists first differ at (k, m[k]).
A `Matching` equals the plain tuple of its entries and hashes the same, so
either can stand for the other as a dict key.  The generator products of
`elements` build plain tuples, which are cheaper, and an `AlgebraElement`
keys its terms by whichever it was given; a `Matching` is built only where
terms are read out.

The product x * y stacks x above y: x's bottom row is glued to y's top row,
the composite matching is read off the glued picture, and closed loops in the
middle layer are counted and returned separately.
"""

from __future__ import annotations

import random

from .errors import StrandMismatchError

Pair = tuple[int, int]

_new = tuple.__new__


class Matching(tuple):
    __slots__ = ()

    def __new__(cls, n: int, pairs) -> Matching:
        if n < 1:
            raise ValueError("need at least one strand")
        partner = [-1] * (2 * n)
        count = 0
        for p, q in pairs:
            count += 1
            for e, f in ((p, q), (q, p)):
                if not 0 <= e < 2 * n:
                    raise ValueError(f"endpoint {e} out of range for n={n}")
                if partner[e] >= 0:
                    raise ValueError(f"endpoint {endpoint_label(e, n)} used twice")
                partner[e] = f
        if count != n:
            raise ValueError(f"expected {n} pairs, got {count}")
        return _new(cls, partner)

    def __getnewargs__(self):
        return self.n, self.pairs

    @property
    def n(self) -> int:
        return len(self) >> 1

    @property
    def pairs(self) -> tuple[Pair, ...]:
        """The pairs (p, q), p < q, in increasing order of p."""
        return tuple((p, q) for p, q in enumerate(self) if p < q)

    def __repr__(self) -> str:
        n = self.n
        body = ", ".join(
            f"({endpoint_label(p, n)},{endpoint_label(q, n)})" for p, q in self.pairs
        )
        return f"Matching(n={n}: {body})"

    def partner(self, endpoint: int) -> int:
        if not 0 <= endpoint < len(self):
            raise ValueError(f"endpoint {endpoint} not present")
        return self[endpoint]

    def to_obj(self) -> list[list[str]]:
        n = len(self) >> 1
        return [
            [endpoint_label(p, n), endpoint_label(q, n)] for p, q in enumerate(self) if p < q
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
    if len(upper) != len(lower):
        raise StrandMismatchError(f"cannot compose n={upper.n} with n={lower.n}")
    n = len(upper) >> 1

    # Middle node j is upper's bottom n + j and lower's top j.  A new top or
    # bottom keeps its label: a path leaving the picture through upper ends
    # at a top k < n, and one leaving through lower at a bottom k >= n.
    out = [-1] * (2 * n)
    seen = [False] * n
    for start in range(2 * n):
        if out[start] >= 0:
            continue
        if start < n:
            k = upper[start]
        else:
            k = lower[start]
            if k >= n:
                out[start] = k
                out[k] = start
                continue
            seen[k] = True
            k = upper[n + k]
        # k is an endpoint of upper here; the path ends at a top of upper or,
        # through the break, at a bottom of lower
        while k >= n:
            k -= n
            seen[k] = True
            k = lower[k]
            if k >= n:
                break
            seen[k] = True
            k = upper[n + k]
        out[start] = k
        out[k] = start

    # The middle nodes left over lie on closed loops.  Each loop is walked
    # from one node, an upper edge then a lower edge at a time, until the
    # walk is back where it began.
    loops = 0
    for j in range(n):
        if seen[j]:
            continue
        loops += 1
        while not seen[j]:
            seen[j] = True
            j = upper[n + j] - n
            seen[j] = True
            j = lower[j]
    return _new(Matching, out), loops


# Generator kinds, each the index of its coefficient in alpha + beta e_i + gamma v_i.
IDENTITY, CUP, CROSS = 0, 1, 2

_generator_tables: dict[int, dict[Matching, tuple[int, int]]] = {}


def generator_table(n: int) -> dict[Matching, tuple[int, int]]:
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


def closure_loops(m: Matching) -> int:
    """Loops of the Markov closure, where T_i is joined back to B_i.

    Every endpoint has one matching edge and one closure edge, so the
    closed picture is a union of cycles; each is walked from its first top.
    """
    n = len(m) >> 1
    seen = [False] * (2 * n)
    loops = 0
    for start in range(n):
        if seen[start]:
            continue
        loops += 1
        k = start
        while not seen[k]:
            p = m[k]
            seen[k] = seen[p] = True
            k = p - n if p >= n else p + n
    return loops


def random_matching(n: int, rng: random.Random) -> Matching:
    """A matching drawn by shuffling the 2n endpoints and pairing them off.

    The shuffle is `random.shuffle`'s own Fisher-Yates, inline: for i = 2n-1
    down to 1, entry i is swapped with entry j, drawn by the same rejection
    loop (`getrandbits` of (i+1).bit_length() bits until j <= i).  So the
    draws and the stream left behind are `rng.shuffle`'s, without its method
    call per draw.  The partner array is filled directly, as in `compose`: a
    shuffle pairs every endpoint exactly once, so there is nothing to validate.
    """
    if n < 1:
        raise ValueError("need at least one strand")
    points = list(range(2 * n))
    getrandbits = rng.getrandbits
    for i in range(2 * n - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        points[i], points[j] = points[j], points[i]
    partner = [0] * (2 * n)
    for k in range(0, 2 * n, 2):
        p, q = points[k], points[k + 1]
        partner[p] = q
        partner[q] = p
    return _new(Matching, partner)

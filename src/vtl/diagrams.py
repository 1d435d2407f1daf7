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
either can stand for the other as a dict key.  `generator_images` hands out
plain tuples, which are cheaper to build, and an `AlgebraElement` keys its
terms by whichever it was given; a `Matching` is built only where terms are
read out.

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


# Kinds of the generator matchings that `generator_images` multiplies by.
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


def generator_images(ms, n: int, kind: str, i: int) -> tuple[list[tuple], list[int]]:
    """`compose(m, g)` for each m in ms, g the generator (kind, i) of `generator_table`.

    Returns the glued partner arrays and the loops each product closes, as
    two lists in the order of ms.  Every m is a partner array on n strands,
    a `Matching` or a plain tuple, and every image is a plain tuple: it
    equals the `Matching` that `compose` gives, without the cost of building
    one.  The kind and the site are checked once for the batch, then each
    product is read off m's bottoms alone.  Below m, v_i swaps the partners
    of B_i and B_{i+1}.  e_i joins those partners and pairs B_i with
    B_{i+1}; when m already pairs them, its cap closes a loop and m is
    unchanged.  Either way four entries change.  The identity's site is not
    looked at.
    """
    if kind == IDENTITY:
        return [tuple(m) for m in ms], [0] * len(ms)
    if kind != CUP and kind != CROSS:
        raise ValueError(f"unknown generator kind {kind!r}")
    if not 0 < i < n:
        raise ValueError(f"site index {i} out of range for n={n}")
    a = n + i - 1
    b = a + 1
    images = []
    if kind == CROSS:
        for m in ms:
            pa = m[a]
            if pa == b:
                images.append(tuple(m))
                continue
            pb = m[b]
            w = list(m)
            w[a] = pb
            w[pb] = a
            w[b] = pa
            w[pa] = b
            images.append(tuple(w))
        return images, [0] * len(images)
    loops = []
    for m in ms:
        pa = m[a]
        if pa == b:
            images.append(tuple(m))
            loops.append(1)
            continue
        pb = m[b]
        w = list(m)
        w[pa] = pb
        w[pb] = pa
        w[a] = b
        w[b] = a
        images.append(tuple(w))
        loops.append(0)
    return images, loops


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
    points = list(range(2 * n))
    rng.shuffle(points)
    return Matching(n, list(zip(points[0::2], points[1::2])))

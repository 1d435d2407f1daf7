"""Matching diagrams and stacking.

`compose_oracle` below recomputes products by union-find over the glued
three-layer picture instead of path walking, so the two implementations can
cross-check each other on random inputs; `closure_loops_oracle` does the same
for the Markov closure.
"""

import random

import pytest

from vtl.diagrams import (
    CROSS,
    CUP,
    IDENTITY,
    Matching,
    closure_loops,
    compose,
    e_diagram,
    endpoint_label,
    generator_images,
    generator_table,
    identity_diagram,
    matching_from_labels,
    parse_endpoint,
    permutation_diagram,
    random_matching,
    v_diagram,
)
from vtl.errors import StrandMismatchError


def compose_oracle(upper, lower):
    """Independent product: components of the glued graph via union-find.

    Every middle node carries exactly one upper and one lower edge, so each
    component is either a path between two boundary points or a purely
    middle cycle; cycles are the closed loops.
    """
    n = upper.n
    parent = list(range(3 * n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    for p, q in upper.pairs:
        union(p, q)
    for p, q in lower.pairs:
        union(p + n, q + n)

    boundary = list(range(n)) + list(range(2 * n, 3 * n))
    groups = {}
    for node in boundary:
        groups.setdefault(find(node), []).append(node)
    pairs = []
    for members in groups.values():
        assert len(members) == 2
        a, b = members
        a = a if a < n else n + (a - 2 * n)
        b = b if b < n else n + (b - 2 * n)
        pairs.append((a, b))
    middle_roots = {find(k) for k in range(n, 2 * n)}
    loops = len(middle_roots - set(groups))
    return Matching(n, pairs), loops


def closure_loops_oracle(m):
    """Loops of the Markov closure as union-find components of the 2n endpoints."""
    n = m.n
    parent = list(range(2 * n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    for p, q in m.pairs:
        union(p, q)
    for i in range(n):
        union(i, n + i)
    return len({find(k) for k in range(2 * n)})


def all_matchings(n):
    """Every perfect matching of the 2n endpoints, as a Matching."""

    def pairings(points):
        if not points:
            yield []
            return
        first, rest = points[0], points[1:]
        for k, partner in enumerate(rest):
            for tail in pairings(rest[:k] + rest[k + 1 :]):
                yield [(first, partner)] + tail

    return [Matching(n, pairs) for pairs in pairings(list(range(2 * n)))]


def test_identity_is_neutral():
    for n in (1, 2, 4):
        one = identity_diagram(n)
        m, loops = compose(one, one)
        assert m == one and loops == 0


def test_cupcap_squares_to_itself_with_one_loop():
    e = e_diagram(1, 2)
    m, loops = compose(e, e)
    assert m == e
    assert loops == 1


def test_cupcap_jones_projection_identity():
    e1 = e_diagram(1, 3)
    e2 = e_diagram(2, 3)
    step, l1 = compose(e1, e2)
    out, l2 = compose(step, e1)
    assert out == e1
    assert l1 + l2 == 0


def test_crossing_is_involution():
    v = v_diagram(1, 3)
    m, loops = compose(v, v)
    assert m == identity_diagram(3)
    assert loops == 0


def test_crossing_absorbs_into_cupcap():
    # v_i e_i = e_i = e_i v_i and no loops appear
    for n in (2, 3, 5):
        for i in range(1, n):
            e, v = e_diagram(i, n), v_diagram(i, n)
            assert compose(v, e) == (e, 0)
            assert compose(e, v) == (e, 0)


def test_conjugating_cupcap_shifts_site():
    """v1 v2 e1 v2 v1 wires up as e2."""
    word = [
        v_diagram(1, 3),
        v_diagram(2, 3),
        e_diagram(1, 3),
        v_diagram(2, 3),
        v_diagram(1, 3),
    ]
    acc, total = word[0], 0
    for step in word[1:]:
        acc, loops = compose(acc, step)
        total += loops
    assert acc == e_diagram(2, 3)
    assert total == 0


def test_permutation_diagrams_compose_like_functions():
    rng = random.Random(7)
    for n in (2, 3, 5):
        for _ in range(25):
            sigma = list(range(n))
            tau = list(range(n))
            rng.shuffle(sigma)
            rng.shuffle(tau)
            prod, loops = compose(
                permutation_diagram(n, sigma), permutation_diagram(n, tau)
            )
            assert loops == 0
            # upper acts first: top k goes to sigma(k), then tau(sigma(k))
            assert prod == permutation_diagram(n, [tau[sigma[k]] for k in range(n)])


def test_compose_matches_union_find_oracle():
    rng = random.Random(2026)
    for n in (1, 2, 3, 4, 6):
        for _ in range(80):
            x = random_matching(n, rng)
            y = random_matching(n, rng)
            assert compose(x, y) == compose_oracle(x, y)


def test_compose_results_pass_validation_for_every_pair():
    """Products built without re-validation equal the validated matching."""
    for n, count in ((1, 1), (2, 3), (3, 15), (4, 105)):
        diagrams = all_matchings(n)
        assert len(set(diagrams)) == count
        for x in diagrams:
            for y in diagrams:
                glued, loops = compose(x, y)
                checked = Matching(n, glued.pairs)
                assert glued == checked and hash(glued) == hash(checked)
                assert (glued, loops) == compose_oracle(x, y)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_apply_generator_matches_compose_for_every_matching(n):
    """`generator_images` on all matchings at n in one batch per generator
    (945 x 9 products at n = 5), each product against `compose`; every image
    is a plain tuple equal to the `Matching` that `compose` gives."""
    generators = [(IDENTITY, 0, identity_diagram(n))]
    for i in range(1, n):
        generators += [(CUP, i, e_diagram(i, n)), (CROSS, i, v_diagram(i, n))]
    table = generator_table(n)
    assert len(table) == 2 * n - 1
    for kind, i, g in generators:
        assert table[g] == (kind, i)
    ms = all_matchings(n)
    for kind, i, g in generators:
        images, closed = generator_images(ms, n, kind, i)
        assert len(images) == len(closed) == len(ms)
        for m, got, loops in zip(ms, images, closed):
            want, want_loops = compose(m, g)
            assert loops == want_loops
            assert type(got) is tuple and got == want


def test_apply_generator_closes_a_loop_only_on_a_cup():
    m = e_diagram(2, 4)
    other = e_diagram(1, 4)
    assert generator_images([m], 4, CUP, 2) == ([m], [1])
    assert generator_images([m], 4, CROSS, 2) == ([m], [0])
    assert generator_images([m, other, m], 4, CUP, 1)[1] == [0, 1, 0]
    assert generator_images({m: None, other: None}, 4, IDENTITY, 0) == ([m, other], [0, 0])
    for kind, i in ((IDENTITY, 0), (CUP, 1), (CROSS, 3)):
        assert generator_images([], 4, kind, i) == ([], [])
    # the kind and the site are checked for the batch, even an empty one
    for ms in ([m], []):
        with pytest.raises(ValueError, match="unknown generator kind"):
            generator_images(ms, 4, "x", 1)
        for kind, i in ((CUP, 0), (CROSS, 4), (CUP, -1)):
            with pytest.raises(ValueError, match="out of range"):
                generator_images(ms, 4, kind, i)


def test_stacking_is_associative_including_loops():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 5)
        x, y, z = (random_matching(n, rng) for _ in range(3))
        xy, a = compose(x, y)
        left, b = compose(xy, z)
        yz, c = compose(y, z)
        right, d = compose(x, yz)
        assert left == right
        assert a + b == c + d


def test_closure_loops():
    assert closure_loops(identity_diagram(3)) == 3
    assert closure_loops(e_diagram(1, 2)) == 1
    assert closure_loops(e_diagram(1, 3)) == 2
    assert closure_loops(v_diagram(1, 2)) == 1
    # a 3-cycle closes into a single loop
    assert closure_loops(permutation_diagram(3, [1, 2, 0])) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closure_loops_matches_union_find_oracle(n):
    for m in all_matchings(n):
        assert closure_loops(m) == closure_loops_oracle(m)


def test_endpoint_labels_round_trip():
    n = 4
    for k in range(2 * n):
        assert parse_endpoint(endpoint_label(k, n), n) == k
    assert endpoint_label(0, 4) == "T1"
    assert endpoint_label(4, 4) == "B1"
    with pytest.raises(ValueError):
        parse_endpoint("T5", 4)
    with pytest.raises(ValueError):
        parse_endpoint("X1", 4)


def test_matching_from_labels():
    m = matching_from_labels(2, [("T1", "T2"), ("B1", "B2")])
    assert m == e_diagram(1, 2)


def test_matching_validation():
    with pytest.raises(ValueError):
        Matching(2, [(0, 1), (1, 2)])  # endpoint reused
    with pytest.raises(ValueError):
        Matching(2, [(0, 1)])  # wrong pair count
    with pytest.raises(ValueError):
        Matching(1, [(0, 7)])  # out of range
    with pytest.raises(ValueError):
        Matching(1, [(0, 0)])  # endpoint paired with itself
    with pytest.raises(ValueError):
        Matching(2, [(0, 0), (1, 2)])  # a self-pair beside a valid one
    with pytest.raises(ValueError):
        identity_diagram(2).partner(-1)  # not an endpoint, not a tuple index
    with pytest.raises(ValueError):
        permutation_diagram(3, [0, 0, 2])


def test_strand_mismatch():
    with pytest.raises(StrandMismatchError):
        compose(identity_diagram(2), identity_diagram(3))


def test_random_matching_is_valid_and_deterministic():
    rng = random.Random(5)
    seen = set()
    for _ in range(50):
        m = random_matching(4, rng)
        flat = sorted(e for p in m.pairs for e in p)
        assert flat == list(range(8))
        seen.add(m)
    assert len(seen) > 10  # actually samples the space
    assert random_matching(4, random.Random(5)) == random_matching(
        4, random.Random(5)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pairs_round_trip_and_order_matches_pair_order(n):
    """Every matching at n (945 at n = 5): its pairs rebuild it, are in
    canonical form, and tuple order is the order of the sorted pair lists."""
    ms = all_matchings(n)
    random.Random(n).shuffle(ms)
    for m in ms:
        pairs = m.pairs
        assert Matching(n, pairs) == m and m.n == n and len(m) == 2 * n
        assert all(p < q for p, q in pairs) and list(pairs) == sorted(pairs)
        assert sorted(e for pair in pairs for e in pair) == list(range(2 * n))
        assert all(m.partner(p) == q and m.partner(q) == p for p, q in pairs)
    assert sorted(ms) == sorted(ms, key=lambda m: m.pairs)


def test_ordering_and_repr():
    e, v = e_diagram(1, 2), v_diagram(1, 2)
    assert sorted([v, e]) == sorted([e, v])
    assert "T1" in repr(e)


def test_matching_is_immutable_and_hashes_by_value():
    m = identity_diagram(3)
    for attr in ("n", "pairs", "_hash"):
        with pytest.raises(AttributeError):
            setattr(m, attr, None)
    same = Matching(3, [(3, 0), (4, 1), (5, 2)])
    assert same == m and hash(same) == hash(m) and len({m, same}) == 1

"""Tensor-space model: swap and partial transpose on (C^d)^n."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from vtl.diagrams import (
    Matching,
    compose,
    e_diagram,
    identity_diagram,
    permutation_diagram,
    random_matching,
    v_diagram,
)
from vtl.elements import AlgebraElement, element_multiply
from vtl.errors import StrandMismatchError
from vtl.linalg import DenseMatrix
from vtl.reps import MatrixRep, evaluate_word, rho_image
from vtl.rho import RhoParams
from vtl.scalars import QuadScalar
from vtl.tensorrep import (
    MAX_TENSOR_DIM,
    factor_matching,
    matching_matrix,
    perm_matrix,
    pstar_complement,
    ptranspose_matrix,
    rep_element,
    site_embed,
)


def kron(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Naive Kronecker product, used only as an oracle for site_embed."""
    out = [
        [QuadScalar(0)] * (a.cols * b.cols) for _ in range(a.rows * b.rows)
    ]
    for ra in range(a.rows):
        for ca in range(a.cols):
            for rb in range(b.rows):
                for cb in range(b.cols):
                    out[ra * b.rows + rb][ca * b.cols + cb] = a[ra, ca] * b[rb, cb]
    return DenseMatrix(out)


def matching_matrix_by_pairs(m, rep: MatrixRep) -> DenseMatrix:
    """All-(row, col)-pairs definition of a diagram's matrix, a test oracle.

    Tests each of the d^(2n) index pairs: the entry is 1 precisely when every
    pair of the matching links equal labels.
    """
    n, d = rep.n, rep.d
    size = d**n

    def digits(index):
        out = [0] * n
        for k in range(n - 1, -1, -1):
            index, out[k] = divmod(index, d)
        return out

    positions = {}
    for row in range(size):
        for col in range(size):
            labels = digits(row) + digits(col)
            if all(labels[p] == labels[q] for p, q in m.pairs):
                positions[(row, col)] = 1
    return DenseMatrix.from_entries(size, size, positions)


def every_matching(n):
    """All perfect matchings of the 2n endpoints, (2n-1)!! of them."""

    def pairings(points):
        if not points:
            yield []
            return
        first, rest = points[0], points[1:]
        for k, partner in enumerate(rest):
            for tail in pairings(rest[:k] + rest[k + 1:]):
                yield [(first, partner)] + tail

    for pairs in pairings(list(range(2 * n))):
        yield Matching(n, pairs)


def test_swap_on_two_qudits():
    p = perm_matrix(2)
    # basis order |00>, |01>, |10>, |11>
    assert p[0, 0] == QuadScalar(1)
    assert p[1, 2] == QuadScalar(1)
    assert p[2, 1] == QuadScalar(1)
    assert p[3, 3] == QuadScalar(1)
    assert sum(1 for row in p.entries for e in row if not e.is_zero) == 4


def test_swap_squares_to_identity():
    for d in (2, 3, 4):
        p = perm_matrix(d)
        assert p * p == DenseMatrix.identity(d * d)


def test_cupcap_matrix_entries():
    t = ptranspose_matrix(2)
    # sum_{x,y} |xx><yy|: rows/cols 0 and 3 only
    expected = DenseMatrix.from_entries(
        4, 4, {(r, c): 1 for r in (0, 3) for c in (0, 3)}
    )
    assert t == expected


def test_cupcap_square_scales_by_dimension():
    for d in (2, 3, 4):
        t = ptranspose_matrix(d)
        assert t * t == t.scale(d)


def test_swap_absorbs_into_cupcap():
    for d in (2, 3, 4):
        p, t = perm_matrix(d), ptranspose_matrix(d)
        assert p * t == t
        assert t * p == t


def test_complement_is_involution_exactly_at_d_two():
    s2 = pstar_complement(2)
    assert s2 * s2 == DenseMatrix.identity(4)
    s3 = pstar_complement(3)
    assert s3 * s3 != DenseMatrix.identity(9)


def test_site_embed_matches_kronecker_oracle():
    for n, d in ((2, 2), (3, 2), (3, 3), (4, 2)):
        rep = MatrixRep(n, d)
        eye = DenseMatrix.identity(d)
        for i in range(1, n):
            for op in (perm_matrix(d), ptranspose_matrix(d)):
                expected = op
                for _ in range(i - 1):
                    expected = kron(eye, expected)
                for _ in range(n - i - 1):
                    expected = kron(expected, eye)
                assert site_embed(op, i, rep) == expected


def test_site_embed_validates():
    rep = MatrixRep(3, 2)
    with pytest.raises(ValueError):
        site_embed(perm_matrix(2), 3, rep)
    with pytest.raises(StrandMismatchError):
        site_embed(perm_matrix(3), 1, rep)


def test_matching_matrix_reproduces_generators():
    for n, d in ((2, 2), (3, 2), (3, 3)):
        rep = MatrixRep(n, d)
        assert matching_matrix(identity_diagram(n), rep) == rep.one()
        for i in range(1, n):
            assert matching_matrix(e_diagram(i, n), rep) == site_embed(
                ptranspose_matrix(d), i, rep
            )
            assert matching_matrix(v_diagram(i, n), rep) == site_embed(
                perm_matrix(d), i, rep
            )


def test_matching_matrix_matches_all_pairs_oracle():
    for n in (1, 2, 3):
        for d in (2, 3):
            rep = MatrixRep(n, d)
            count = 0
            for m in every_matching(n):
                got = matching_matrix(m, rep)
                assert got == matching_matrix_by_pairs(m, rep)
                assert got.nnz == d**n
                count += 1
            assert count == {1: 1, 2: 3, 3: 15}[n]


class _NoPower(int):
    """A local dimension that fails the test if d**n is ever formed."""

    def __pow__(self, other):
        raise AssertionError("d**n was formed")


def test_matrix_rep_caps_the_tensor_space():
    assert MatrixRep(5, 3).one().rows == 243
    assert MatrixRep(12, 2).one().rows == MAX_TENSOR_DIM
    with pytest.raises(ValueError, match="exceeds the cap"):
        MatrixRep(8, 4)
    with pytest.raises(ValueError, match="exceeds the cap"):
        MatrixRep(13, 2)
    with pytest.raises(ValueError, match="exceeds the cap"):
        MatrixRep(10**9, _NoPower(2))
    with pytest.raises(ValueError, match="at least one strand"):
        MatrixRep(0, 2)
    with pytest.raises(ValueError, match="at least 2"):
        MatrixRep(3, 1)


def test_matching_matrix_permutations():
    rep = MatrixRep(3, 2)
    cycle = permutation_diagram(3, [1, 2, 0])
    m = matching_matrix(cycle, rep)
    v1 = matching_matrix(v_diagram(1, 3), rep)
    v2 = matching_matrix(v_diagram(2, 3), rep)
    assert m == v2 * v1  # upper factor acts first


def test_stacking_is_a_homomorphism_with_loop_factors():
    rng = random.Random(41)
    for n, d in ((2, 2), (3, 2), (3, 3), (4, 2)):
        rep = MatrixRep(n, d)
        lam = QuadScalar(d)
        for _ in range(15):
            x = random_matching(n, rng)
            y = random_matching(n, rng)
            glued, loops = compose(x, y)
            assert matching_matrix(x, rep) * matching_matrix(y, rep) == (
                matching_matrix(glued, rep).scale(lam**loops)
            )


small_fractions = st.fractions(-3, 3, max_denominator=4)


@st.composite
def element_pairs_and_scalar(draw):
    """Two elements on one n <= 4, a local dimension and a scalar, with
    coefficients in Q or in Q(sqrt 5)."""
    n = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = [random_matching(n, rng) for _ in range(4)]
    root_part = st.integers(-2, 2) if draw(st.booleans()) else st.just(0)
    coeff = st.builds(lambda x, y: QuadScalar(x, y, 5), small_fractions, root_part)

    def element():
        terms = {m: draw(coeff) for m in draw(st.lists(st.sampled_from(pool), max_size=4))}
        return AlgebraElement(n, terms)

    return element(), element(), draw(st.sampled_from([2, 3])), draw(coeff)


@given(element_pairs_and_scalar())
@settings(max_examples=60, deadline=None)
def test_element_operators_match_the_tensor_model(case):
    x, y, d, s = case
    rep = MatrixRep(x.n, d)
    mx, my = rep_element(x, rep), rep_element(y, rep)
    assert rep_element(x + y, rep) == mx + my
    assert rep_element(x - y, rep) == mx - my
    assert rep_element(-x, rep) == -mx
    assert rep_element(x.scale(s), rep) == mx.scale(s)
    assert (x - x).is_zero


def test_rep_element_is_linear():
    rep = MatrixRep(3, 2)
    rng = random.Random(43)
    x = AlgebraElement.from_matching(random_matching(3, rng))
    y = AlgebraElement.from_matching(random_matching(3, rng))
    combo = x.scale(3) + y.scale(-2)
    assert rep_element(combo, rep) == (
        rep_element(x, rep).scale(3) - rep_element(y, rep).scale(2)
    )
    prod = element_multiply(x, y, 2)
    assert rep_element(prod, rep) == rep_element(x, rep) * rep_element(
        y, rep
    )


def test_factor_matching_reconstructs_diagram_exactly():
    rng = random.Random(47)
    for n in (1, 2, 3, 4, 5):
        for _ in range(40):
            m = random_matching(n, rng)
            word = factor_matching(m)
            acc, total = identity_diagram(n), 0
            for sym in word:
                gen = (
                    e_diagram(sym.index, n)
                    if sym.kind == "e"
                    else v_diagram(sym.index, n)
                )
                acc, loops = compose(acc, gen)
                total += loops
            assert acc == m
            assert total == 0


def test_factor_matching_agrees_with_matrix_model():
    rng = random.Random(53)
    rep = MatrixRep(3, 2)
    for _ in range(20):
        m = random_matching(3, rng)
        word = factor_matching(m)
        assert evaluate_word(word, rep) == matching_matrix(m, rep)


def test_braid_image_at_two_is_the_complement():
    params = RhoParams.make(1, -1, 0, 2)
    rep = MatrixRep(2, 2)
    assert rho_image(rep, 1, params) == pstar_complement(2)


def test_matching_matrix_strand_check():
    with pytest.raises(StrandMismatchError):
        matching_matrix(identity_diagram(2), MatrixRep(3, 2))

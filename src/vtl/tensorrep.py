"""Exact tensor-space model of the diagram algebra.

On (C^d)^(x n) with basis |i1..in> ordered lexicographically (leftmost index
most significant), the virtual crossing acts as the swap P|xy> = |yx> and the
cup-cap as its partial transpose P*|xy> = delta_xy sum_i |ii>, which obeys
P*^2 = d P*.  Stacking diagrams matches matrix products with lambda = d: each
closed middle loop becomes a free index summation worth a factor d.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import Matching, identity_diagram
from .elements import AlgebraElement
from .errors import StrandMismatchError
from .linalg import DenseMatrix
from .scalars import ONE, QuadScalar
from .words import E, V, GeneratorSymbol


# Largest tensor space d^n the model builds.  Matrices keep only their
# nonzeros, but a word image can still hold d^n * (number of matchings)
# entries, and `invert` and `rank` eliminate on dense d^n x d^n copies.  The
# test suite and the benchmark stay at or below 3^5 = 243.
MAX_TENSOR_DIM = 4096


@dataclass(frozen=True)
class RepConfig:
    n: int
    d: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one strand")
        if self.d < 2:
            raise ValueError("local dimension must be at least 2")
        # d >= 2, so d^n >= 2^n: a large n is refused before d**n is formed.
        if self.n >= MAX_TENSOR_DIM.bit_length() or self.d**self.n > MAX_TENSOR_DIM:
            raise ValueError(
                f"tensor space d^n = {self.d}^{self.n} exceeds the cap of"
                f" {MAX_TENSOR_DIM} basis states"
            )

    @property
    def dim(self) -> int:
        return self.d**self.n

    @property
    def lam(self) -> QuadScalar:
        return QuadScalar(self.d)


def perm_matrix(d: int) -> DenseMatrix:
    """Swap on C^d x C^d: P|xy> = |yx>."""
    return DenseMatrix.from_entries(
        d * d, d * d, {(y * d + x, x * d + y): 1 for x in range(d) for y in range(d)}
    )


def ptranspose_matrix(d: int) -> DenseMatrix:
    """Partial transpose of the swap: sum_{x,y} |xx><yy|, a rank-one cup-cap."""
    return DenseMatrix.from_entries(
        d * d, d * d, {(x * d + x, y * d + y): 1 for x in range(d) for y in range(d)}
    )


def pstar_complement(d: int) -> DenseMatrix:
    """Identity minus the cup-cap; an involution exactly when d = 2."""
    return DenseMatrix.identity(d * d) - ptranspose_matrix(d)


def site_embed(op: DenseMatrix, i: int, config: RepConfig) -> DenseMatrix:
    """Place a two-site operator on tensor positions (i, i+1), 1-based.

    Pure index arithmetic for Id^(i-1) (x) op (x) Id^(n-i-1); no Kronecker
    products are materialised.
    """
    n, d = config.n, config.d
    if not 1 <= i <= n - 1:
        raise ValueError(f"site index {i} out of range for n={n}")
    mid = d * d
    if (op.rows, op.cols) != (mid, mid):
        raise StrandMismatchError(
            f"expected a {mid}x{mid} two-site operator, got {op.rows}x{op.cols}"
        )
    right = d ** (n - i - 1)
    left = d ** (i - 1)
    positions = {}
    for mr, mc, entry in op.nonzeros():
        for l in range(left):
            base_r = (l * mid + mr) * right
            base_c = (l * mid + mc) * right
            for r in range(right):
                positions[(base_r + r, base_c + r)] = entry
    return DenseMatrix.from_entries(config.dim, config.dim, positions)


def matching_matrix(m: Matching, config: RepConfig) -> DenseMatrix:
    """Matrix of one diagram: each pair forces its two endpoint indices equal.

    Row index encodes the top labels (j1..jn), column the bottom labels
    (i1..in), leftmost most significant; the entry is 1 precisely when every
    pair of the matching links equal labels.  Those entries are enumerated
    directly: a labeling gives each of the n pairs one label in range(d), and
    each of the d^n labelings fixes one (row, col).  On generators this
    reproduces perm/ptranspose at the site.
    """
    if m.n != config.n:
        raise StrandMismatchError(f"matching on n={m.n}, config n={config.n}")
    n, d = config.n, config.d
    cells = [(0, 0)]
    for pair in m.pairs:
        # The place value one unit of this pair's label adds to the row and
        # to the column index.
        row_step = col_step = 0
        for endpoint in pair:
            if endpoint < n:
                row_step += d ** (n - 1 - endpoint)
            else:
                col_step += d ** (2 * n - 1 - endpoint)
        cells = [
            (row + label * row_step, col + label * col_step)
            for row, col in cells
            for label in range(d)
        ]
    return DenseMatrix.from_entries(
        config.dim, config.dim, {cell: ONE for cell in cells}
    )


def rep_element(x: AlgebraElement, config: RepConfig) -> DenseMatrix:
    """Linear extension of matching_matrix to algebra elements."""
    if x.n != config.n:
        raise StrandMismatchError(f"element on n={x.n}, config n={config.n}")
    total = DenseMatrix.zero(config.dim, config.dim)
    for m, coeff in x.terms():
        total = total + matching_matrix(m, config).scale(coeff)
    return total


def _transpositions_for(image: list[int]) -> list[int]:
    """Adjacent swaps whose diagram product is the permutation diagram.

    Returned values are 0-based positions j meaning the v-generator at site
    j+1; applying the swaps in list order to the identity wiring yields the
    wiring `image` (top k connected to bottom image[k]).
    """
    work = list(image)
    swaps: list[int] = []
    for target in range(len(work)):
        pos = work.index(target)
        while pos > target:
            work[pos - 1], work[pos] = work[pos], work[pos - 1]
            swaps.append(pos - 1)
            pos -= 1
    return swaps


def factor_matching(m: Matching) -> list[GeneratorSymbol]:
    """Write a diagram as a product of e/v generators, with zero extra loops.

    The word has the sandwich shape U * (e_1 e_3 ... e_{2k-1}) * L: the upper
    permutation U routes the k top arcs onto the leading cup-cap block and
    the lower permutation L routes the block onto the bottom arcs and wires
    the through strands.  Evaluating the word in the diagram algebra returns
    exactly this matching with loop count 0.
    """
    n = m.n
    top_arcs = sorted((p, q) for p, q in m.pairs if q < n)
    bottom_arcs = sorted((p - n, q - n) for p, q in m.pairs if p >= n)
    through = sorted((p, q - n) for p, q in m.pairs if p < n <= q)
    k = len(top_arcs)

    upper = [0] * n  # top position -> middle position
    lower_at = [0] * n  # middle position -> bottom position
    for s, (a, b) in enumerate(top_arcs):
        upper[a], upper[b] = 2 * s, 2 * s + 1
    for s, (c, e) in enumerate(bottom_arcs):
        lower_at[2 * s], lower_at[2 * s + 1] = c, e
    for r, (t, b) in enumerate(through):
        upper[t] = 2 * k + r
        lower_at[2 * k + r] = b

    word = [GeneratorSymbol(V, j + 1) for j in _transpositions_for(upper)]
    word += [GeneratorSymbol(E, 2 * s + 1) for s in range(k)]
    word += [GeneratorSymbol(V, j + 1) for j in _transpositions_for(lower_at)]
    return word

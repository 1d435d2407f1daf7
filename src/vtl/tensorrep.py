"""Exact tensor-space model of the diagram algebra.

On (C^d)^(x n) with basis |i1..in> ordered lexicographically (leftmost index
most significant), the virtual crossing acts as the swap P|xy> = |yx> and the
cup-cap as its partial transpose P*|xy> = delta_xy sum_i |ii>, which obeys
P*^2 = d P*.  Stacking diagrams matches matrix products with lambda = d: each
closed middle loop becomes a free index summation worth a factor d.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .diagrams import Matching
from .elements import AlgebraElement
from .errors import StrandMismatchError
from .linalg import DenseMatrix
from .scalars import ONE

if TYPE_CHECKING:
    from .reps import MatrixRep


# Largest tensor space d^n that `MatrixRep` builds.  Matrices keep only their
# nonzeros, but a word image can still hold d^n * (number of matchings)
# entries, and elimination in `invert` and `rank` can fill its rows in up to
# d^n entries each (2 d^n for the [A | I] of `invert`).  The test suite and
# the benchmark stay at or below 3^5 = 243.
MAX_TENSOR_DIM = 4096


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


def site_embed(op: DenseMatrix, i: int, rep: MatrixRep) -> DenseMatrix:
    """Place a two-site operator on positions (i, i+1), 1-based, of rep's space.

    Pure index arithmetic for Id^(i-1) (x) op (x) Id^(n-i-1); no Kronecker
    products are materialised.
    """
    n, d = rep.n, rep.d
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
    return DenseMatrix.from_entries(d**n, d**n, positions)


def matching_matrix(m: Matching, rep: MatrixRep) -> DenseMatrix:
    """Matrix of one diagram: each pair forces its two endpoint indices equal.

    Row index encodes the top labels (j1..jn), column the bottom labels
    (i1..in), leftmost most significant; the entry is 1 precisely when every
    pair of the matching links equal labels.  Those entries are enumerated
    directly: a labeling gives each of the n pairs one label in range(d), and
    each of the d^n labelings fixes one (row, col).  On generators this
    reproduces perm/ptranspose at the site.
    """
    if m.n != rep.n:
        raise StrandMismatchError(f"matching on n={m.n}, rep on n={rep.n}")
    n, d = rep.n, rep.d
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
    return DenseMatrix.from_entries(d**n, d**n, {cell: ONE for cell in cells})


def rep_element(x: AlgebraElement, rep: MatrixRep) -> DenseMatrix:
    """Linear extension of matching_matrix to algebra elements."""
    if x.n != rep.n:
        raise StrandMismatchError(f"element on n={x.n}, rep on n={rep.n}")
    total = rep.zero()
    for m, coeff in x.terms():
        total = total + matching_matrix(m, rep).scale(coeff)
    return total

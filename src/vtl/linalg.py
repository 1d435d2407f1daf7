"""Exact matrices over a quadratic number field, stored by their nonzeros.

A matrix keeps only its nonzero entries, as {row: {col: scalar}} with no
stored zeros and no empty rows, so equality is a plain comparison of the maps
and arithmetic touches nonzeros only.  The class keeps its historical name
`DenseMatrix`: the surface is that of a dense matrix (`[r, c]` reads any
entry, `entries` gives the dense rows), only the storage is sparse.

Everything here is exact; there is no floating point anywhere.  Matrices are
immutable: methods return fresh instances.  `invert`, `rank` and
`solve_columns` run Gaussian elimination on dense working copies.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import StrandMismatchError
from .scalars import QuadScalar, as_scalar

Row = list[QuadScalar]

_ZERO = QuadScalar(0)
_ONE = QuadScalar(1)


class DenseMatrix:
    __slots__ = ("rows", "cols", "_data")

    def __init__(self, entries: list[Row]):
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        data = {}
        for r, row in enumerate(entries):
            if len(row) != cols:
                raise ValueError("ragged rows")
            nonzero = {}
            for c, value in enumerate(row):
                value = as_scalar(value)
                if not value.is_zero:
                    nonzero[c] = value
            if nonzero:
                data[r] = nonzero
        self._init(rows, cols, data)

    def _init(self, rows: int, cols: int, data: dict[int, dict[int, QuadScalar]]):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_data", data)

    @classmethod
    def _trusted(cls, rows: int, cols: int, data) -> DenseMatrix:
        """Wrap a map that already has no zeros and no empty rows."""
        out = cls.__new__(cls)
        out._init(rows, cols, data)
        return out

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("DenseMatrix is immutable")

    @classmethod
    def zero(cls, rows: int, cols: int) -> DenseMatrix:
        return cls._trusted(rows, cols, {})

    @classmethod
    def identity(cls, size: int) -> DenseMatrix:
        return cls._trusted(size, size, {k: {k: _ONE} for k in range(size)})

    @classmethod
    def from_entries(cls, rows: int, cols: int, positions) -> DenseMatrix:
        """Build from {(row, col): scalar-like} positions; zero values are dropped."""
        data: dict[int, dict[int, QuadScalar]] = {}
        for (r, c), value in positions.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError(f"position {(r, c)} outside {rows}x{cols}")
            value = as_scalar(value)
            if not value.is_zero:
                data.setdefault(r, {})[c] = value
        return cls._trusted(rows, cols, data)

    def __getitem__(self, key: tuple[int, int]) -> QuadScalar:
        r, c = key
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"position {key} outside {self.rows}x{self.cols}")
        row = self._data.get(r)
        return _ZERO if row is None else row.get(c, _ZERO)

    @property
    def entries(self) -> list[Row]:
        """Dense rows, built on demand; a fresh copy on every access."""
        out = [[_ZERO] * self.cols for _ in range(self.rows)]
        for r, row in self._data.items():
            dense = out[r]
            for c, value in row.items():
                dense[c] = value
        return out

    def nonzeros(self) -> Iterator[tuple[int, int, QuadScalar]]:
        """(row, col, value) of every nonzero entry, in row-major order."""
        for r in sorted(self._data):
            row = self._data[r]
            for c in sorted(row):
                yield r, c, row[c]

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self._data.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self):  # pragma: no cover - unused, keep eq sane
        return hash((self.rows, self.cols, tuple(self.nonzeros())))

    @property
    def is_zero(self) -> bool:
        return not self._data

    def __add__(self, other: DenseMatrix) -> DenseMatrix:
        self._shape_check(other, same=True)
        return self._combine(other, negate=False)

    def __sub__(self, other: DenseMatrix) -> DenseMatrix:
        self._shape_check(other, same=True)
        return self._combine(other, negate=True)

    def _combine(self, other: DenseMatrix, negate: bool) -> DenseMatrix:
        """self + other, or self - other when `negate`; entries that cancel are dropped."""
        data = {r: dict(row) for r, row in self._data.items()}
        for r, row in other._data.items():
            acc = data.get(r)
            if acc is None:
                data[r] = {c: -v for c, v in row.items()} if negate else dict(row)
                continue
            for c, v in row.items():
                old = acc.get(c)
                if old is None:
                    acc[c] = -v if negate else v
                    continue
                new = old - v if negate else old + v
                if new.is_zero:
                    del acc[c]
                else:
                    acc[c] = new
            if not acc:
                del data[r]
        return DenseMatrix._trusted(self.rows, self.cols, data)

    def __neg__(self) -> DenseMatrix:
        return self.scale(-1)

    def scale(self, s) -> DenseMatrix:
        s = as_scalar(s)
        if s.is_zero:
            return DenseMatrix.zero(self.rows, self.cols)
        if s == _ONE:
            return self
        # A product of nonzeros in a field is nonzero: nothing to drop.
        data = {r: {c: s * v for c, v in row.items()} for r, row in self._data.items()}
        return DenseMatrix._trusted(self.rows, self.cols, data)

    def __mul__(self, other: DenseMatrix) -> DenseMatrix:
        self._shape_check(other, same=False)
        right = other._data
        data = {}
        for r, row in self._data.items():
            acc: dict[int, QuadScalar] = {}
            for k, a in row.items():
                brow = right.get(k)
                if brow is None:
                    continue
                for c, b in brow.items():
                    old = acc.get(c)
                    acc[c] = a * b if old is None else old + a * b
            acc = {c: v for c, v in acc.items() if not v.is_zero}
            if acc:
                data[r] = acc
        return DenseMatrix._trusted(self.rows, other.cols, data)

    def _shape_check(self, other: DenseMatrix, same: bool) -> None:
        if same and (self.rows, self.cols) != (other.rows, other.cols):
            raise StrandMismatchError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        if not same and self.cols != other.rows:
            raise StrandMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )

    def transpose(self) -> DenseMatrix:
        data: dict[int, dict[int, QuadScalar]] = {}
        for r, row in self._data.items():
            for c, value in row.items():
                data.setdefault(c, {})[r] = value
        return DenseMatrix._trusted(self.cols, self.rows, data)

    def trace(self) -> QuadScalar:
        total = _ZERO
        for k, row in self._data.items():
            if k in row:
                total = total + row[k]
        return total

    def to_obj(self) -> dict:
        """Dense flat layout: [x_num, x_den, y_num, y_den] per entry, row-major."""
        D = None
        for _, _, e in self.nonzeros():
            if not e.is_rational:
                if D is not None and D != e.D:
                    raise ValueError("mixed discriminants in one matrix")
                D = e.D
        if D is None:
            D = _ZERO.D
        flat = [
            [e.x.numerator, e.x.denominator, e.y.numerator, e.y.denominator]
            for row in self.entries
            for e in row
        ]
        return {
            "rows": self.rows,
            "cols": self.cols,
            "D": [D.numerator, D.denominator],
            "entries": flat,
        }


def invert(m: DenseMatrix) -> DenseMatrix | None:
    """Exact inverse by Gauss-Jordan elimination; None when singular.

    Singularity is a value outcome here, not an error: callers decide what a
    missing inverse means for them.
    """
    if m.rows != m.cols:
        return None
    size = m.rows
    work = m.entries
    aug = DenseMatrix.identity(size).entries
    for col in range(size):
        pivot = next((r for r in range(col, size) if not work[r][col].is_zero), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = work[col][col].inv()
        work[col] = [e * scale for e in work[col]]
        aug[col] = [e * scale for e in aug[col]]
        for r in range(size):
            if r == col or work[r][col].is_zero:
                continue
            f = work[r][col]
            work[r] = [a - f * b for a, b in zip(work[r], work[col])]
            aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return DenseMatrix(aug)


def rank(m: DenseMatrix) -> int:
    work = m.entries
    r = 0
    for col in range(m.cols):
        pivot = next((k for k in range(r, m.rows) if not work[k][col].is_zero), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv_p = work[r][col].inv()
        work[r] = [e * inv_p for e in work[r]]
        for k in range(m.rows):
            if k != r and not work[k][col].is_zero:
                f = work[k][col]
                work[k] = [a - f * b for a, b in zip(work[k], work[r])]
        r += 1
        if r == m.rows:
            break
    return r


def solve_columns(
    columns: list[dict[int, QuadScalar]],
    target: dict[int, QuadScalar],
    dim: int,
) -> list[QuadScalar] | None:
    """Solve sum_j c_j * columns[j] = target; None when inconsistent.

    Columns are sparse {row: value} maps over `dim` rows.  When the system is
    underdetermined any one exact solution is returned.
    """
    width = len(columns)
    rows = [
        [col.get(r, _ZERO) for col in columns] + [target.get(r, _ZERO)]
        for r in range(dim)
    ]
    pivots: list[tuple[int, int]] = []  # (row, col)
    r = 0
    for c in range(width):
        pivot = next((k for k in range(r, dim) if not rows[k][c].is_zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv_p = rows[r][c].inv()
        rows[r] = [e * inv_p for e in rows[r]]
        for k in range(dim):
            if k != r and not rows[k][c].is_zero:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == dim:
            break
    for k in range(r, dim):
        if not rows[k][width].is_zero:
            return None
    solution = [_ZERO] * width
    for row_idx, col_idx in pivots:
        solution[col_idx] = rows[row_idx][width]
    return solution

"""Exact dense and sparse linear algebra over Q(zeta_ell).

Dense matrices are plain row-major lists of CyclotomicScalar.  One eliminator,
`RowEchelon`, keeps the reduced row echelon form of sparse rows (column ->
scalar dicts) over the exact field; rank, kernels, images, solutions,
inverses and determinants of dense matrices, the sparse systems coming from
intertwiner equations, and the per-weight bases of submodules are all read
from it.
"""

from __future__ import annotations

from tiltlab.cyclotomic import (
    CertificationError,
    CycloField,
    CyclotomicScalar,
    MismatchedFieldError,
)


class ExactMatrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: CycloField, rows: int, cols: int, data=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        if data is None:
            z = field.zero
            self.data = [[z] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("data shape mismatch")
            self.data = [list(r) for r in data]

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, field, n):
        m = cls(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, rows, cols)

    @classmethod
    def from_rational_rows(cls, field, rows_of_rationals):
        rows = len(rows_of_rationals)
        cols = len(rows_of_rationals[0]) if rows else 0
        m = cls(field, rows, cols)
        for i, row in enumerate(rows_of_rationals):
            m.data[i] = [field.scalar(x) for x in row]
        return m

    def copy(self):
        return ExactMatrix(self.field, self.rows, self.cols, self.data)

    # -- basic ops -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.field is other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __add__(self, other):
        self._compat(other)
        out = ExactMatrix(self.field, self.rows, self.cols)
        for i in range(self.rows):
            a, b, o = self.data[i], other.data[i], out.data[i]
            for j in range(self.cols):
                o[j] = a[j] + b[j]
        return out

    def __sub__(self, other):
        self._compat(other)
        out = ExactMatrix(self.field, self.rows, self.cols)
        for i in range(self.rows):
            a, b, o = self.data[i], other.data[i], out.data[i]
            for j in range(self.cols):
                o[j] = a[j] - b[j]
        return out

    def __neg__(self):
        out = ExactMatrix(self.field, self.rows, self.cols)
        for i in range(self.rows):
            out.data[i] = [-x for x in self.data[i]]
        return out

    def _compat(self, other):
        if self.field is not other.field:
            raise MismatchedFieldError("matrices over different fields")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def scale(self, scalar: CyclotomicScalar):
        out = ExactMatrix(self.field, self.rows, self.cols)
        for i in range(self.rows):
            out.data[i] = [scalar * x for x in self.data[i]]
        return out

    def __matmul__(self, other):
        if self.field is not other.field:
            raise MismatchedFieldError("matrices over different fields")
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        out = ExactMatrix(self.field, self.rows, other.cols)
        bdata = other.data
        for i in range(self.rows):
            arow = self.data[i]
            orow = out.data[i]
            for k in range(self.cols):
                a = arow[k]
                if a.is_zero():
                    continue
                brow = bdata[k]
                for j in range(other.cols):
                    b = brow[j]
                    if not b.is_zero():
                        orow[j] = orow[j] + a * b
        return out

    @property
    def shape(self):
        return (self.rows, self.cols)

    def transpose(self):
        out = ExactMatrix(self.field, self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                out.data[j][i] = self.data[i][j]
        return out

    def is_zero(self):
        return all(x.is_zero() for row in self.data for x in row)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.field is not other.field:
            raise MismatchedFieldError("matrices over different fields")
        out = ExactMatrix(self.field, self.rows * other.rows, self.cols * other.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.data[i][j]
                if a.is_zero():
                    continue
                for k in range(other.rows):
                    orow = out.data[i * other.rows + k]
                    brow = other.data[k]
                    for l in range(other.cols):
                        b = brow[l]
                        if not b.is_zero():
                            orow[j * other.cols + l] = a * b
        return out

    def power(self, n: int) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        acc = ExactMatrix.identity(self.field, self.rows)
        base = self
        while n:
            if n & 1:
                acc = acc @ base
            base = base @ base if n > 1 else base
            n >>= 1
        return acc

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("hstack row mismatch")
        out = ExactMatrix(self.field, self.rows, self.cols + other.cols)
        for i in range(self.rows):
            out.data[i] = list(self.data[i]) + list(other.data[i])
        return out

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    @classmethod
    def from_columns(cls, field, cols, nrows):
        m = cls(field, nrows, len(cols))
        for j, c in enumerate(cols):
            for i in range(nrows):
                m.data[i][j] = c[i]
        return m

    @classmethod
    def block_diagonal(cls, field, blocks):
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = cls(field, rows, cols)
        r = c = 0
        for b in blocks:
            for i in range(b.rows):
                out.data[r + i][c : c + b.cols] = list(b.data[i])
            r += b.rows
            c += b.cols
        return out

    # -- elimination -----------------------------------------------------

    def _sparse_rows(self, right=None):
        """Rows of [self | right] as column -> nonzero scalar dicts."""
        for i in range(self.rows):
            row = self.data[i] if right is None else self.data[i] + right.data[i]
            yield {j: v for j, v in enumerate(row) if not v.is_zero()}

    def _row_echelon(self, right=None) -> "RowEchelon":
        ech = RowEchelon(self.field)
        for row in self._sparse_rows(right):
            ech.insert(row)
        return ech

    def _solve_augmented(self, right: "ExactMatrix"):
        """X with self @ X = right, free unknowns zero, read from the reduced
        echelon form of [self | right]; None if a pivot lies in the right block."""
        ech = self._row_echelon(right)
        if any(pc >= self.cols for pc in ech.rows):
            return None
        out = ExactMatrix(self.field, self.cols, right.cols)
        for pc, row in ech.rows.items():
            for c, v in row.items():
                if c >= self.cols:
                    out.data[pc][c - self.cols] = v
        return out

    def rank(self) -> int:
        return len(self._row_echelon().rows)

    def kernel(self) -> "ExactMatrix":
        """Columns form a basis of the right kernel: self @ K = 0."""
        basis = self._row_echelon().kernel_basis(self.cols)
        return ExactMatrix.from_columns(self.field, basis, self.cols)

    def image_basis(self) -> "ExactMatrix":
        """Columns form a basis of the column space (original pivot columns)."""
        piv = sorted(self._row_echelon().rows)
        return ExactMatrix.from_columns(self.field, [self.column(c) for c in piv], self.rows)

    def solve(self, b_cols: "ExactMatrix"):
        """Solve self @ X = b for each column of b.

        Returns X (cols of b solved) or None if any column is inconsistent.
        Raises CertificationError if the X found does not satisfy self @ X = b.
        """
        if b_cols.rows != self.rows:
            raise ValueError("rhs row mismatch")
        out = self._solve_augmented(b_cols)
        if out is not None and self @ out != b_cols:
            raise CertificationError("solve returned X with self @ X != b")
        return out

    def determinant(self) -> CyclotomicScalar:
        """sign(sigma) times the product of the leading scalars of the rows
        inserted in order, sigma taking row i to its pivot.  Each residual is
        zero at the earlier pivots, so the residuals form a triangular matrix
        once columns are ordered by pivot, and they differ from self by a unit
        lower-triangular row operation."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        ech = RowEchelon(self.field)
        det = self.field.one
        for row in self._sparse_rows():
            lead = ech.insert(row)
            if lead is None:
                return self.field.zero
            det = det * lead
        sigma = list(ech.rows)  # dicts keep insertion order: pivot of row i
        inversions = sum(a > b for i, a in enumerate(sigma) for b in sigma[i + 1 :])
        return -det if inversions % 2 else det

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        out = self._solve_augmented(ExactMatrix.identity(self.field, self.rows))
        if out is None:
            raise ZeroDivisionError("matrix is singular")
        return out

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols} over ell={self.field.ell})"


class RowEchelon:
    """Reduced row echelon form of a growing set of sparse rows.

    Rows are dicts column -> nonzero scalar.  `rows` maps each pivot column to
    its stored row, whose leading entry is one at the pivot and which is zero
    at every other pivot.  The reduced echelon form of a row space is unique,
    so what is read from it does not depend on the order of insertion.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field: CycloField):
        self.field = field
        self.rows = {}

    def reduce(self, row: dict):
        """(residual, coefficients by pivot) with row = residual + the sum of
        coefficient * stored row; the residual is zero at every pivot."""
        residual = dict(row)
        coeffs = {}
        for p, c in row.items():
            prow = self.rows.get(p)
            if prow is None:
                continue
            coeffs[p] = c
            # prow is zero at the other pivots, so their coefficients stay put
            self._subtract(residual, c, prow)
        return residual, coeffs

    def insert(self, row: dict):
        """Add a row; returns its residual's leading scalar, or None when the
        row already lies in the span."""
        residual, _ = self.reduce(row)
        if not residual:
            return None
        p = min(residual)
        lead = residual[p]
        inv = lead.inverse()
        new = {k: inv * v for k, v in residual.items()}
        for qrow in self.rows.values():
            c = qrow.get(p)
            if c is not None:
                self._subtract(qrow, c, new)
        self.rows[p] = new
        return lead

    def _subtract(self, target: dict, c, row: dict):
        """target -= c * row in place, dropping the entries that cancel."""
        zero = self.field.zero
        for k, v in row.items():
            nv = target.get(k, zero) - c * v
            if nv.is_zero():
                target.pop(k, None)
            else:
                target[k] = nv

    def kernel_basis(self, ncols: int):
        """Basis, as dense lists, of the x in columns 0..ncols-1 that every
        stored row annihilates when read on those columns: one vector per free
        column below ncols."""
        field = self.field
        basis = []
        for fc in range(ncols):
            if fc in self.rows:
                continue
            vec = [field.zero] * ncols
            vec[fc] = field.one
            for pc, row in self.rows.items():
                v = row.get(fc)
                if v is not None:
                    vec[pc] = -v
            basis.append(vec)
        return basis


class SparseSystem:
    """Homogeneous or inhomogeneous sparse exact linear system.

    Rows are dicts column -> scalar; the right-hand side is stored as column
    `ncols`, so the system is inconsistent exactly when that column becomes a
    pivot.  Designed for the banded systems coming from weight-graded
    intertwiner equations: unknowns should be pre-ordered so that fill-in
    stays local.
    """

    def __init__(self, field: CycloField, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows = []

    def add_row(self, entries: dict, rhs: CyclotomicScalar | None = None):
        row = {c: v for c, v in entries.items() if not v.is_zero()}
        if rhs is not None and not rhs.is_zero():
            row[self.ncols] = rhs
        self.rows.append(row)

    def echelon(self) -> RowEchelon:
        ech = RowEchelon(self.field)
        for row in sorted(self.rows, key=lambda r: min(r, default=self.ncols)):
            ech.insert(row)
        return ech

    def kernel_basis(self):
        """Basis of the homogeneous solution space as list of dense scalar lists."""
        return self.echelon().kernel_basis(self.ncols)

    def particular_solution(self):
        """One solution of the inhomogeneous system (free unknowns zero), or
        None if inconsistent."""
        ech = self.echelon()
        if self.ncols in ech.rows:
            return None
        zero = self.field.zero
        vec = [zero] * self.ncols
        for pc, row in ech.rows.items():
            vec[pc] = row.get(self.ncols, zero)
        return vec

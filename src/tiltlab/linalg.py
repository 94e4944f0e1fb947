"""Exact dense and sparse linear algebra over Q(zeta_ell).

Dense matrices are plain row-major lists of CyclotomicScalar; everything is
done by pivoted Gaussian elimination over the exact field.  The sparse solver
keeps rows as column->scalar dicts and is used for the large structured
systems coming from intertwiner equations.
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

    def _echelon(self):
        """Row echelon form; returns (matrix copy, pivot column list)."""
        m = [list(row) for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            pr = None
            for i in range(r, self.rows):
                if not m[i][c].is_zero():
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            inv = m[r][c].inverse()
            m[r] = [inv * x for x in m[r]]
            for i in range(self.rows):
                if i != r and not m[i][c].is_zero():
                    f = m[i][c]
                    mi, mr = m[i], m[r]
                    for j in range(c, self.cols):
                        if not mr[j].is_zero():
                            mi[j] = mi[j] - f * mr[j]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, pivots

    def rank(self) -> int:
        return len(self._echelon()[1])

    def kernel(self) -> "ExactMatrix":
        """Columns form a basis of the right kernel: self @ K = 0."""
        m, pivots = self._echelon()
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        field = self.field
        cols = []
        for fc in free:
            vec = [field.zero] * self.cols
            vec[fc] = field.one
            for r_i, pc in enumerate(pivots):
                vec[pc] = -m[r_i][fc]
            cols.append(vec)
        return ExactMatrix.from_columns(field, cols, self.cols)

    def image_basis(self) -> "ExactMatrix":
        """Columns form a basis of the column space (original pivot columns)."""
        _, piv = self._echelon()
        return ExactMatrix.from_columns(self.field, [self.column(c) for c in piv], self.rows)

    def solve(self, b_cols: "ExactMatrix"):
        """Solve self @ X = b for each column of b.

        Returns X (cols of b solved) or None if any column is inconsistent.
        Raises CertificationError if the X found does not satisfy self @ X = b.
        """
        if b_cols.rows != self.rows:
            raise ValueError("rhs row mismatch")
        aug = self.hstack(b_cols)
        m, pivots = aug._echelon()
        for r_i, pc in enumerate(pivots):
            if pc >= self.cols:
                return None  # pivot in rhs block: inconsistent
        field = self.field
        out = ExactMatrix(field, self.cols, b_cols.cols)
        for r_i, pc in enumerate(pivots):
            for j in range(b_cols.cols):
                out.data[pc][j] = m[r_i][self.cols + j]
        if self @ out != b_cols:
            raise CertificationError("solve returned X with self @ X != b")
        return out

    def determinant(self) -> CyclotomicScalar:
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        field = self.field
        m = [list(row) for row in self.data]
        det = field.one
        n = self.rows
        for c in range(n):
            pr = None
            for i in range(c, n):
                if not m[i][c].is_zero():
                    pr = i
                    break
            if pr is None:
                return field.zero
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                det = -det
            det = det * m[c][c]
            inv = m[c][c].inverse()
            for i in range(c + 1, n):
                if not m[i][c].is_zero():
                    f = m[i][c] * inv
                    mi, mc = m[i], m[c]
                    for j in range(c, n):
                        if not mc[j].is_zero():
                            mi[j] = mi[j] - f * mc[j]
        return det

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        aug = self.hstack(ExactMatrix.identity(self.field, self.rows))
        m, pivots = aug._echelon()
        if pivots != list(range(self.rows)):
            raise ZeroDivisionError("matrix is singular")
        out = ExactMatrix(self.field, self.rows, self.cols)
        for i in range(self.rows):
            out.data[i] = m[i][self.cols :]
        return out

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols} over ell={self.field.ell})"


class SparseSystem:
    """Homogeneous or inhomogeneous sparse exact linear system.

    Rows are dicts column -> scalar.  Designed for the banded systems coming
    from weight-graded intertwiner equations: unknowns should be pre-ordered
    so that fill-in stays local.
    """

    def __init__(self, field: CycloField, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows = []
        self.rhs = []

    def add_row(self, entries: dict, rhs: CyclotomicScalar | None = None):
        entries = {c: v for c, v in entries.items() if not v.is_zero()}
        self.rows.append(entries)
        self.rhs.append(rhs if rhs is not None else self.field.zero)

    def _eliminate(self):
        """Returns (pivot dict col->(row entries, rhs), inconsistent flag)."""
        pivots = {}
        order = sorted(range(len(self.rows)), key=lambda i: min(self.rows[i], default=self.ncols))
        work = [(dict(self.rows[i]), self.rhs[i]) for i in order]
        for entries, rhs in work:
            while entries:
                c = min(entries)
                if c in pivots:
                    pe, prhs = pivots[c]
                    f = entries[c]
                    for cc, v in pe.items():
                        nv = entries.get(cc, self.field.zero) - f * v
                        if nv.is_zero():
                            entries.pop(cc, None)
                        else:
                            entries[cc] = nv
                    rhs = rhs - f * prhs
                else:
                    inv = entries[c].inverse()
                    entries = {cc: inv * v for cc, v in entries.items()}
                    rhs = inv * rhs
                    pivots[c] = (entries, rhs)
                    break
            else:
                if not rhs.is_zero():
                    return pivots, True
        # back-substitute: normalize pivot rows against later pivots
        for c in sorted(pivots, reverse=True):
            entries, rhs = pivots[c]
            changed = False
            for cc in [k for k in entries if k != c and k in pivots]:
                pe, prhs = pivots[cc]
                f = entries[cc]
                for k, v in pe.items():
                    if k == cc:
                        continue
                    nv = entries.get(k, self.field.zero) - f * v
                    if nv.is_zero():
                        entries.pop(k, None)
                    else:
                        entries[k] = nv
                rhs = rhs - f * prhs
                entries.pop(cc)
                changed = True
            if changed:
                pivots[c] = (entries, rhs)
        return pivots, False

    def kernel_basis(self):
        """Basis of the homogeneous solution space as list of dense scalar lists."""
        pivots, _ = self._eliminate()
        field = self.field
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            vec = [field.zero] * self.ncols
            vec[fc] = field.one
            for pc, (entries, _) in pivots.items():
                v = entries.get(fc)
                if v is not None and not v.is_zero():
                    vec[pc] = -v
            basis.append(vec)
        return basis

    def particular_solution(self):
        """One solution of the inhomogeneous system, or None if inconsistent."""
        pivots, bad = self._eliminate()
        if bad:
            return None
        field = self.field
        vec = [field.zero] * self.ncols
        for pc, (entries, rhs) in pivots.items():
            vec[pc] = rhs
        return vec

"""Exact sparse linear algebra over Q(zeta_ell).

There is one matrix type, `ExactMatrix`: each row is a dict from column to
nonzero scalar, and no entry that is zero is ever stored, so every operation
visits nonzero entries only.  Sparse vectors have the same form, index ->
nonzero scalar.  One eliminator, `RowEchelon`, keeps the reduced row echelon
form of such rows over the exact field; rank, kernels, images, solutions,
inverses and determinants of matrices, the sparse systems coming from
intertwiner equations, and the per-weight bases of submodules are all read
from it.  Elimination and matrix products call the fused scalar kernels of
`tiltlab.cyclotomic`.
"""

from __future__ import annotations

from tiltlab.cyclotomic import (
    CertificationError,
    CycloField,
    CyclotomicScalar,
    MismatchedFieldError,
    sub_product,
    sum_of_products,
)


class ExactMatrix:
    """A rows x cols matrix; entries[i] maps each column where row i is
    nonzero to its scalar.

    `m[i, j]` reads an absent entry as zero, and `m[i, j] = v` drops the
    entry when v is zero.  The constructor takes `entries` as given (one dict
    per row, nonzero values only) and owns them afterwards.
    """

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: CycloField, rows: int, cols: int, entries=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        if entries is None:
            entries = [{} for _ in range(rows)]
        elif len(entries) != rows:
            raise ValueError("entries shape mismatch")
        self.entries = entries

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i].get(j, self.field.zero)

    def __setitem__(self, ij, value: CyclotomicScalar):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry {ij} outside a {self.rows} x {self.cols} matrix")
        if value.is_zero():
            self.entries[i].pop(j, None)
        else:
            self.entries[i][j] = value

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, [{i: field.one} for i in range(n)])

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, rows, cols)

    def copy(self):
        return ExactMatrix(self.field, self.rows, self.cols, [dict(r) for r in self.entries])

    # -- basic ops -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.field is other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __add__(self, other):
        self._compat(other)
        return ExactMatrix(self.field, self.rows, self.cols,
                           [_add_rows(a, b) for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExactMatrix(self.field, self.rows, self.cols,
                           [{j: -v for j, v in row.items()} for row in self.entries])

    def _compat(self, other):
        if self.field is not other.field:
            raise MismatchedFieldError("matrices over different fields")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def scale(self, scalar: CyclotomicScalar):
        if scalar.is_zero():
            return ExactMatrix(self.field, self.rows, self.cols)
        return ExactMatrix(self.field, self.rows, self.cols,
                           [{j: scalar * v for j, v in row.items()} for row in self.entries])

    def __matmul__(self, other):
        if self.field is not other.field:
            raise MismatchedFieldError("matrices over different fields")
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        brows = other.entries
        out = []
        for arow in self.entries:
            terms = {}  # column -> the (a, b) pairs of its entry
            for k, a in arow.items():
                for j, b in brows[k].items():
                    pairs = terms.get(j)
                    if pairs is None:
                        terms[j] = [(a, b)]
                    else:
                        pairs.append((a, b))
            row = {}
            for j, pairs in terms.items():
                v = sum_of_products(pairs)
                if v is not None:
                    row[j] = v
            out.append(row)
        return ExactMatrix(self.field, self.rows, other.cols, out)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for j, v in row.items():
                out[j][i] = v
        return ExactMatrix(self.field, self.cols, self.rows, out)

    def is_zero(self):
        return not any(self.entries)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.field is not other.field:
            raise MismatchedFieldError("matrices over different fields")
        oc = other.cols
        out = [
            {j * oc + l: a * b for j, a in arow.items() for l, b in brow.items()}
            for arow in self.entries
            for brow in other.entries
        ]
        return ExactMatrix(self.field, self.rows * other.rows, self.cols * oc, out)

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

    def column(self, j):
        """Column j as a sparse vector, row -> nonzero scalar."""
        return {i: row[j] for i, row in enumerate(self.entries) if j in row}

    @classmethod
    def from_columns(cls, field, cols, nrows):
        """The matrix whose columns are the given sparse vectors."""
        out = [{} for _ in range(nrows)]
        for j, c in enumerate(cols):
            for i, v in c.items():
                out[i][j] = v
        return cls(field, nrows, len(cols), out)

    @classmethod
    def block_diagonal(cls, field, blocks):
        out = []
        c = 0
        for b in blocks:
            out.extend({c + j: v for j, v in row.items()} for row in b.entries)
            c += b.cols
        return cls(field, len(out), c, out)

    # -- elimination -----------------------------------------------------

    def _row_echelon(self, right=None) -> "RowEchelon":
        """The reduced echelon form of the rows of [self | right]."""
        ech = RowEchelon(self.field)
        if right is None:
            for row in self.entries:
                ech.insert(row)
        else:
            n = self.cols
            for row, rrow in zip(self.entries, right.entries):
                ech.insert({**row, **{n + j: v for j, v in rrow.items()}})
        return ech

    def _solve_augmented(self, right: "ExactMatrix"):
        """X with self @ X = right, free unknowns zero, read from the reduced
        echelon form of [self | right]; None if a pivot lies in the right block."""
        n = self.cols
        ech = self._row_echelon(right)
        if any(pc >= n for pc in ech.rows):
            return None
        out = [{} for _ in range(n)]
        for pc, row in ech.rows.items():
            out[pc] = {c - n: v for c, v in row.items() if c >= n}
        return ExactMatrix(self.field, n, right.cols, out)

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
        for row in self.entries:
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


def _add_rows(a: dict, b: dict) -> dict:
    """a + b of two sparse rows, dropping the entries that cancel."""
    out = dict(a)
    for j, v in b.items():
        w = out.get(j)
        if w is None:
            out[j] = v
        else:
            w = w + v
            if w.is_zero():
                del out[j]
            else:
                out[j] = w
    return out


class RowEchelon:
    """Reduced row echelon form of a growing set of sparse rows.

    Rows are dicts column -> nonzero scalar.  `rows` maps each pivot column to
    its stored row, whose leading entry is one at the pivot and which is zero
    at every other pivot.  The reduced echelon form of a row space is unique,
    so what is read from it does not depend on the order of insertion.  Each
    elimination step target -= c * row is one fused `sub_product` per entry,
    and a residual whose leading entry is already one is stored unscaled.
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
        if lead == self.field.one:
            new = residual
        else:
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
        for k, v in row.items():
            nv = sub_product(target.get(k), c, v)
            if nv is None:
                target.pop(k, None)
            else:
                target[k] = nv

    def kernel_basis(self, ncols: int):
        """Basis, as sparse vectors, of the x in columns 0..ncols-1 that every
        stored row annihilates when read on those columns: one vector per free
        column below ncols."""
        one = self.field.one
        basis = []
        for fc in range(ncols):
            if fc in self.rows:
                continue
            vec = {fc: one}
            for pc, row in self.rows.items():
                v = row.get(fc)
                if v is not None:
                    vec[pc] = -v
            basis.append(vec)
        return basis

    def particular_solution(self, ncols: int):
        """A solution (free unknowns zero) of the system whose right-hand side
        is column ncols, as a sparse vector; None if that column is a pivot."""
        if ncols in self.rows:
            return None
        return {pc: row[ncols] for pc, row in self.rows.items() if ncols in row}


class SparseSystem:
    """Homogeneous or inhomogeneous sparse exact linear system.

    Rows are dicts column -> nonzero scalar; the right-hand side is stored as
    column `ncols`, so the system is inconsistent exactly when that column
    becomes a pivot.  Designed for the banded systems coming from
    weight-graded intertwiner equations: unknowns should be pre-ordered so
    that fill-in stays local.  Many of those equations are x_k = 0; the
    presolve in `echelon` settles them, and the unknowns they force, without
    elimination, so only the other rows reach `RowEchelon`.
    """

    def __init__(self, field: CycloField, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows = []

    def add_row(self, entries: dict, rhs: CyclotomicScalar | None = None):
        """Add the equation sum entries[c] x_c = rhs (rhs None for zero)."""
        row = dict(entries)
        if rhs is not None and not rhs.is_zero():
            row[self.ncols] = rhs
        self.rows.append(row)

    def echelon(self) -> RowEchelon:
        """The reduced echelon form of the rows, after a presolve: a
        homogeneous one-entry row forces its unknown to zero, the forced
        unknowns are dropped from every row, which may force more, and each
        forced unknown is stored as the pivot row {k: 1}.  That changes the
        rows but not their span, so the form is the same."""
        n = self.ncols
        rows = [dict(r) for r in self.rows]
        by_col = {}  # unknown -> indices of the rows holding it
        for i, row in enumerate(rows):
            for k in row:
                by_col.setdefault(k, []).append(i)
        queue = [i for i, row in enumerate(rows) if len(row) == 1 and n not in row]
        forced = set()
        while queue:
            row = rows[queue.pop()]
            if len(row) != 1 or n in row:  # emptied by an earlier forced unknown
                continue
            (k,) = row
            forced.add(k)
            for i in by_col[k]:
                other = rows[i]
                del other[k]
                if len(other) == 1 and n not in other:
                    queue.append(i)
        ech = RowEchelon(self.field)
        # a row left holding only the right-hand side stays: it makes n a pivot
        for row in sorted(filter(None, rows), key=min):
            ech.insert(row)
        one = self.field.one
        for k in sorted(forced):
            ech.rows[k] = {k: one}
        return ech

    def kernel_basis(self):
        """Basis of the homogeneous solution space as sparse vectors."""
        return self.echelon().kernel_basis(self.ncols)

    def particular_solution(self):
        """One solution (free unknowns zero) as a sparse vector, or None."""
        return self.echelon().particular_solution(self.ncols)

import random

import pytest
from hypothesis import given, settings, strategies as st

from tiltlab.cyclotomic import CycloField
from tiltlab.linalg import ExactMatrix, RowEchelon, SparseSystem
from tiltlab.serialize import matrix_from_json

from oracles import (
    dense,
    dense_add,
    dense_block_diagonal,
    dense_kron,
    dense_matmul,
    dense_transpose,
    from_dense,
    from_rational_rows,
    matrix_to_json,
    scalar_to_json,
)


def random_matrix(field, rng, rows, cols, spread=2, density=1.0):
    m = ExactMatrix(field, rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                m[i, j] = field.from_coeffs(
                    [rng.randint(-spread, spread) for _ in range(field.phi)]
                )
    return m


# -- reference implementations: dense Gauss-Jordan elimination, kept apart
#    from the library's sparse reduced-echelon eliminator


def dense_rref(A):
    """Reduced row echelon form of a dense matrix: (nonzero rows, pivot columns)."""
    m = dense(A)
    pivots = []
    r = 0
    for c in range(A.cols):
        pr = next((i for i in range(r, A.rows) if not m[i][c].is_zero()), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [inv * x for x in m[r]]
        for i in range(A.rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == A.rows:
            break
    return m[:r], pivots


def dense_kernel(A):
    """Kernel basis as columns, one per free column, from the dense RREF."""
    m, pivots = dense_rref(A)
    F = A.field
    cols = []
    for fc in (c for c in range(A.cols) if c not in pivots):
        vec = [F.zero] * A.cols
        vec[fc] = F.one
        for r_i, pc in enumerate(pivots):
            vec[pc] = -m[r_i][fc]
        cols.append(vec)
    return from_dense(F, dense_transpose(cols, A.cols), len(cols))


def hstack(A, B):
    """[A | B] for matrices with the same number of rows."""
    if A.rows != B.rows:
        raise ValueError("hstack row mismatch")
    return from_dense(A.field, [ra + rb for ra, rb in zip(dense(A), dense(B))], A.cols + B.cols)


def dense_solve(A, B):
    """X with A @ X = B and free unknowns zero, or None if inconsistent."""
    m, pivots = dense_rref(hstack(A, B))
    if any(pc >= A.cols for pc in pivots):
        return None
    X = ExactMatrix(A.field, A.cols, B.cols)
    for r_i, pc in enumerate(pivots):
        for j, v in enumerate(m[r_i][A.cols :]):
            X[pc, j] = v
    return X


def dense_determinant(A):
    """Determinant by forward elimination with row swaps."""
    F = A.field
    m = dense(A)
    det = F.one
    n = A.rows
    for c in range(n):
        pr = next((i for i in range(c, n) if not m[i][c].is_zero()), None)
        if pr is None:
            return F.zero
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det = det * m[c][c]
        inv = m[c][c].inverse()
        for i in range(c + 1, n):
            if not m[i][c].is_zero():
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def rank_deficient_matrix(field, rng, rows, cols, inner):
    """A sparse product through an inner dimension, so the rank is at most inner."""
    B = random_matrix(field, rng, rows, inner, density=0.4)
    C = random_matrix(field, rng, inner, cols, density=0.4)
    return B @ C


def test_identity_kernel_empty():
    F = CycloField(3)
    assert ExactMatrix.identity(F, 3).kernel().cols == 0


def test_zero_matrix_kernel_full():
    F = CycloField(3)
    K = ExactMatrix.zero(F, 2, 3).kernel()
    assert K.cols == 3


def test_planted_rank():
    F = CycloField(5)
    rng = random.Random(7)
    B = random_matrix(F, rng, 6, 4)
    C = random_matrix(F, rng, 4, 6)
    assert B.rank() == 4 and C.rank() == 4  # the plant is genuine
    A = B @ C
    assert A.rank() == 4


def test_kernel_annihilates():
    F = CycloField(5)
    rng = random.Random(11)
    A = random_matrix(F, rng, 5, 7)
    K = A.kernel()
    assert (A @ K).is_zero()
    assert A.rank() + K.cols == A.cols


def test_solve_consistent_and_inconsistent():
    F = CycloField(3)
    rng = random.Random(3)
    A = random_matrix(F, rng, 4, 3)
    X = random_matrix(F, rng, 3, 2)
    B = A @ X
    sol = A.solve(B)
    assert sol is not None and (A @ sol) == B
    # inconsistent: target outside the column space of a rank-deficient map
    Z = ExactMatrix.zero(F, 2, 2)
    rhs = ExactMatrix.identity(F, 2)
    assert Z.solve(rhs) is None


def test_image_basis_spans():
    F = CycloField(3)
    rng = random.Random(5)
    A = random_matrix(F, rng, 4, 6)
    img = A.image_basis()
    assert img.cols == A.rank()
    # each image column solves A x = col
    assert A.solve(img) is not None


def test_determinant_and_inverse():
    F = CycloField(5)
    rng = random.Random(13)
    M = random_matrix(F, rng, 4, 4)
    if M.determinant().is_zero():
        pytest.skip("unlucky singular sample")
    assert (M @ M.inverse()) == ExactMatrix.identity(F, 4)
    S = ExactMatrix.zero(F, 2, 2)
    assert S.determinant().is_zero()


def test_kron_and_block_diagonal():
    F = CycloField(3)
    a = ExactMatrix.identity(F, 2)
    b = from_rational_rows(F, [[1, 2], [3, 4]])
    k = a.kron(b)
    assert k.shape == (4, 4)
    assert k[2, 2] == F.scalar(1) and k[3, 3] == F.scalar(4)
    d = ExactMatrix.block_diagonal(F, [b, b])
    assert d.shape == (4, 4) and d[0, 2].is_zero()


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=10**6),
)
def test_rank_nullity_random(rows, cols, seed):
    F = CycloField(3)
    rng = random.Random(seed)
    A = random_matrix(F, rng, rows, cols)
    assert A.rank() + A.kernel().cols == cols


def test_sparse_system_matches_dense_kernel():
    F = CycloField(5)
    rng = random.Random(23)
    A = random_matrix(F, rng, 5, 8)
    sys = SparseSystem(F, 8)
    for i in range(5):
        sys.add_row(A.entries[i])
    basis = sys.kernel_basis()
    oracle = dense_kernel(A)
    assert basis == [oracle.column(j) for j in range(oracle.cols)]
    for vec in basis:
        col = ExactMatrix.from_columns(F, [vec], 8)
        assert (A @ col).is_zero()


def test_sparse_system_particular_solution():
    F = CycloField(3)
    rng = random.Random(29)
    A = random_matrix(F, rng, 4, 4)
    x = [F.scalar(rng.randint(-3, 3)) for _ in range(4)]
    rhs = [sum((A[i, j] * x[j] for j in range(4)), F.zero) for i in range(4)]
    sys = SparseSystem(F, 4)
    for i in range(4):
        sys.add_row(A.entries[i], rhs[i])
    sol = sys.particular_solution()
    assert sol is not None
    for i in range(4):
        acc = F.zero
        for j in range(4):
            acc = acc + A[i, j] * sol.get(j, F.zero)
        assert acc == rhs[i]


def test_sparse_system_inconsistent():
    F = CycloField(3)
    sys = SparseSystem(F, 2)
    sys.add_row({0: F.one}, F.one)
    sys.add_row({0: F.one}, F.scalar(2))
    assert sys.particular_solution() is None


def _sparse_matches_dense(F, ncols, equations):
    """SparseSystem against the dense oracles: its kernel basis and its
    particular solution (free unknowns zero, None when inconsistent)."""
    sys = SparseSystem(F, ncols)
    for entries, rhs in equations:
        sys.add_row(entries, rhs)
    A = ExactMatrix(F, len(equations), ncols, [dict(e) for e, _ in equations])
    b = ExactMatrix(F, len(equations), 1, [{} if r is None or r.is_zero() else {0: r} for _, r in equations])
    oracle = dense_kernel(A)
    assert sys.kernel_basis() == [oracle.column(j) for j in range(oracle.cols)]
    X = dense_solve(A, b)
    assert sys.particular_solution() == (None if X is None else X.column(0))
    return sys


def test_sparse_system_with_repeated_zero_rows():
    F = CycloField(5)
    z = F.zeta
    equations = [
        ({2: F.scalar(3)}, None), ({0: F.one, 2: z, 4: F.scalar(-2)}, None), ({2: F.scalar(-1)}, None),
        ({4: z}, None), ({1: z, 3: F.one, 4: F.one}, F.scalar(2)), ({2: F.scalar("1/2")}, None),
        ({4: F.scalar(7)}, None), ({0: F.one, 5: z + F.one}, z),
    ]
    _sparse_matches_dense(F, 6, equations)


def test_sparse_system_presolve_cascade():
    """x1 = 0 forces x2 through x1 + x2 = 0, which forces x3, and so on."""
    F = CycloField(3)
    z = F.zeta
    equations = [
        ({1: F.one}, None), ({1: F.one, 2: F.one}, None), ({2: z, 3: F.scalar(2)}, None),
        ({3: F.one, 4: z, 0: F.one}, None), ({4: F.scalar("3/2"), 0: z, 5: F.one}, F.one),
        ({0: F.one, 6: F.one}, F.scalar(-1)),
    ]
    sys = _sparse_matches_dense(F, 7, equations)
    ech = sys.echelon()
    for k in (1, 2, 3):
        assert ech.rows[k] == {k: F.one}


def test_sparse_system_row_left_with_only_its_right_hand_side():
    """x0 = 0 and x0 + x1 = 0 leave 2 x1 = 1 as 0 = 1: inconsistent."""
    F = CycloField(7)
    equations = [({0: F.one}, None), ({0: F.zeta, 1: F.one}, None), ({1: F.scalar(2)}, F.one),
                 ({2: F.one, 3: F.zeta}, F.scalar(5))]
    sys = _sparse_matches_dense(F, 4, equations)
    assert sys.particular_solution() is None
    assert 4 in sys.echelon().rows
    # with a zero right-hand side the same rows are consistent
    _sparse_matches_dense(F, 4, [(e, None) for e, _ in equations[:3]] + equations[3:])


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([3, 5]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
def test_sparse_system_with_one_entry_rows_matches_dense(ell, ncols, seed):
    F = CycloField(ell)
    rng = random.Random(seed)
    equations = []
    for _ in range(rng.randint(1, 2 * ncols)):
        size = rng.choice([1, 1, 2, 3])
        cols = rng.sample(range(ncols), min(size, ncols))
        entries = {c: F.from_coeffs([rng.randint(-2, 2) or 1] + [rng.randint(-1, 1) for _ in range(F.phi - 1)])
                   for c in cols}
        rhs = F.scalar(rng.randint(-2, 2)) if rng.random() < 0.3 else None
        equations.append((entries, rhs))
    _sparse_matches_dense(F, ncols, equations)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5]),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=10**6),
)
def test_eliminator_matches_dense_oracles(ell, rows, cols, inner, seed):
    F = CycloField(ell)
    rng = random.Random(seed)
    if inner:
        A = rank_deficient_matrix(F, rng, rows, cols, inner)
    else:
        A = random_matrix(F, rng, rows, cols, density=0.3)
    m, pivots = dense_rref(A)
    assert A.rank() == len(pivots)
    assert A.kernel() == dense_kernel(A)
    assert A.image_basis() == ExactMatrix.from_columns(
        F, [A.column(c) for c in pivots], rows
    )
    consistent = A @ random_matrix(F, rng, cols, 2, density=0.5)
    arbitrary = random_matrix(F, rng, rows, 2, density=0.5)
    for B in (consistent, arbitrary):
        assert A.solve(B) == dense_solve(A, B)
    assert A.solve(consistent) is not None
    # the same systems, one right-hand side at a time, through SparseSystem
    for B in (consistent, arbitrary):
        sys = SparseSystem(F, cols)
        for i in range(rows):
            sys.add_row(A.entries[i], B[i, 0])
        expected = dense_solve(A, ExactMatrix.from_columns(F, [B.column(0)], rows))
        assert sys.particular_solution() == (None if expected is None else expected.column(0))
        oracle = dense_kernel(A)
        assert sys.kernel_basis() == [oracle.column(j) for j in range(oracle.cols)]
    if rows == cols:
        assert A.determinant() == dense_determinant(A)
        if len(pivots) == rows:
            assert A.inverse() == dense_solve(A, ExactMatrix.identity(F, rows))
        else:
            with pytest.raises(ZeroDivisionError):
                A.inverse()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([3, 5]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
def test_determinant_of_row_permuted_triangular(ell, n, seed):
    # rows of a unit-diagonal upper-triangular matrix, shuffled: invertible,
    # and the pivots arrive out of order
    F = CycloField(ell)
    rng = random.Random(seed)
    U = random_matrix(F, rng, n, n, density=0.4)
    for i in range(n):
        U[i, i] = F.zeta_power(rng.randint(0, ell - 1))
        for j in range(i):
            U[i, j] = F.zero
    perm = list(range(n))
    rng.shuffle(perm)
    A = from_dense(F, [dense(U)[i] for i in perm])
    assert A.determinant() == dense_determinant(A)
    assert not A.determinant().is_zero()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([3, 5]),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
def test_row_echelon_insert_keeps_rref(ell, nrows, cols, seed):
    F = CycloField(ell)
    rng = random.Random(seed)
    A = rank_deficient_matrix(F, rng, nrows, cols, rng.randint(1, cols))
    ech = RowEchelon(F)
    for i in range(nrows):
        before = len(ech.rows)
        row = {j: v for j, v in enumerate(dense(A)[i]) if not v.is_zero()}
        lead = ech.insert(row)
        assert (lead is None) == (len(ech.rows) == before)
        for p, stored in ech.rows.items():
            assert min(stored) == p and stored[p] == F.one
            assert all(q == p or q not in stored for q in ech.rows)
            assert all(not v.is_zero() for v in stored.values())
        residual, coeffs = ech.reduce(row)
        assert residual == {}
        recombined = {}
        for p, c in coeffs.items():
            for k, v in ech.rows[p].items():
                recombined[k] = recombined.get(k, F.zero) + c * v
        assert {k: v for k, v in recombined.items() if not v.is_zero()} == row
    m, pivots = dense_rref(A)
    assert sorted(ech.rows) == pivots
    for r_i, p in enumerate(pivots):
        assert [ech.rows[p].get(j, F.zero) for j in range(cols)] == m[r_i]


def _stores_no_zero(m):
    return all(not v.is_zero() for row in m.entries for v in row.values())


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5]),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10**6),
)
def test_exact_matrix_matches_dense_oracle(ell, rows, cols, inner, seed):
    # every operation against the same operation on dense lists of scalars;
    # sparse operands, so that entries cancel and rows go empty
    F = CycloField(ell)
    rng = random.Random(seed)
    A = random_matrix(F, rng, rows, cols, spread=1, density=0.4)
    B = random_matrix(F, rng, rows, cols, spread=1, density=0.4)
    C = random_matrix(F, rng, cols, inner, spread=1, density=0.5)
    D = random_matrix(F, rng, inner, 2, spread=1, density=0.5)
    P = random_matrix(F, rng, cols, cols, spread=1, density=0.5)
    s = F.from_coeffs([rng.randint(-1, 1) for _ in range(F.phi)])
    a, b = dense(A), dense(B)
    results = {
        "add": (A + B, dense_add(a, b)),
        "sub": (A - B, dense_add(a, b, sign=-1)),
        "neg": (-A, [[-x for x in row] for row in a]),
        "scale": (A.scale(s), [[s * x for x in row] for row in a]),
        "matmul": (A @ C, dense_matmul(F, a, dense(C), inner)),
        "transpose": (A.transpose(), dense_transpose(a, cols)),
        "kron": (A.kron(D), dense_kron(a, dense(D))),
        "power": (P.power(3), dense_matmul(F, dense_matmul(F, dense(P), dense(P), cols), dense(P), cols)),
        "block_diagonal": (ExactMatrix.block_diagonal(F, [A, C]),
                           dense_block_diagonal(F, [(a, cols), (dense(C), inner)])),
        "from_columns": (ExactMatrix.from_columns(F, [A.column(j) for j in range(cols)], rows), a),
        "copy": (A.copy(), a),
    }
    for name, (got, want) in results.items():
        assert dense(got) == want, name
        assert _stores_no_zero(got), name
    assert A.is_zero() == all(x.is_zero() for row in a for x in row)
    assert (A == B) == (a == b)
    for j in range(cols):
        assert A.column(j) == {i: row[j] for i, row in enumerate(a) if not row[j].is_zero()}
    # cancellation leaves no stored entry
    for cancelled in (A + (-A), A - A, A.scale(F.zero)):
        assert cancelled == ExactMatrix.zero(F, rows, cols)
        assert not any(cancelled.entries)
    # writing a zero through the accessor removes the entry
    if rows:
        i, j = rng.randrange(rows), rng.randrange(cols)
        A[i, j] = F.one
        assert A.entries[i][j] == F.one
        A[i, j] = F.zero
        assert j not in A.entries[i] and A[i, j] == F.zero
    with pytest.raises(IndexError):
        A[rows, 0] = F.one
    with pytest.raises(IndexError):
        A[0, cols] = F.one
    # JSON round trip: every entry written row-major, zeros included
    data = matrix_to_json(B)
    assert data["entries"] == [scalar_to_json(x) for row in b for x in row]
    back = matrix_from_json(F, data)
    assert back == B and _stores_no_zero(back)

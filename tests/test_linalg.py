import random

import pytest
from hypothesis import given, settings, strategies as st

from tiltlab.cyclotomic import CycloField
from tiltlab.linalg import ExactMatrix, RowEchelon, SparseSystem


def random_matrix(field, rng, rows, cols, spread=2, density=1.0):
    m = ExactMatrix(field, rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                m.data[i][j] = field.from_coeffs(
                    [rng.randint(-spread, spread) for _ in range(field.phi)]
                )
    return m


# -- reference implementations: dense Gauss-Jordan elimination, kept apart
#    from the library's sparse reduced-echelon eliminator


def dense_rref(A):
    """Reduced row echelon form of a dense matrix: (nonzero rows, pivot columns)."""
    m = [list(row) for row in A.data]
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
    return ExactMatrix.from_columns(F, cols, A.cols)


def dense_solve(A, B):
    """X with A @ X = B and free unknowns zero, or None if inconsistent."""
    m, pivots = dense_rref(A.hstack(B))
    if any(pc >= A.cols for pc in pivots):
        return None
    X = ExactMatrix(A.field, A.cols, B.cols)
    for r_i, pc in enumerate(pivots):
        X.data[pc] = m[r_i][A.cols :]
    return X


def dense_determinant(A):
    """Determinant by forward elimination with row swaps."""
    F = A.field
    m = [list(row) for row in A.data]
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
    b = ExactMatrix.from_rational_rows(F, [[1, 2], [3, 4]])
    k = a.kron(b)
    assert k.shape == (4, 4)
    assert k.data[2][2] == F.scalar(1) and k.data[3][3] == F.scalar(4)
    d = ExactMatrix.block_diagonal(F, [b, b])
    assert d.shape == (4, 4) and d.data[0][2].is_zero()


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
        sys.add_row({j: A.data[i][j] for j in range(8)})
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
    rhs = [sum((A.data[i][j] * x[j] for j in range(4)), F.zero) for i in range(4)]
    sys = SparseSystem(F, 4)
    for i in range(4):
        sys.add_row({j: A.data[i][j] for j in range(4)}, rhs[i])
    sol = sys.particular_solution()
    assert sol is not None
    for i in range(4):
        acc = F.zero
        for j in range(4):
            acc = acc + A.data[i][j] * sol[j]
        assert acc == rhs[i]


def test_sparse_system_inconsistent():
    F = CycloField(3)
    sys = SparseSystem(F, 2)
    sys.add_row({0: F.one}, F.one)
    sys.add_row({0: F.one}, F.scalar(2))
    assert sys.particular_solution() is None


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
            sys.add_row(dict(enumerate(A.data[i])), B.data[i][0])
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
        U.data[i][i] = F.zeta_power(rng.randint(0, ell - 1))
        U.data[i][:i] = [F.zero] * i
    perm = list(range(n))
    rng.shuffle(perm)
    A = ExactMatrix(F, n, n, [U.data[i] for i in perm])
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
        row = {j: v for j, v in enumerate(A.data[i]) if not v.is_zero()}
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

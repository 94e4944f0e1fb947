import random

import pytest
from hypothesis import given, settings, strategies as st

from tiltlab.cyclotomic import CycloField
from tiltlab.linalg import ExactMatrix, SparseSystem


def random_matrix(field, rng, rows, cols, spread=2):
    m = ExactMatrix(field, rows, cols)
    for i in range(rows):
        for j in range(cols):
            m.data[i][j] = field.from_coeffs(
                [rng.randint(-spread, spread) for _ in range(field.phi)]
            )
    return m


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
    assert len(basis) == A.kernel().cols
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

import random

import pytest

from tiltlab.characters import Character
from tiltlab.complexes import (
    ChainComplex,
    labeled_direct_sum,
    minimalize,
    tensor_complexes,
    total_complex,
)
from tiltlab.cyclotomic import CycloField
from tiltlab.linalg import ExactMatrix
from tiltlab.modules import UModule, UMorphism, find_isomorphism, hom_space
from tiltlab.standard import Part, simple_module, tilting_module, weyl_module

from oracles import complex_direct_sum, cone, is_intertwiner, is_minimal, is_surjective

F = CycloField(3)


def _single_part(M, label):
    return [Part(label, M, UMorphism.identity(M), UMorphism.identity(M))]


def _t3_to_t1():
    T3, T1 = tilting_module(F, 3), tilting_module(F, 1)
    (h,) = hom_space(T3, T1)
    assert is_surjective(h)
    return ChainComplex(
        F,
        {0: T3, 1: T1},
        {0: h},
        {0: _single_part(T3, ("T", 3)), 1: _single_part(T1, ("T", 1))},
    )


def test_single_module_cohomology():
    M = weyl_module(F, 2)
    X = ChainComplex.single(M, 0)
    coh = X.cohomology()
    assert set(coh) == {0} and coh[0].dim == M.dim


def test_kernel_cohomology_is_delta():
    X = _t3_to_t1()
    X.check()
    coh = X.cohomology()
    assert set(coh) == {0}
    assert find_isomorphism(coh[0], weyl_module(F, 3)) is not None


def test_contractible_complex():
    M = weyl_module(F, 2)
    X = ChainComplex(F, {0: M, 1: M}, {0: UMorphism.identity(M)})
    assert X.cohomology() == {}
    res = minimalize(X)
    assert res.complex.is_zero()


def test_minimalize_idempotent_on_minimal():
    X = _t3_to_t1()
    res = minimalize(X)
    assert res.complex.tilting_label_table() == {0: [3], 1: [1]}
    assert is_minimal(res.complex)


def _assert_chain_map_and_quasi_isomorphism(res, X):
    """res.chain_map is a chain map C_min -> X of U-modules that induces an
    isomorphism on every H^i, by ranks: the image of ker d_min^i in H^i(X),
    of dimension rank [f^i ker d_min^i | im d_X^(i-1)] - rank d_X^(i-1), is
    dim H^i(C_min) = dim H^i(X)."""
    C, f = res.complex, res.chain_map
    assert sorted(f) == X.degrees()
    assert C.cohomology_dimensions() == X.cohomology_dimensions()
    for i in X.degrees():
        assert is_intertwiner(UMorphism(C.term(i), X.terms[i], f[i]))
        if i + 1 in f:
            assert X.differential(i).matrix @ f[i] == f[i + 1] @ C.differential(i).matrix
        incoming = X.differential(i - 1).matrix
        columns = (f[i] @ C.differential(i).matrix.kernel()).transpose().entries
        stacked = ExactMatrix(F, len(columns) + incoming.cols, X.terms[i].dim,
                              columns + incoming.transpose().entries)
        assert stacked.rank() - incoming.rank() == C.cohomology_dimensions().get(i, 0)


def test_minimalize_witnesses_are_chain_maps():
    # pad a minimal complex with a contractible summand and minimalize
    X = _t3_to_t1()
    M = tilting_module(F, 2)
    pad = ChainComplex(
        F,
        {0: M, 1: M},
        {0: UMorphism.identity(M)},
        {0: _single_part(M, ("T", 2)), 1: _single_part(M, ("T", 2))},
    )
    big = complex_direct_sum(X, pad)
    res = minimalize(big)
    assert res.complex.tilting_label_table() == {0: [3], 1: [1]}
    _assert_chain_map_and_quasi_isomorphism(res, big)
    # minimalization is a homotopy equivalence: cohomology is kept degreewise
    before = big.cohomology()
    after = res.complex.cohomology()
    assert set(before) == set(after) == {0}
    for i in before:
        assert find_isomorphism(after[i], before[i]) is not None
    # d = [[h, 1], [0, 1]] on T(3) + T(1) -> T(1) + T(1): cancelling the
    # identity block from the second T(1) to the first moves the map on T(3)
    # by -h, since h is the block from T(3) to that first T(1)
    T3, T1 = tilting_module(F, 3), tilting_module(F, 1)
    (h,) = hom_space(T3, T1)
    S0, p0 = labeled_direct_sum(F, [(("T", 3), T3), (("T", 1), T1)])
    S1, p1 = labeled_direct_sum(F, [(("T", 1), T1), (("T", 1), T1)])
    d = (p1[0].inclusion.matrix @ (h.matrix @ p0[0].projection.matrix + p0[1].projection.matrix)
         + p1[1].inclusion.matrix @ p0[1].projection.matrix)
    twisted = ChainComplex(F, {0: S0, 1: S1}, {0: UMorphism(S0, S1, d)}, {0: p0, 1: p1})
    res = minimalize(twisted)
    assert res.complex.tilting_label_table() == {0: [3], 1: [1]}
    assert res.chain_map[0] == p0[0].inclusion.matrix - p0[1].inclusion.matrix @ h.matrix
    _assert_chain_map_and_quasi_isomorphism(res, twisted)
    after = res.complex.cohomology()
    assert set(after) == {0} and find_isomorphism(after[0], twisted.cohomology()[0]) is not None


def test_minimalize_preserves_cohomology_on_random_cones():
    rng = random.Random(5)
    for _ in range(4):
        a, b = rng.randint(0, 5), rng.randint(0, 5)
        Ta, Tb = tilting_module(F, a), tilting_module(F, b)
        homs = hom_space(Ta, Tb)
        if not homs:
            continue
        f = homs[rng.randrange(len(homs))]
        X = cone(f)
        X.check()
        before = {i: (h.dim, h.character) for i, h in X.cohomology().items()}
        res = minimalize(X)
        _assert_chain_map_and_quasi_isomorphism(res, X)
        after = {i: (h.dim, h.character) for i, h in res.complex.cohomology().items()}
        assert before == after


def test_euler_character_invariance():
    X = _t3_to_t1()
    M = tilting_module(F, 2)
    pad = ChainComplex(
        F,
        {1: M, 2: M},
        {1: UMorphism.identity(M)},
        {1: _single_part(M, ("T", 2)), 2: _single_part(M, ("T", 2))},
    )
    big = complex_direct_sum(X, pad)
    res = minimalize(big)
    assert big.euler_character() == res.complex.euler_character()


def test_uniqueness_after_padding():
    # two independently padded complexes minimalize to the same label table
    X = _t3_to_t1()
    for k in (0, 2, 4):
        M = tilting_module(F, k)
        pad = ChainComplex(
            F,
            {0: M, 1: M},
            {0: UMorphism.identity(M)},
            {0: _single_part(M, ("T", k)), 1: _single_part(M, ("T", k))},
        )
        res = minimalize(complex_direct_sum(X, pad))
        assert res.complex.tilting_label_table() == {0: [3], 1: [1]}


def test_tensor_complexes_sign_and_kunneth():
    X = _t3_to_t1()
    XX = tensor_complexes(X, X)
    XX.check()  # d^2 = 0 with the sign
    coh = XX.cohomology()
    assert set(coh) == {0}
    assert coh[0].dim == 16
    D3 = weyl_module(F, 3)
    from tiltlab.modules import tensor_module

    target = tensor_module(D3, D3)
    assert coh[0].character == target.character


def test_tensor_with_single_trivial():
    X = _t3_to_t1()
    one = ChainComplex.single(UModule.trivial(F), 0)
    XY = tensor_complexes(X, one)
    XY.check()
    coh = XY.cohomology()
    assert set(coh) == {0} and coh[0].dim == 4


def test_tensor_random_pairs_d_squared():
    rng = random.Random(9)
    for _ in range(3):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        Ta, Tb = tilting_module(F, a), tilting_module(F, b)
        homs = hom_space(Ta, Tb)
        if not homs:
            continue
        X = cone(homs[0])
        Y = cone(homs[-1])
        tensor_complexes(X, Y).check()


def test_total_complex_row():
    M = weyl_module(F, 2)
    grid = {(0, 0): M, (0, 1): M}
    tot = total_complex(F, grid, {((0, 0), (0, 1)): ExactMatrix.identity(F, M.dim)})
    assert tot.cohomology() == {}


def _square(vertical_at_top):
    """The grid of a square of identities on Delta(1); the horizontal map of
    column 1 carries the sign (-1)^s of the totalization."""
    M = weyl_module(F, 1)
    I = ExactMatrix.identity(F, M.dim)
    grid = {(0, 0): M, (0, 1): M, (1, 0): M, (1, 1): M}
    components = {
        ((0, 0), (0, 1)): I,
        ((1, 0), (1, 1)): -I,
        ((0, 0), (1, 0)): I,
        ((0, 1), (1, 1)): vertical_at_top,
    }
    return grid, components


def test_total_complex_contractible_square():
    grid, components = _square(ExactMatrix.identity(F, 2))
    tot = total_complex(F, grid, components)
    assert tot.cohomology() == {}


def test_total_complex_noncommuting_square_raises():
    grid, components = _square(-ExactMatrix.identity(F, 2))
    with pytest.raises(ValueError, match=r"grid position \(0, 0\)"):
        total_complex(F, grid, components)


def test_total_complex_rejects_malformed_components():
    grid, components = _square(ExactMatrix.identity(F, 2))
    components[((0, 1), (1, 0))] = ExactMatrix.identity(F, 2)
    with pytest.raises(ValueError, match="raise the degree"):
        total_complex(F, grid, components)
    grid, components = _square(ExactMatrix.identity(F, 2))
    components[((0, 0), (0, 1))] = ExactMatrix.identity(F, 3)
    with pytest.raises(ValueError, match="shape"):
        total_complex(F, grid, components)


def test_labeled_direct_sum_witnesses():
    A, B = tilting_module(F, 1), tilting_module(F, 3)
    S, parts = labeled_direct_sum(F, [(("T", 1), A), (("T", 3), B)])
    assert S.dim == A.dim + B.dim
    for p in parts:
        e = p.inclusion.matrix @ p.projection.matrix
        assert (e @ e) == e

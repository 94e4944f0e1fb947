import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tiltlab.cyclotomic import CycloField, MismatchedFieldError
from tiltlab.linalg import ExactMatrix
from tiltlab.modules import (
    UModule,
    UMorphism,
    check_relations,
    direct_sum,
    dual_module,
    find_isomorphism,
    frobenius_twist,
    hom_space,
    image_module,
    kernel_module,
    quotient_module,
    submodule_generated,
    tensor_module,
)
from tiltlab.serialize import module_from_json, module_text
from tiltlab.standard import dual_weyl_module, simple_module, tilting_module, weyl_module

from oracles import (
    binomial_k_operator_value,
    eliminating_quotient,
    eliminating_submodule,
    from_dense,
    is_intertwiner,
    kron_tensor_module,
    module_to_json,
    rational_value,
)

F3 = CycloField(3)
F5 = CycloField(5)


def test_relations_on_weyl_modules():
    for ell, F in ((3, F3), (5, F5)):
        for n in range(0, 2 * ell + 2):
            rep = check_relations(weyl_module(F, n))
            assert rep.ok, (ell, n, rep.failures)


def test_relations_trivial_and_zero():
    assert check_relations(UModule.trivial(F3)).ok
    assert check_relations(UModule.zero_module(F3)).ok


def test_corrupted_module_fails_with_named_relation():
    M = weyl_module(F3, 4)
    bad = UModule(F3, M.weights, M.E, M.F, ExactMatrix.zero(F3, 5, 5), M.Fl)
    rep = check_relations(bad)
    assert not rep.ok
    name, witness = rep.failures[0]
    assert "E^(l)" in name
    assert isinstance(witness, int)


def test_tensor_passes_relations_and_characters():
    M = weyl_module(F3, 3)
    N = weyl_module(F3, 1)
    T = tensor_module(M, N)
    assert check_relations(T).ok
    assert T.character == M.character * N.character
    T.assert_weight_graded()


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_tensor_module_matches_kron_oracle(ell):
    F = CycloField(ell)
    factors = [weyl_module(F, 2), simple_module(F, ell + 1), tilting_module(F, ell),
               dual_weyl_module(F, 3), frobenius_twist(F, 1)]
    for M in factors:
        for N in factors:
            got, want = tensor_module(M, N), kron_tensor_module(M, N)
            assert got.weights == want.weights
            for name in ("E", "F", "El", "Fl"):
                assert getattr(got, name) == getattr(want, name), (ell, M.weights, N.weights, name)


@pytest.mark.parametrize("ell", [3, 5])
def test_tensor_module_reuses_divided_powers_of_its_factors(ell):
    # fresh factors, so the first tensor_module fills their divided powers
    # and the second reads them back
    F = CycloField(ell)
    M = tensor_module(weyl_module(F, 2), UModule.trivial(F))
    N = direct_sum(simple_module(F, ell + 1), frobenius_twist(F, 1))
    assert M._powers is None and N._powers is None
    want = kron_tensor_module(M, N)
    for _ in range(2):
        got = tensor_module(M, N)
        assert got.weights == want.weights
        for name in ("E", "F", "El", "Fl"):
            assert getattr(got, name) == getattr(want, name), (ell, name)
        assert sorted(M._powers) == sorted(N._powers) == ["E", "F"]


def test_tensor_with_trivial_is_isomorphic():
    M = weyl_module(F3, 3)
    T = tensor_module(M, UModule.trivial(F3))
    iso = find_isomorphism(T, M)
    assert iso is not None and is_intertwiner(iso)


def test_tensor_character_example():
    ch = tensor_module(weyl_module(F3, 1), weyl_module(F3, 1)).character
    from tiltlab.characters import decompose_into_weyl

    assert decompose_into_weyl(ch) == {2: 1, 0: 1}


def test_tensor_mismatched_ell():
    with pytest.raises(MismatchedFieldError):
        tensor_module(weyl_module(F3, 1), weyl_module(F5, 1))


def test_dual_module_properties():
    M = weyl_module(F3, 3)
    D = dual_module(M)
    assert check_relations(D).ok
    assert D.character == M.character.reflect()
    assert find_isomorphism(dual_module(D), M) is not None
    # dual(trivial) = trivial
    assert find_isomorphism(dual_module(UModule.trivial(F3)), UModule.trivial(F3)) is not None


def test_dual_weyl_is_nabla():
    iso = find_isomorphism(dual_module(weyl_module(F3, 3)), dual_weyl_module(F3, 3))
    assert iso is not None


def test_retract_of_triple_tensor():
    # M is a split summand of M (x) M* (x) M
    D1 = weyl_module(F5, 1)
    X = tensor_module(tensor_module(D1, dual_module(D1)), D1)
    found = False
    for f in hom_space(D1, X):
        for g in hom_space(X, D1):
            if not (g.matrix @ f.matrix).determinant().is_zero():
                found = True
    assert found


def test_frobenius_twist():
    tw0 = frobenius_twist(F3, 0)
    assert tw0.dim == 1 and find_isomorphism(tw0, UModule.trivial(F3)) is not None
    tw1 = frobenius_twist(F3, 1)
    assert check_relations(tw1).ok
    assert tw1.weights == (3, -3)
    assert find_isomorphism(simple_module(F3, 3), tw1) is not None
    # L(4) = L(1) (x) twist(1)
    cand = tensor_module(simple_module(F3, 1), tw1)
    assert find_isomorphism(simple_module(F3, 4), cand) is not None
    with pytest.raises(ValueError):
        frobenius_twist(F3, -1)


def test_submodule_generated_by_highest_weight_vector():
    D = weyl_module(F3, 4)
    vec = [F3.zero] * 5
    vec[0] = F3.one
    S, incl = submodule_generated(D, [vec])
    assert S.dim == 5  # Weyl modules are highest-weight generated
    assert is_intertwiner(incl)


def test_submodule_weight1_vector_of_delta3():
    # the unique 2-dimensional submodule of Delta(3) at ell=3 is generated by
    # the weight-1 basis vector (the lowest weight vector generates everything,
    # because E^(l) m_3 = m_0 under the divided-power action)
    D = weyl_module(F3, 3)
    vec = [F3.zero] * 4
    vec[1] = F3.one
    S, _ = submodule_generated(D, [vec])
    assert S.dim == 2
    assert find_isomorphism(S, simple_module(F3, 1)) is not None
    low = [F3.zero] * 4
    low[3] = F3.one
    S2, _ = submodule_generated(D, [low])
    assert S2.dim == 4


def test_delta3_unique_proper_submodule():
    D = weyl_module(F3, 3)
    dims = set()
    for i in range(4):
        vec = [F3.zero] * 4
        vec[i] = F3.one
        S, _ = submodule_generated(D, [vec])
        if 0 < S.dim < 4:
            dims.add(S.dim)
    assert dims == {2}


def test_delta2_simple_at_ell5():
    D = weyl_module(F5, 2)
    for i in range(3):
        vec = [F5.zero] * 3
        vec[i] = F5.one
        S, _ = submodule_generated(D, [vec])
        assert S.dim == 3


def test_submodule_zero_vector():
    D = weyl_module(F3, 2)
    S, _ = submodule_generated(D, [[F3.zero] * 3])
    assert S.dim == 0


def test_quotient_module():
    D = weyl_module(F3, 3)
    vec = [F3.zero] * 4
    vec[1] = F3.one
    S, incl = submodule_generated(D, [vec])
    Q, proj = quotient_module(D, incl)
    assert Q.dim == 2
    assert (proj.matrix @ incl.matrix).is_zero()
    assert check_relations(Q).ok
    assert find_isomorphism(Q, simple_module(F3, 3)) is not None
    # quotient by everything is zero; quotient by zero is the module
    Sfull, ifull = submodule_generated(D, [[F3.one if i == j else F3.zero for i in range(4)] for j in range(4)])
    Qz, _ = quotient_module(D, ifull)
    assert Qz.dim == 0
    Szero, izero = submodule_generated(D, [[F3.zero] * 4])
    Qfull, _ = quotient_module(D, izero)
    assert Qfull.dim == 4


def test_quotient_by_a_non_injective_map_is_the_quotient_by_its_image():
    for field, n in ((F3, 3), (F5, 7)):
        (h,) = hom_space(weyl_module(field, n), dual_weyl_module(field, n))
        assert h.matrix.rank() < h.source.dim
        _, incl = image_module(h)
        Q, proj = quotient_module(h.target, h)
        Qi, proji = quotient_module(h.target, incl)
        assert module_text(Q) == module_text(Qi)
        assert proj.matrix == proji.matrix
        assert (proj.matrix @ h.matrix).is_zero()


def test_kernel_and_image_of_morphism():
    D = weyl_module(F3, 3)
    N = dual_weyl_module(F3, 3)
    (h,) = hom_space(D, N)
    img, _ = image_module(h)
    ker, _ = kernel_module(h)
    assert img.dim + ker.dim == D.dim
    assert img.dim == 2  # the simple head L(3)


def test_hom_space_examples():
    assert len(hom_space(weyl_module(F5, 2), weyl_module(F5, 2))) == 1
    assert len(hom_space(weyl_module(F3, 3), dual_weyl_module(F3, 3))) == 1
    assert len(hom_space(weyl_module(F5, 1), weyl_module(F5, 2))) == 0
    for h in hom_space(weyl_module(F3, 3), dual_weyl_module(F3, 3)):
        assert is_intertwiner(h)


def test_direct_sum_characters():
    M, N = weyl_module(F3, 2), simple_module(F3, 3)
    S = direct_sum(M, N)
    assert S.character == M.character + N.character
    assert check_relations(S).ok


def infer_weights(field: CycloField, K, E, F, El, Fl):
    """Recover the integer weight of each basis vector from the matrices alone.

    Works for weight-homogeneous bases: the residue mod ell comes from K and
    the classical part from the torus binomial of depth ell, expressed through
    the stored generators.  Serves as an independent cross-check of the
    weights carried by constructors.
    """
    ell = field.ell
    dim = K.rows
    # residues from the diagonal of K
    residues = []
    for i in range(dim):
        entry = K[i, i]
        r = next((k for k in range(ell) if field.zeta_power(k) == entry), None)
        if r is None:
            raise ValueError(f"K[{i},{i}] is not a power of zeta")
        residues.append(r)
    # depth-ell torus binomial through the commutator of the divided powers
    comm = (El @ Fl) - (Fl @ El)
    fact_cache = {}

    def dp(g, a):
        key = (id(g), a)
        if key not in fact_cache:
            fact_cache[key] = g.power(a).scale(field.quantum_factorial(a).inverse())
        return fact_cache[key]

    correction = ExactMatrix(field, dim, dim)
    for t in range(1, ell):
        # middle factor is a Laurent polynomial in K, valued via residues
        mid = ExactMatrix(field, dim, dim)
        for i in range(dim):
            mid[i, i] = binomial_k_operator_value(field, residues[i], 2 * t - 2 * ell, t)
        term = dp(F, ell - t) @ mid @ dp(E, ell - t)
        correction = correction + term
    h_mat = comm - correction
    weights = []
    for i in range(dim):
        val = rational_value(h_mat[i, i])
        if val is None or val.denominator != 1:
            raise ValueError("torus operator is not integer-diagonal; basis not homogeneous")
        weights.append(residues[i] + ell * int(val))
    # in a homogeneous basis the operator must be diagonal
    for i in range(dim):
        for j in range(dim):
            if i != j and not h_mat[i, j].is_zero():
                # off-diagonal entries may only connect equal weights
                if weights[i] != weights[j]:
                    raise ValueError("torus operator mixes distinct weights")
    return tuple(weights)


def test_infer_weights_cross_check():
    for M in (weyl_module(F3, 4), tensor_module(weyl_module(F3, 3), weyl_module(F3, 1)),
              frobenius_twist(F3, 2), dual_module(weyl_module(F5, 3))):
        got = infer_weights(M.field, M.K, M.E, M.F, M.El, M.Fl)
        assert got == M.weights


def test_serialization_round_trip():
    M = tensor_module(weyl_module(F3, 2), simple_module(F3, 3))
    back = module_from_json(module_to_json(M))
    assert back.weights == M.weights
    assert back.K == M.K and back.E == M.E and back.F == M.F
    assert back.El == M.El and back.Fl == M.Fl
    assert back.fingerprint() == M.fingerprint()


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
def test_character_multiplicativity_random(n1, n2):
    M, N = weyl_module(F3, n1), simple_module(F3, n2)
    assert tensor_module(M, N).character == M.character * N.character


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=5))
def test_weight_space_dimensions_sum(n):
    M = weyl_module(F3, n)
    assert sum(len(v) for v in M.weight_blocks().values()) == M.dim


def test_morphism_shape_validation():
    M, N = weyl_module(F3, 1), weyl_module(F3, 2)
    with pytest.raises(ValueError):
        UMorphism(M, N, ExactMatrix.zero(F3, 1, 1))


def test_quotient_by_unstable_subspace_raises():
    # the line through the highest weight vector of Delta(3) is not F-stable
    D = weyl_module(F3, 3)
    line = ExactMatrix(F3, 4, 1)
    line[0, 0] = F3.one
    S_line = UModule(F3, (3,), *(ExactMatrix.zero(F3, 1, 1) for _ in range(4)))
    with pytest.raises(ValueError, match="stable"):
        quotient_module(D, UMorphism(S_line, D, line))


def test_close_false_refuses_a_line_sent_into_a_weight_space_that_is_not_full():
    # the top weight space of Delta(3) is one line, so it is full, but F
    # sends the line into the weight-1 space, which it does not reach
    D = weyl_module(F3, 3)
    with pytest.raises(ValueError, match="not stable"):
        submodule_generated(D, [{0: F3.one}], close=False)


def test_quotient_by_an_onto_map_is_zero():
    for M in (weyl_module(F3, 3), tensor_module(tilting_module(F3, 2), simple_module(F3, 2))):
        _, everything = submodule_generated(M, [{i: F3.one} for i in range(M.dim)])
        for phi in (UMorphism.identity(M), everything):
            Q, proj = quotient_module(M, phi)
            assert Q.dim == 0
            assert module_text(Q) == module_text(UModule.zero_module(F3))
            assert proj.matrix.shape == (0, M.dim)
            assert (proj.matrix @ phi.matrix).is_zero()


def _assert_same_submodule(M, got, want):
    """A whole submodule is M itself with the identity inclusion; any other
    has the bytes and the inclusion that elimination finds."""
    (S, incl), (S0, incl0) = got, want
    if S0.dim == M.dim:
        assert S is M
        assert incl.source is M and incl.target is M
        assert incl.matrix == ExactMatrix.identity(M.field, M.dim)
    else:
        assert module_text(S) == module_text(S0)
        assert incl.matrix == incl0.matrix


def _assert_same_quotient(M, phi):
    Q, proj = quotient_module(M, phi)
    Q0, proj0 = eliminating_quotient(M, phi)
    assert module_text(Q) == module_text(Q0)
    assert proj.matrix == proj0.matrix
    return Q.dim


def _seeded_vectors(field, dim, rng, sizes):
    for size in sizes:
        idx = rng.sample(range(dim), min(size, dim))
        yield {i: field.scalar(rng.choice((-2, -1, 1, 2))) for i in idx}


def test_submodules_and_quotients_match_elimination_into_every_weight_space():
    rng = random.Random(27)
    builders = (weyl_module, simple_module, tilting_module)
    kinds = {"whole": 0, "proper": 0, "zero": 0}
    cases = [
        (F3, [(b, n) for b in builders for n in (1, 2)], (0, 1, 2, 3)),
        (F5, [(weyl_module, 3), (simple_module, 6), (tilting_module, 5), (tilting_module, 7)], (1, 2, 3)),
    ]
    for field, factors, sizes in cases:
        for (b1, n1), (b2, n2) in itertools.product(factors, repeat=2):
            B = tensor_module(b1(field, n1), b2(field, n2))
            for vec in _seeded_vectors(field, B.dim, rng, sizes):
                got = submodule_generated(B, [vec])
                _assert_same_submodule(B, got, eliminating_submodule(B, [vec]))
                A, incl = got
                _assert_same_quotient(B, incl)
                kinds["zero" if A.dim == 0 else "whole" if A.dim == B.dim else "proper"] += 1
    assert all(kinds.values()), kinds


def test_kernels_and_images_of_hom_maps_match_elimination():
    pairs = [
        (F3, weyl_module(F3, 3), dual_weyl_module(F3, 3)),
        (F3, tilting_module(F3, 4), tilting_module(F3, 4)),
        (F3, weyl_module(F3, 4), tilting_module(F3, 4)),
        (F5, weyl_module(F5, 7), dual_weyl_module(F5, 7)),
        (F5, tilting_module(F5, 6), tilting_module(F5, 6)),
    ]
    for field, M, N in pairs:
        homs = hom_space(M, N)
        assert homs
        for h in homs:
            kernel_vectors = h.matrix.kernel().transpose().entries
            _assert_same_submodule(M, kernel_module(h),
                                   eliminating_submodule(M, kernel_vectors, close=False))
            _assert_same_submodule(N, image_module(h),
                                   eliminating_submodule(N, h.matrix.transpose().entries, close=False))
            _assert_same_quotient(N, h)


def test_submodule_vector_length_validated():
    D = weyl_module(F3, 2)
    with pytest.raises(ValueError, match="lie in"):
        submodule_generated(D, [[F3.one]])


def quantum_integer_and_binomial(field, n, k):
    """([n], [n choose k]) at zeta, for 0 <= k <= n."""
    return field.quantum_integer(n), field.quantum_binomial(n, k)


def test_quantum_integer_and_binomial_pair():
    qi, qb = quantum_integer_and_binomial(F3, 4, 1)
    assert qi == qb == F3.quantum_integer(4)


def _dense_hom_dimension(M, N):
    # intertwiner equations on the full flattened matrix, no weight blocking
    field = M.field
    nm = N.dim * M.dim
    rows = []
    for name in ("K", "E", "F", "El", "Fl"):
        gM = getattr(M, name)
        gN = getattr(N, name)
        for r in range(N.dim):
            for c in range(M.dim):
                row = [field.zero] * nm
                for k in range(M.dim):
                    row[r * M.dim + k] = row[r * M.dim + k] + gM[k, c]
                for k in range(N.dim):
                    row[k * M.dim + c] = row[k * M.dim + c] - gN[r, k]
                rows.append(row)
    A = from_dense(field, rows)
    return A.kernel().cols


def test_hom_space_matches_dense_bruteforce():
    from tiltlab.standard import tilting_module

    pairs = [
        (weyl_module(F3, 3), dual_weyl_module(F3, 3)),
        (tilting_module(F3, 3), tilting_module(F3, 3)),
        (weyl_module(F5, 1), weyl_module(F5, 2)),
        (simple_module(F3, 3), tilting_module(F3, 3)),
    ]
    for M, N in pairs:
        assert len(hom_space(M, N)) == _dense_hom_dimension(M, N)


@pytest.mark.parametrize("field, top", [(F3, 8), (F5, 6)])
def test_hom_dimension_between_tiltings(field, top):
    # dim Hom(T(a), T(b)) = sum_c (T(a):Delta(c)) (T(b):Nabla(c)); the
    # multiplicities come from characters, since ch Delta(c) = ch Nabla(c).
    # The certified cache holds exactly the hom_space basis, predicted-zero
    # pairs included.
    from tiltlab.characters import decompose_into_weyl
    from tiltlab.standard import tilting_hom_basis, tilting_module

    mult = {a: decompose_into_weyl(tilting_module(field, a).character) for a in range(top + 1)}
    for a in range(top + 1):
        for b in range(top + 1):
            expected = sum(m * mult[b].get(c, 0) for c, m in mult[a].items())
            basis = hom_space(tilting_module(field, a), tilting_module(field, b))
            assert len(basis) == expected, (a, b)
            cached = tilting_hom_basis(field, a, b)
            assert [h.matrix for h in cached] == [h.matrix for h in basis], (a, b)


def test_tilting_hom_cache_certifies_its_dimension(monkeypatch):
    import tiltlab.standard
    from tiltlab.cyclotomic import CertificationError
    from tiltlab.standard import tilting_hom_basis

    def refuse(M, N):
        raise AssertionError("a pair predicted zero was solved")

    monkeypatch.setattr(tiltlab.standard, "_tilting_hom_cache", {})
    monkeypatch.setattr(tiltlab.standard, "hom_space", refuse)
    # T(3) and T(2) lie in different blocks at ell 3
    assert tilting_hom_basis(F3, 3, 2) == []
    monkeypatch.setattr(tiltlab.standard, "hom_space", lambda M, N: hom_space(M, N)[1:])
    with pytest.raises(CertificationError, match=r"Hom\(T\(3\), X\) has dimension 1, not 2"):
        tilting_hom_basis(F3, 3, 3)

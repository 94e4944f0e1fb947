import random
from collections import Counter

import pytest

from tiltlab.characters import Character, weyl_character
from tiltlab.cyclotomic import CertificationError, CycloField
from tiltlab.modules import (
    check_relations,
    direct_sum,
    dual_module,
    find_isomorphism,
    hom_space,
    submodule_generated,
    tensor_module,
)
from tiltlab.serialize import module_text
from tiltlab.standard import (
    composition_multiplicities,
    decompose_indecomposables,
    decompose_tilting_character,
    dual_primitive_counts,
    dual_weyl_module,
    has_delta_flag,
    has_nabla_flag,
    peel_standard_filtration,
    primitive_counts,
    simple_character,
    simple_module,
    split_if_tilting,
    tilting_character,
    tilting_module,
    tilting_socle,
    weyl_module,
)
from tiltlab.suites import sample_ses

from oracles import (
    eliminating_submodule,
    end_algebra,
    is_local_end,
    peeled_tilting_module,
    radical_dimension,
)

F3 = CycloField(3)
F5 = CycloField(5)


def steinberg_dimension(field, n):
    """dim L(a*ell+b) = (a+1)(b+1): independent cross-check oracle."""
    a, b = divmod(n, field.ell)
    return (a + 1) * (b + 1)


def is_tilting(M):
    """Oracle for the flag counts and split_if_tilting: M is tilting iff it has
    a Delta- and a Nabla-flag, found by peeling."""
    return (
        peel_standard_filtration(M, "delta") is not None
        and peel_standard_filtration(M, "nabla") is not None
    )


def test_weyl_dims():
    for n in range(11):
        assert weyl_module(F3, n).dim == n + 1
    with pytest.raises(ValueError):
        weyl_module(F3, -1)


def test_simple_dims_steinberg_oracle():
    for ell, F in ((3, F3), (5, F5)):
        for n in range(0, 3 * ell):
            L = simple_module(F, n)
            assert L.dim == steinberg_dimension(F, n), (ell, n)
    assert simple_module(F3, 3).dim == 2
    assert simple_module(F3, 4).dim == 4


def test_simple_equals_weyl_below_first_wall():
    for n in range(0, 4):  # n < ell - 1 region and the wall itself
        iso = find_isomorphism(simple_module(F5, n), weyl_module(F5, n))
        assert iso is not None, n


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_simple_nabla_keeps_the_bytes_of_its_generated_submodule(ell):
    """Where Nabla(n) is simple (n < ell, or n = -1 mod ell), the weight-n
    vector generates all of it: submodule_generated returns Nabla(n) itself,
    and L(n) keeps the weight-descending basis that elimination gives."""
    F = CycloField(ell)
    simple = [n for n in range(3 * ell + 1) if n < ell or n % ell == ell - 1]
    for n in simple:
        nabla = dual_weyl_module(F, n)
        (top,) = nabla.weight_blocks()[n]
        assert submodule_generated(nabla, [{top: F.one}])[0] is nabla
        S0, _ = eliminating_submodule(nabla, [{top: F.one}])
        assert S0.dim == nabla.dim
        assert module_text(simple_module(F, n)) == module_text(S0), n
    # every other Nabla(n) in the range has a proper socle
    for n in set(range(3 * ell + 1)) - set(simple):
        assert simple_module(F, n).dim < n + 1, n


def test_tilting_small_and_characters():
    for n in range(0, 5):
        assert find_isomorphism(tilting_module(F5, n), weyl_module(F5, n)) is not None
    T3 = tilting_module(F3, 3)
    assert T3.dim == 6
    assert T3.character == weyl_character(3) + weyl_character(1)
    T4 = tilting_module(F3, 4)
    assert T4.dim == 6
    assert T4.character == weyl_character(4) + weyl_character(0)


def label_multiset(parts):
    return dict(Counter(p.label for p in parts))


def test_decompose_examples():
    assert label_multiset(decompose_indecomposables(tilting_module(F3, 2))) == {("T", 2): 1}
    parts2 = decompose_indecomposables(
        tensor_module(tilting_module(F3, 1), tilting_module(F3, 1))
    )
    assert label_multiset(parts2) == {("T", 2): 1, ("T", 0): 1}
    parts3 = decompose_indecomposables(
        tensor_module(tilting_module(F3, 3), tilting_module(F3, 1))
    )
    assert label_multiset(parts3) == {("T", 4): 1, ("T", 2): 2}


def test_decomposition_witnesses_are_orthogonal_idempotents():
    M = tensor_module(tilting_module(F3, 3), tilting_module(F3, 1))
    parts = decompose_indecomposables(M)
    from tiltlab.linalg import ExactMatrix

    total = ExactMatrix.zero(F3, M.dim, M.dim)
    for p in parts:
        e = p.inclusion.matrix @ p.projection.matrix
        assert (e @ e) == e
        total = total + e
        for q in parts:
            if q is not p:
                comp = p.projection.matrix @ q.inclusion.matrix
                assert comp.is_zero()
    assert total == ExactMatrix.identity(F3, M.dim)
    assert sum(p.module.dim for p in parts) == M.dim


@pytest.mark.parametrize("ell, build", [
    # M is the cached T(8) itself: its one part is T(8) with the identity
    (7, lambda F: tilting_module(F, 8)),
    (3, lambda F: direct_sum(tilting_module(F, 5), tilting_module(F, 3), tilting_module(F, 3))),
    (3, lambda F: tensor_module(tilting_module(F, 3), tilting_module(F, 3))),
    (5, lambda F: tensor_module(tilting_module(F, 4), tilting_module(F, 2))),
    (3, lambda F: direct_sum(tilting_module(F, 3), tilting_module(F, 3), tilting_module(F, 1))),
    (5, lambda F: direct_sum(tilting_module(F, 5), tilting_module(F, 5), tilting_module(F, 3))),
], ids=["T(8) ell 7", "T(5)+T(3)+T(3) ell 3", "T(3)xT(3) ell 3", "T(4)xT(2) ell 5",
        "T(3)+T(3)+T(1) ell 3", "T(5)+T(5)+T(3) ell 5"])
def test_split_parts_resolve_the_identity(ell, build):
    """sum_i incl_i o proj_i = id_M and proj_i o incl_j = delta_ij id; every
    witness is a module map, and every part is the canonical T(mu)."""
    from tiltlab.linalg import ExactMatrix
    from tiltlab.minimal import _intertwines

    F = CycloField(ell)
    M = build(F)
    parts = decompose_indecomposables(M)
    total = ExactMatrix.zero(F, M.dim, M.dim)
    for i, p in enumerate(parts):
        assert p.module is tilting_module(F, p.label[1])
        assert _intertwines(p.inclusion.matrix, p.module, M)
        assert _intertwines(p.projection.matrix, M, p.module)
        total = total + p.inclusion.matrix @ p.projection.matrix
        for j, q in enumerate(parts):
            comp = p.projection.matrix @ q.inclusion.matrix
            assert comp == (ExactMatrix.identity(F, p.module.dim) if i == j
                            else ExactMatrix.zero(F, p.module.dim, q.module.dim))
    assert total == ExactMatrix.identity(F, M.dim)


def test_krull_schmidt_doubling():
    for M in (
        tilting_module(F3, 4),
        tensor_module(tilting_module(F3, 2), tilting_module(F3, 1)),
        tensor_module(tilting_module(F3, 3), tilting_module(F3, 1)),
    ):
        single = label_multiset(decompose_indecomposables(M))
        doubled = label_multiset(decompose_indecomposables(direct_sum(M, M)))
        assert doubled == {k: 2 * v for k, v in single.items()}


def test_non_tilting_decomposition_labels(monkeypatch):
    import tiltlab.standard

    # ch(Delta(3) + L(3)) is no sum of tilting characters
    with pytest.raises(ValueError):
        decompose_indecomposables(direct_sum(weyl_module(F3, 3), simple_module(F3, 3)))
    # Delta(3) + Delta(1) and Nabla(3) + Nabla(1) have the character of T(3)
    # but each lacks one flag: the counts refuse them before any solve
    def refuse(M, N):
        raise AssertionError("a module that is not tilting was solved")

    monkeypatch.setattr(tiltlab.standard, "hom_space", refuse)
    for M in (direct_sum(weyl_module(F3, 3), weyl_module(F3, 1)),
              direct_sum(dual_weyl_module(F3, 3), dual_weyl_module(F3, 1))):
        assert M.character == tilting_character(F3, 3)
        with pytest.raises(ValueError, match="flag counts do not prove"):
            decompose_indecomposables(M)


def test_end_local_for_tiltings():
    for ell, F in ((3, F3), (5, F5)):
        for n in range(0, 13):
            T = tilting_module(F, n)
            ends = end_algebra(T)
            assert len(ends) - radical_dimension(ends) == 1, (ell, n)
            # unit group test: every basis element is nilpotent or invertible
            for h in ends:
                power = h.matrix.power(T.dim)
                det = h.matrix.determinant()
                assert (not det.is_zero()) or power.is_zero()


def test_hom_symmetry_between_tiltings():
    for F in (F3, F5):
        for m in range(0, 9):
            for n in range(0, 9):
                a = len(hom_space(tilting_module(F, m), tilting_module(F, n)))
                b = len(hom_space(tilting_module(F, n), tilting_module(F, m)))
                assert a == b, (F.ell, m, n)


def test_peel_standard_filtration():
    assert peel_standard_filtration(tilting_module(F3, 3), "delta") == [3, 1]
    assert peel_standard_filtration(weyl_module(F3, 7), "delta") == [7]
    assert peel_standard_filtration(simple_module(F3, 3), "delta") is None
    assert peel_standard_filtration(tilting_module(F3, 4), "nabla") == [4, 0]
    with pytest.raises(ValueError):
        peel_standard_filtration(weyl_module(F3, 1), "sideways")


def test_is_tilting():
    assert is_tilting(tilting_module(F3, 6))
    assert not is_tilting(weyl_module(F3, 3))
    assert not is_tilting(simple_module(F3, 3))


def _count_oracle_modules(field):
    """Delta, Nabla, L and T up to 3ell+1, direct sums, tensor products and
    both outer terms of sampled short exact sequences."""
    rng = random.Random(field.ell)
    singles = [build(field, n) for n in range(3 * field.ell + 2)
               for build in (weyl_module, dual_weyl_module, simple_module, tilting_module)]
    small = [M for M in singles if M.dim <= field.ell + 1]
    sums = [direct_sum(*rng.sample(singles, 2)) for _ in range(12)]
    tensors = [tensor_module(*rng.sample(small, 2)) for _ in range(8)]
    outer = [M for ses in (sample_ses(field, rng) for _ in range(8)) if ses is not None
             for M in (ses.sub, ses.quotient)]
    return singles + sums + tensors + outer


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_flag_counts_agree_with_the_peel(ell):
    filtered = {"delta": 0, "nabla": 0}
    for M in _count_oracle_modules(CycloField(ell)):
        nabla, delta = primitive_counts(M), dual_primitive_counts(M)
        assert delta == primitive_counts(dual_module(M))
        for side, counts, holds in (("nabla", nabla, has_nabla_flag), ("delta", delta, has_delta_flag)):
            total = sum(h * (c + 1) for c, h in counts.items())
            assert total >= M.dim, (side, M.character)
            peels = peel_standard_filtration(M, side)
            assert holds(M) == (total == M.dim) == (peels is not None), (side, M.character)
            if peels is not None:
                # on a filtered module, h_c is the multiplicity of Delta(c) or Nabla(c)
                assert {c: h for c, h in counts.items() if h} == Counter(peels)
                filtered[side] += 1
    # both outcomes occur on both sides
    assert all(0 < n for n in filtered.values())


def test_a_tilting_character_with_one_flag_is_not_tilting():
    M = direct_sum(weyl_module(F3, 3), weyl_module(F3, 1))
    assert M.character == tilting_character(F3, 3)
    assert has_delta_flag(M)
    assert not has_nabla_flag(M)
    assert not is_tilting(M)
    assert split_if_tilting(M) is None


def _tilting_candidates():
    for F, top in ((F3, 8), (F5, 6)):
        for n in range(top + 1):
            for build in (tilting_module, weyl_module, dual_weyl_module, simple_module):
                yield build(F, n)
    yield direct_sum(tilting_module(F3, 3), simple_module(F3, 3))
    yield tensor_module(tilting_module(F3, 2), tilting_module(F3, 1))
    # tilting characters of modules that are not tilting: the flag counts
    # reject them before any split
    yield direct_sum(weyl_module(F3, 3), weyl_module(F3, 1))
    yield direct_sum(dual_weyl_module(F3, 3), dual_weyl_module(F3, 1))


def test_tilting_parts_agrees_with_flag_peels():
    for M in _tilting_candidates():
        parts = split_if_tilting(M)
        assert (parts is not None) == is_tilting(M), M.character
        if parts is not None:
            assert sum(p.module.dim for p in parts) == M.dim


def test_tilting_parts_lets_certification_errors_through(monkeypatch):
    import tiltlab.standard

    def broken(*args):
        raise CertificationError("broken split")

    T = tilting_module(F3, 3)
    monkeypatch.setattr(tiltlab.standard, "_prune_factoring", broken)
    # passed through as it is, not turned into a refusal to split
    with pytest.raises(CertificationError, match="broken split"):
        split_if_tilting(T)


def test_tilting_parts_raises_when_a_predicted_summand_does_not_split(monkeypatch):
    import tiltlab.standard

    prune = tiltlab.standard._prune_factoring
    T = tilting_module(F3, 3)
    not_tilting = direct_sum(weyl_module(F3, 3), weyl_module(F3, 1))
    # a cover that lost a component has labels other than those of ch M
    with monkeypatch.context() as m:
        m.setattr(tiltlab.standard, "_prune_factoring", lambda *args: prune(*args)[:-1])
        with pytest.raises(CertificationError, match="does not split: its minimal tilting cover has labels"):
            split_if_tilting(T)
    # a component repeated in place of another of the same label keeps the
    # labels, but the stacked cover is singular
    with monkeypatch.context() as m:
        m.setattr(tiltlab.standard, "_prune_factoring", lambda *args: prune(*args)[:1] * 2)
        with pytest.raises(CertificationError, match="does not split: the minimal tilting cover .* is singular"):
            split_if_tilting(direct_sum(T, T))
    # a Hom solve that loses a basis element is off the dimension formula
    TT = direct_sum(T, T)
    solve = tiltlab.standard.hom_space
    with monkeypatch.context() as m:
        m.setattr(tiltlab.standard, "hom_space", lambda M, N: solve(M, N)[:-1] if N is TT else solve(M, N))
        with pytest.raises(CertificationError, match=r"Hom\(T\(3\), X\) has dimension 3, not 4"):
            split_if_tilting(TT)
    # the counts reject a module that is not tilting before any split
    assert split_if_tilting(not_tilting) is None


@pytest.mark.parametrize("ell", [3, 5, 7, 9, 11, 13])
def test_glued_tilting_modules_satisfy_the_relations(ell):
    import tiltlab.standard

    F = CycloField(ell)
    for b in range(1, ell):
        n = ell - 1 + b
        T = tiltlab.standard._glued_tilting_module(F, b)
        assert check_relations(T).ok, (ell, b)
        assert T.character == tilting_character(F, n), (ell, b)
        assert has_delta_flag(T) and has_nabla_flag(T), (ell, b)


@pytest.mark.parametrize("ell", [3, 5])
def test_a_glue_set_to_zero_is_refused(ell, monkeypatch):
    # Delta(ell-1+b) + Delta(ell-1-b) has the character of T(ell-1+b) but no
    # Nabla-flag, so the flag counts refuse it
    import tiltlab.standard

    F = CycloField(ell)

    def split_glue(field, b):
        return direct_sum(weyl_module(field, ell - 1 + b), weyl_module(field, ell - 1 - b))

    monkeypatch.setattr(tiltlab.standard, "_glued_tilting_module", split_glue)
    for b in range(1, ell):
        n = ell - 1 + b
        monkeypatch.setattr(tiltlab.standard, "_tilting_cache", {})
        assert split_glue(F, b).character == tilting_character(F, n)
        with pytest.raises(CertificationError, match=rf"the glued T\({n}\) is not a tilting module"):
            tilting_module(F, n)


def test_tilting_modules_below_ell_are_weyl_modules():
    for F in (F3, F5, CycloField(7)):
        for n in range(F.ell):
            assert tilting_module(F, n).fingerprint() == weyl_module(F, n).fingerprint(), (F.ell, n)


def test_tilting_character_decomposition():
    ch = tilting_character(F3, 3) * tilting_character(F3, 1)
    assert decompose_tilting_character(F3, ch) == {4: 1, 2: 2}
    with pytest.raises(ValueError):
        decompose_tilting_character(F3, simple_module(F3, 3).character)


def test_is_local_end():
    assert is_local_end(tilting_module(F3, 3))
    assert not is_local_end(direct_sum(weyl_module(F3, 1), weyl_module(F3, 1)))


def test_tilting_characters_in_first_wall_region():
    # independent oracle: between the first and second walls the tilting
    # character is the sum of the Weyl characters of the two linked weights
    for F in (F3, F5):
        ell = F.ell
        for s in range(1, ell):
            n = ell - 1 + s
            expected = weyl_character(n) + weyl_character(ell - 1 - s)
            assert tilting_character(F, n) == expected, (ell, n)


def test_simple_character_matches_simple_module():
    # the closed form against L(n) built as the image of Delta(n) -> Nabla(n)
    for F, top in ((F3, 14), (F5, 16)):
        for n in range(top + 1):
            assert simple_character(F, n) == simple_module(F, n).character, (F.ell, n)


@pytest.mark.parametrize("ell", [3, 5, 7], ids=["ell3", "ell5", "ell7"])
def test_the_socle_of_a_tilting_module_is_simple_and_closed_form(ell):
    # dim Hom(L(c), T(mu)) solved for every c <= mu: 1 at c = s(mu), else 0
    field = CycloField(ell)
    for mu in range(3 * ell + 1):
        T = tilting_module(field, mu)
        for c in range(mu + 1):
            expected = 1 if c == tilting_socle(field, mu) else 0
            assert len(hom_space(simple_module(field, c), T)) == expected, (mu, c)


def test_composition_multiplicities_add_up_to_the_character():
    for F in (F3, F5):
        for n in range(3 * F.ell):
            mults = composition_multiplicities(F, weyl_character(n))
            assert mults[n] == 1 and all(m > 0 for m in mults.values())
            total = Character()
            for c, m in mults.items():
                total = total + Character({w: m * v for w, v in simple_character(F, c).coeffs.items()})
            assert total == weyl_character(n), (F.ell, n)
            assert composition_multiplicities(F, simple_character(F, n)) == {n: 1}
    # Delta(4) at ell 3 is L(4) over L(0)
    assert composition_multiplicities(F3, weyl_character(4)) == {4: 1, 0: 1}
    with pytest.raises(ValueError, match="simple characters"):
        composition_multiplicities(F3, Character({0: -1}))
    with pytest.raises(ValueError, match="simple characters"):
        composition_multiplicities(F3, Character({1: 1}))


def test_tilting_character_rejects_negative_weight():
    with pytest.raises(ValueError):
        tilting_character(F3, -1)


def test_ideals_layer_builds_no_module(monkeypatch):
    import tiltlab.ideals
    import tiltlab.standard
    from tiltlab.ideals import enumerate_tilt_ideals, tensor_labels

    def refuse(*args):
        raise AssertionError("the ideals layer built a module")

    monkeypatch.setattr(tiltlab.ideals, "_tensor_label_cache", {})
    monkeypatch.setattr(tiltlab.standard, "_tilting_character_cache", {})
    monkeypatch.setattr(tiltlab.standard, "tilting_module", refuse)
    monkeypatch.setattr(tiltlab.ideals, "tilting_module", refuse)
    ideals = enumerate_tilt_ideals(F5, 8)
    assert [i.sorted_members() for i in ideals] == [[], list(range(4, 9)), list(range(9))]
    labels = tensor_labels(F3, 12, 12, 30)
    assert max(labels) == 24
    total = Character()
    for k, mult in labels.items():
        total = total + Character({w: mult * m for w, m in tilting_character(F3, k).coeffs.items()})
    assert total == tilting_character(F3, 12) * tilting_character(F3, 12)


@pytest.mark.parametrize("ell, top", [(3, 16), (5, 18), (7, 16), (9, 18)])
def test_closed_form_tilting_module_matches_tensor_and_peel(ell, top):
    # the oracle peels by search, with no closed form: below 2ell-1 it checks
    # the peel along predicted labels, above it Donkin's tensor product theorem
    F = CycloField(ell)
    for n in range(2, top + 1):
        T = tilting_module(F, n)
        assert check_relations(T).ok, (ell, n)
        assert T.character == tilting_character(F, n), (ell, n)
        assert find_isomorphism(T, peeled_tilting_module(F, n)) is not None, (ell, n)


@pytest.mark.parametrize("mutation", ["wrong b", "unscaled twist"])
@pytest.mark.parametrize("ell, n", [(3, 7), (5, 12)])
def test_closed_form_tilting_module_certifies_its_character(mutation, ell, n, monkeypatch):
    import tiltlab.standard

    F = CycloField(ell)
    b = (n - (ell - 1)) % ell
    memo = {k: v for k, v in tiltlab.standard._tilting_cache.items() if k != (ell, n)}
    if mutation == "wrong b":
        # the head factor is T(ell-1+b') with b' != b
        memo[(ell, ell - 1 + b)] = tilting_module(F, ell - 1 + (b + 1) % ell)
    else:
        # L(a) in place of L(a)^[1]: the twist's weights are not scaled by ell
        monkeypatch.setattr(tiltlab.standard, "frobenius_twist", lambda field, a: simple_module(field, a))
    monkeypatch.setattr(tiltlab.standard, "_tilting_cache", memo)
    with pytest.raises(CertificationError, match=rf"T\({n}\) = .* has the wrong character"):
        tilting_module(F, n)

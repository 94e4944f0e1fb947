import random
from collections import Counter

import pytest

from tiltlab.characters import weyl_character
from tiltlab.complexes import ChainComplex, labeled_direct_sum, minimalize, tensor_complexes
from tiltlab.cyclotomic import CertificationError, CycloField
from tiltlab.linalg import ExactMatrix
from tiltlab.modules import UModule, UMorphism, direct_sum, find_isomorphism, tensor_module
from tiltlab.minimal import (
    _certify_cmin,
    _lift_over_tiltings,
    cover_by_tilting,
    embed_into_tilting,
    filtration_dimensions,
    minimal_tilting_complex,
    tilting_complex_of,
)
from tiltlab.standard import (
    dual_weyl_module,
    label_table_character,
    peel_standard_filtration,
    simple_character,
    simple_module,
    split_if_tilting,
    tilting_module,
    weyl_module,
)

from oracles import (
    closed_form_label_table,
    is_injective,
    is_minimal,
    is_surjective,
    prune_by_lifting,
    solve_chain_map,
)

F3 = CycloField(3)
F5 = CycloField(5)


def test_tilting_inputs_are_one_term_complexes():
    for n in (0, 2, 4, 6):
        c = minimal_tilting_complex(tilting_module(F3, n))
        assert c.label_table() == {0: [n]}


def test_tilting_inputs_peel_no_flag(monkeypatch):
    """The short path counts primitive vectors: it peels no flag and splits
    no summand."""
    import tiltlab.minimal
    import tiltlab.standard

    def refuse(*args):
        raise AssertionError("a tilting input was peeled or split")

    inputs = (direct_sum(tilting_module(F3, 4), tilting_module(F3, 2)),
              tensor_module(tilting_module(F3, 2), tilting_module(F3, 1)))
    monkeypatch.setattr(tiltlab.minimal, "_cmin_cache", {})
    monkeypatch.setattr(tiltlab.standard, "peel_standard_filtration", refuse)
    monkeypatch.setattr(tiltlab.standard, "_split_tilting_labels", refuse)
    assert minimal_tilting_complex(inputs[0]).label_table() == {0: [2, 4]}
    assert minimal_tilting_complex(inputs[1]).label_table() == {0: [3]}


def test_each_module_is_counted_once_per_side(monkeypatch):
    """The flag counts are kept on the module, so the short path's is_tilting
    and the construction share the source module's counts."""
    import tiltlab.minimal
    import tiltlab.standard

    counted = []  # (module, side); the modules stay alive, so ids stay distinct
    count = tiltlab.standard._primitive_counts

    def recording(M, sign, *vecs):
        counted.append((M, sign))
        return count(M, sign, *vecs)

    monkeypatch.setattr(tiltlab.minimal, "_cmin_cache", {})
    monkeypatch.setattr(tiltlab.standard, "_primitive_counts", recording)
    for M in (dual_weyl_module(F3, 4), simple_module(F3, 4)):
        minimal_tilting_complex(M)
    sides = Counter((id(M), sign) for M, sign in counted)
    assert sides and max(sides.values()) == 1


def test_fixed_point_delta3():
    c = minimal_tilting_complex(weyl_module(F3, 3))
    assert c.label_table() == {0: [3], 1: [1]}
    coh = c.complex.cohomology()
    assert set(coh) == {0}
    assert find_isomorphism(coh[0], weyl_module(F3, 3)) is not None
    assert is_minimal(c.complex)


def test_fixed_point_simple3():
    c = minimal_tilting_complex(simple_module(F3, 3))
    assert c.label_table() == {-1: [1], 0: [3], 1: [1]}
    coh = c.complex.cohomology()
    assert set(coh) == {0}
    assert find_isomorphism(coh[0], simple_module(F3, 3)) is not None
    assert is_minimal(c.complex)


def test_nabla3_is_left_complex():
    c = minimal_tilting_complex(dual_weyl_module(F3, 3))
    assert c.label_table() == {-1: [1], 0: [3]}


def test_simple1_is_its_own_complex():
    c = minimal_tilting_complex(simple_module(F3, 1))
    assert c.label_table() == {0: [1]}


def test_zero_module_empty_complex():
    c = minimal_tilting_complex(UModule.zero_module(F3))
    assert c.complex.is_zero()
    assert filtration_dimensions(UModule.zero_module(F3)) == (0, 0)


def test_direct_sum_compatibility_fixed_pair():
    M, N = weyl_module(F3, 3), simple_module(F3, 3)
    left = minimal_tilting_complex(direct_sum(M, N)).label_table()
    a = minimal_tilting_complex(M).label_table()
    b = minimal_tilting_complex(N).label_table()
    merged = {}
    for t in (a, b):
        for deg, labels in t.items():
            merged.setdefault(deg, []).extend(labels)
    merged = {k: sorted(v) for k, v in merged.items()}
    assert left == merged


def test_filtration_dimensions():
    assert filtration_dimensions(tilting_module(F3, 5)) == (0, 0)
    assert filtration_dimensions(simple_module(F3, 3)) == (1, 1)
    assert filtration_dimensions(simple_module(F3, 6)) == (2, 2)
    assert filtration_dimensions(weyl_module(F3, 6)) == (2, 0)


def test_tensor_lemma_small():
    # C_min(L(3) (x) L(1)) is the minimalization of C_min(L3) (x) C_min(L1)
    L3, L1 = simple_module(F3, 3), simple_module(F3, 1)
    direct = minimal_tilting_complex(tensor_module(L3, L1)).label_table()
    X = minimal_tilting_complex(L3).complex
    Y = minimal_tilting_complex(L1).complex
    res = minimalize(tensor_complexes(X, Y))
    assert res.complex.tilting_label_table() == direct


def test_kunneth_of_selftensor():
    # C_min(L(3)) (x) C_min(L(3)) has four-dimensional H^0 and nothing else
    X = minimal_tilting_complex(simple_module(F3, 3)).complex
    XX = tensor_complexes(X, X)
    coh = XX.cohomology()
    assert set(coh) == {0}
    assert coh[0].dim == 4


def test_embed_and_cover_shapes():
    L3 = simple_module(F3, 3)
    Q, emb, parts = embed_into_tilting(L3)
    assert is_injective(emb)
    assert all(lab[0] == "T" for lab in (p.label for p in parts))
    # a cover's input is Nabla-filtered, as the coresolution's tail is
    P, surj, parts2 = cover_by_tilting(direct_sum(dual_weyl_module(F3, 3), dual_weyl_module(F3, 1)))
    assert is_surjective(surj)
    assert all(lab[0] == "T" for lab in (p.label for p in parts2))


@pytest.mark.parametrize("field", [F3, F5], ids=["ell3", "ell5"])
def test_cover_refuses_exactly_the_inputs_without_a_nabla_flag(field):
    refused = 0
    for n in range(3 * field.ell):
        for kind in (weyl_module, dual_weyl_module, simple_module):
            M = kind(field, n)
            if peel_standard_filtration(M, "nabla") is None:
                refused += 1
                with pytest.raises(CertificationError):
                    cover_by_tilting(M)
            else:
                _, surj, _ = cover_by_tilting(M)
                assert is_surjective(surj)
    assert refused


def test_embed_zero_raises():
    with pytest.raises(ValueError):
        embed_into_tilting(UModule.zero_module(F3))


def test_ell5_wall_simple():
    c = minimal_tilting_complex(simple_module(F5, 5))
    assert c.label_table() == {-1: [3], 0: [5], 1: [3]}


def _certificate(M):
    """C_min(M), p = pi o f^0 and iota, as minimal_tilting_complex certifies
    them."""
    X, iota, pi = tilting_complex_of(M)
    res = minimalize(X)
    return res.complex, pi.matrix @ res.chain_map[0], iota


def _refused(*args):
    with pytest.raises(CertificationError):
        _certify_cmin(*args)


def test_construction_certificate_rejects_corruption():
    # Nabla(6) is its own tail (k = 0): there iota is the identity and p the
    # augmentation; the other four have a tilting term X^0 = Y and a d^0
    modules = (simple_module(F3, 3), weyl_module(F3, 6), simple_module(F5, 10), weyl_module(F5, 7),
               dual_weyl_module(F3, 6))
    for M in modules:
        field = M.field
        cmin, p, iota = _certificate(M)
        Y = iota.target
        assert (Y is M) == (M is modules[-1])
        _certify_cmin(M, cmin, p, iota)
        # tilting_complex_of postcondition: concentrated cohomology
        coh = cmin.cohomology()
        assert set(coh) == {0}
        assert find_isomorphism(coh[0], M) is not None
        r, row = next((r, row) for r, row in enumerate(p.entries) if row)
        c = min(row)
        changed, zeroed = p.copy(), p.copy()
        changed[r, c] = row[c] + field.one
        zeroed.entries[r] = {}
        _refused(M, cmin, changed, iota)
        _refused(M, cmin, zeroed, iota)
        if Y is not M:
            # a wrong iota: the first dim M coordinate vectors of Y
            coordinates = [{j: field.one} for j in range(M.dim)] + [{} for _ in range(Y.dim - M.dim)]
            _refused(M, cmin, p, UMorphism(M, Y, ExactMatrix(field, Y.dim, M.dim, coordinates)))
            assert 0 in cmin.differentials
        # one differential zeroed; zeroing d^0 makes H^1 nonzero
        for i in cmin.differentials:
            kept = {j: d for j, d in cmin.differentials.items() if j != i}
            _refused(M, ChainComplex(field, cmin.terms, kept, cmin.parts), p, iota)


@pytest.mark.parametrize("field, table", [
    (F3, {-1: [1], 0: [3, 4], 1: [0, 1]}),
    (F5, {-1: [3], 0: [5, 6], 1: [2, 3]}),
], ids=["ell3", "ell5"])
def test_decomposable_source_is_certified(monkeypatch, field, table):
    """L(ell) + Delta(ell+1) is certified with no extra step: p maps H^0 onto
    the image of the whole sum."""
    import tiltlab.minimal

    ell = field.ell
    M = direct_sum(simple_module(field, ell), weyl_module(field, ell + 1))
    monkeypatch.setattr(tiltlab.minimal, "_cmin_cache", {})
    assert minimal_tilting_complex(M).label_table() == table
    _certify_cmin(M, *_certificate(M))


def test_total_complex_route_for_delta3():
    # assemble the two-column grid of the construction by hand and totalize
    from tiltlab.complexes import total_complex
    from tiltlab.minimal import _coresolution

    D3 = weyl_module(F3, 3)
    terms, _, maps, tail, _ = _coresolution(D3)
    assert len(terms) == 1 and len(maps) == 1
    grid = {(0, 0): terms[0], (1, 0): tail}
    tot = total_complex(F3, grid, {((0, 0), (1, 0)): maps[0].matrix})
    coh = tot.cohomology()
    assert set(coh) == {0}
    assert find_isomorphism(coh[0], D3) is not None


def test_complex_serialization():
    from oracles import complex_to_json

    c = minimal_tilting_complex(simple_module(F3, 3)).complex
    data = complex_to_json(c)
    assert data["ell"] == 3
    assert data["terms"] == {"-1": [["T", 1]], "0": [["T", 3]], "1": [["T", 1]]}
    assert set(data["differentials"]) == {"-1", "0"}


def test_cmin_cache_hit_is_stable():
    a = minimal_tilting_complex(simple_module(F3, 3))
    b = minimal_tilting_complex(simple_module(F3, 3))
    assert a is b  # cached by fingerprint


def test_random_sum_pairs_direct_sum_property():
    rng = random.Random(2)
    kinds = [weyl_module, simple_module, tilting_module, dual_weyl_module]
    for _ in range(3):
        f1, f2 = rng.choice(kinds), rng.choice(kinds)
        n1, n2 = rng.randint(0, 5), rng.randint(0, 5)
        M, N = f1(F3, n1), f2(F3, n2)
        left = minimal_tilting_complex(direct_sum(M, N)).label_table()
        a = minimal_tilting_complex(M).label_table()
        b = minimal_tilting_complex(N).label_table()
        merged = {}
        for t in (a, b):
            for deg, labels in t.items():
                merged.setdefault(deg, []).extend(labels)
        assert left == {k: sorted(v) for k, v in merged.items()}


def _tilting_sum(field, labels):
    """T(mu_1) + ... + T(mu_k) with its parts."""
    return labeled_direct_sum(field, [(("T", mu), tilting_module(field, mu)) for mu in labels])


def test_solve_chain_map_with_identity_returns_each_intertwiner():
    from tiltlab.linalg import ExactMatrix
    from tiltlab.modules import hom_space

    for field, src_labels, tgt_labels in (
        (F3, [4], [4]),
        (F3, [3, 1], [3]),
        (F5, [6], [6, 2]),
    ):
        (M, mparts), (N, nparts) = _tilting_sum(field, src_labels), _tilting_sum(field, tgt_labels)
        basis = hom_space(M, N)
        assert basis
        left = ExactMatrix.identity(field, N.dim)
        for h in basis:
            lifted = _lift_over_tiltings(M, mparts, N, nparts, left, h.matrix)
            assert lifted == solve_chain_map(M, N, left, h.matrix) == h.matrix


@pytest.mark.parametrize("field", [F3, F5], ids=["ell3", "ell5"])
def test_solve_chain_map_matches_oracle_on_random_combinations(field):
    # f and left are seeded combinations of nonzero Hom bases, so left @ f =
    # rhs is consistent, and rhs is nonzero.  In every other case the target
    # is T(a) (x) T(b), whose parts from split_if_tilting are not coordinate
    # blocks, and left is one basis element of its End, which has a kernel:
    # then the solution over the cached basis must be reduced by the
    # homogeneous solutions to be the one the oracle returns.
    from tiltlab.modules import hom_space, tensor_module

    rng = random.Random(12 + field.ell)
    window = range(field.ell - 1, 2 * field.ell + 1)

    def combination(basis):
        mat = basis[0].matrix.scale(field.zero)
        for h in basis:
            mat = mat + h.matrix.scale(field.scalar(rng.choice((-2, -1, 1, 2))))
        return mat

    def labeled_sum():
        return _tilting_sum(field, sorted(rng.sample(window, rng.randint(1, 3)), reverse=True))

    cases = 0
    while cases < 8:
        tensor = cases % 2
        M, mparts = labeled_sum()
        if tensor:
            N = tensor_module(tilting_module(field, rng.randint(1, 3)), tilting_module(field, rng.randint(1, 3)))
            nparts, X = split_if_tilting(N), N
        else:
            (N, nparts), (X, _) = labeled_sum(), labeled_sum()
        homs_mn, homs_nx = hom_space(M, N), hom_space(N, X)
        if not homs_mn or not homs_nx:
            continue
        left = rng.choice(homs_nx).matrix if tensor else combination(homs_nx)
        rhs = left @ combination(homs_mn)
        if rhs.is_zero():
            continue
        cases += 1
        lifted = _lift_over_tiltings(M, mparts, N, nparts, left, rhs)
        assert lifted == solve_chain_map(M, N, left, rhs)
        assert left @ lifted == rhs


def test_solve_chain_map_rejects_a_non_intertwiner():
    T, parts = _tilting_sum(F3, [3])
    left = ExactMatrix.identity(F3, T.dim)
    # projection onto the highest weight vector: weight-preserving, but it
    # does not commute with F
    top = ExactMatrix(F3, T.dim, T.dim)
    top[0, 0] = F3.one
    assert T.weights[0] == 3
    assert solve_chain_map(T, T, left, top) is None
    assert _lift_over_tiltings(T, parts, T, parts, left, top) is None
    # a map that moves weights is not an intertwiner either
    shift = ExactMatrix(F3, T.dim, T.dim)
    shift[1, 0] = F3.one
    assert T.weights[1] != T.weights[0]
    assert solve_chain_map(T, T, left, shift) is None
    assert _lift_over_tiltings(T, parts, T, parts, left, shift) is None


@pytest.mark.parametrize("field, top", [(F3, 8), (F5, 12)], ids=["ell3", "ell5"])
def test_prune_keeps_the_components_lifting_keeps(monkeypatch, field, top):
    import tiltlab.minimal

    prune = tiltlab.minimal._prune_factoring
    dropped = []

    def counted_prune(field, components, M):
        kept = prune(field, components, M)
        dropped.append(len(components) - len(kept))
        return kept

    # Nabla-filtered inputs; the cover of a single Nabla(n) has one component
    nabla = [dual_weyl_module(field, n) for n in range(top + 1)]
    inputs = [direct_sum(nabla[a], nabla[b]) for a in range(top + 1) for b in range(a)]
    inputs += [tensor_module(nabla[a], nabla[b]) for a in range(1, 5) for b in range(1, a + 1)]
    for M in inputs:
        with monkeypatch.context() as m:
            m.setattr(tiltlab.minimal, "_prune_factoring", counted_prune)
            _, surj, parts = cover_by_tilting(M)
        with monkeypatch.context() as m:
            m.setattr(tiltlab.minimal, "_prune_factoring", prune_by_lifting)
            _, oracle_surj, oracle_parts = cover_by_tilting(M)
        # equal matrices: the same Hom basis elements, in the same order
        assert [p.label for p in parts] == [p.label for p in oracle_parts]
        assert surj.matrix == oracle_surj.matrix
    assert len(dropped) == len(inputs) and sum(dropped) > 0


def test_prune_never_factors_through_a_dropped_component():
    # A and B = A o (1 + x), x spanning rad End(T(3)), are isomorphisms
    # T(3) -> T(3) that factor through each other: A is dropped first, and B
    # must then be kept, since nothing else is left to factor through
    from tiltlab.minimal import _prune_factoring
    from tiltlab.modules import UMorphism
    from tiltlab.standard import tilting_hom_basis

    T = tilting_module(F3, 3)
    A = UMorphism.identity(T)
    x = next(phi.matrix for phi in tilting_hom_basis(F3, 3, 3) if phi.matrix.determinant().is_zero())
    B = UMorphism(T, T, A.matrix + x)
    components = [(3, A), (3, B)]
    kept = _prune_factoring(F3, components, T)
    assert kept == prune_by_lifting(F3, components, T) == [(3, B)]


KINDS = (("delta", weyl_module), ("nabla", dual_weyl_module), ("L", simple_module))


@pytest.mark.parametrize("ell, top", [(3, 13), (5, 15), (7, 12)], ids=["ell3", "ell5", "ell7"])
def test_closed_form_label_tables_match_the_construction(ell, top):
    field = CycloField(ell)
    for n in range(top + 1):
        for kind, build in KINDS:
            table = minimal_tilting_complex(build(field, n)).label_table()
            assert table == closed_form_label_table(ell, kind, n), (kind, n)


@pytest.mark.parametrize("ell", [3, 5, 7], ids=["ell3", "ell5", "ell7"])
def test_closed_form_label_tables_have_the_euler_character(ell):
    field = CycloField(ell)
    for n in range(201):
        for kind, ch in (("delta", weyl_character(n)), ("nabla", weyl_character(n)),
                         ("L", simple_character(field, n))):
            assert label_table_character(field, closed_form_label_table(ell, kind, n)) == ch, (kind, n)

import random
from collections import Counter

import pytest

from tiltlab.characters import weyl_character
from tiltlab.complexes import ChainComplex, labeled_direct_sum, minimalize, tensor_complexes
from tiltlab.cyclotomic import CertificationError, CycloField
from tiltlab.linalg import ExactMatrix
from tiltlab.modules import UModule, UMorphism, direct_sum, find_isomorphism, tensor_module
from tiltlab.minimal import (
    _approximation,
    _certify_cmin,
    _ext_counts,
    _intertwines,
    _stack_into_sum,
    cover_by_tilting,
    embed_into_tilting,
    filtration_dimensions,
    minimal_tilting_complex,
    tilting_complex_of,
)
from tiltlab.standard import (
    composition_multiplicities,
    dual_weyl_module,
    is_tilting,
    label_table_character,
    peel_standard_filtration,
    simple_character,
    simple_module,
    split_if_tilting,
    tilting_module,
    tilting_socle,
    weyl_module,
)

from oracles import (
    closed_form_label_table,
    complex_to_json,
    embed_full_window,
    is_injective,
    is_minimal,
    is_surjective,
    lift_over_tiltings,
    prune_by_lifting,
    solve_chain_map,
    staircase_complex_of,
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
    import tiltlab.complexes
    import tiltlab.minimal
    import tiltlab.standard

    def refuse(*args):
        raise AssertionError("a tilting input was peeled or split")

    inputs = (direct_sum(tilting_module(F3, 4), tilting_module(F3, 2)),
              tensor_module(tilting_module(F3, 2), tilting_module(F3, 1)))
    monkeypatch.setattr(tiltlab.minimal, "_cmin_cache", {})
    monkeypatch.setattr(tiltlab.standard, "peel_standard_filtration", refuse)
    monkeypatch.setattr(tiltlab.standard, "decompose_indecomposables", refuse)
    monkeypatch.setattr(tiltlab.complexes, "decompose_indecomposables", refuse)
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


def test_embed_and_cover_shapes(monkeypatch):
    import tiltlab.minimal
    from tiltlab.modules import UMorphism

    L3 = simple_module(F3, 3)
    Q, emb, parts = embed_into_tilting(L3)
    assert is_injective(emb)
    assert all(lab[0] == "T" for lab in (p.label for p in parts))
    # a cover's input is Nabla-filtered, as Y of the approximation is
    M = direct_sum(dual_weyl_module(F3, 3), dual_weyl_module(F3, 1))
    P, surj, parts2 = cover_by_tilting(M)
    assert is_surjective(surj)
    assert len(parts2) >= 2
    assert all(lab[0] == "T" for lab in (p.label for p in parts2))
    # a cover with one kept component replaced by the zero map is not onto
    cover = tiltlab.minimal.minimal_tilting_cover

    def lossy(X, labels, nabla_mults):
        *kept, (mu, h) = cover(X, labels, nabla_mults)
        return kept + [(mu, UMorphism.zero(h.source, X))]

    monkeypatch.setattr(tiltlab.minimal, "minimal_tilting_cover", lossy)
    with pytest.raises(CertificationError, match="dim-6 module is not onto"):
        cover_by_tilting(M)


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


@pytest.mark.parametrize("ell, top", [(3, 13), (5, 15), (7, 12)], ids=["ell3", "ell5", "ell7"])
def test_embedding_matches_the_full_window(ell, top):
    """The socle filter and the lazy walk select the maps that the eager
    full window selects, and drop only Hom spaces that are zero."""
    field = CycloField(ell)
    for n in range(top + 1):
        for kind, build in KINDS:
            M = build(field, n)
            (Q, emb, parts), solved = embed_full_window(M)
            got_Q, got_emb, got_parts = embed_into_tilting(M)
            assert [p.label for p in got_parts] == [p.label for p in parts], (kind, n)
            assert got_Q.dim == Q.dim and got_emb.matrix == emb.matrix, (kind, n)
            mults = composition_multiplicities(field, M.character)
            assert all(tilting_socle(field, mu) in mults for mu, basis in solved.items() if basis), (kind, n)


def test_embedding_solves_only_nonzero_hom_spaces(monkeypatch):
    """Over C_min(L(0..13)) at ell 3 and C_min(L(0..15)) at ell 5 the 40
    embeddings (of M, of the extension rounds' N and of the cokernels of
    the Delta-filtered quotient's coresolution) solve 64 Hom(M, T(mu)),
    each nonzero; their full windows would solve 584, 502 of them zero.
    The socle filter alone would solve 13 zero spaces, such as
    Hom(Delta(4), T(0)) at ell 3, which the exact Hom dimension of a
    Delta-filtered module drops."""
    import tiltlab.minimal

    solves = []
    inside = []
    solve, embed = tiltlab.minimal.hom_space, tiltlab.minimal.embed_into_tilting

    def counting_solve(M, N):
        basis = solve(M, N)
        if inside:
            solves.append(len(basis))
        return basis

    def marked_embed(M):
        inside.append(M)
        try:
            return embed(M)
        finally:
            inside.pop()

    monkeypatch.setattr(tiltlab.minimal, "_cmin_cache", {})
    monkeypatch.setattr(tiltlab.minimal, "hom_space", counting_solve)
    monkeypatch.setattr(tiltlab.minimal, "embed_into_tilting", marked_embed)
    for field, top in ((F3, 13), (F5, 15)):
        for n in range(top + 1):
            minimal_tilting_complex(simple_module(field, n))
    assert len(solves) == 64
    assert all(solves)


def test_a_negative_composition_multiplicity_is_an_internal_fault(monkeypatch):
    import tiltlab.standard

    # ch L(3) at ell 3 is x^3 + x^-3; a simple character that is too large,
    # chi(3) + chi(1), leaves -2x - 2x^-1
    M = simple_module(F3, 3)
    monkeypatch.setattr(tiltlab.standard, "simple_character",
                        lambda field, c: weyl_character(c) + weyl_character(c - 2))
    with pytest.raises(CertificationError, match="multiplicity -2 at weight 1"):
        embed_into_tilting(M)


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
    # Nabla(6) is its own Y (X = 0): there iota is the identity and p the
    # augmentation; the other four have Y != M and a d^0
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
            # a wrong iota: the true one with one entry changed, so that it no
            # longer commutes with the generators, which is wrong in any basis
            r, row = next((r, row) for r, row in enumerate(iota.matrix.entries) if row)
            c = min(row)
            wrong = iota.matrix.copy()
            wrong[r, c] = row[c] + field.one
            assert not _intertwines(wrong, M, Y)
            _refused(M, cmin, p, UMorphism(M, Y, wrong))
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
            lifted = lift_over_tiltings(M, mparts, N, nparts, left, h.matrix)
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
        lifted = lift_over_tiltings(M, mparts, N, nparts, left, rhs)
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
    assert lift_over_tiltings(T, parts, T, parts, left, top) is None
    # a map that moves weights is not an intertwiner either
    shift = ExactMatrix(F3, T.dim, T.dim)
    shift[1, 0] = F3.one
    assert T.weights[1] != T.weights[0]
    assert solve_chain_map(T, T, left, shift) is None
    assert lift_over_tiltings(T, parts, T, parts, left, shift) is None


@pytest.mark.parametrize("field, top", [(F3, 8), (F5, 12)], ids=["ell3", "ell5"])
def test_prune_keeps_the_components_lifting_keeps(monkeypatch, field, top):
    import tiltlab.standard

    prune = tiltlab.standard._prune_factoring
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
            m.setattr(tiltlab.standard, "_prune_factoring", counted_prune)
            _, surj, parts = cover_by_tilting(M)
        with monkeypatch.context() as m:
            m.setattr(tiltlab.standard, "_prune_factoring", prune_by_lifting)
            _, oracle_surj, oracle_parts = cover_by_tilting(M)
        # equal matrices: the same Hom basis elements, in the same order
        assert [p.label for p in parts] == [p.label for p in oracle_parts]
        assert surj.matrix == oracle_surj.matrix
    assert len(dropped) == len(inputs) and sum(dropped) > 0


def test_prune_never_factors_through_a_dropped_component():
    # A and B = A o (1 + x), x spanning rad End(T(3)), are isomorphisms
    # T(3) -> T(3) that factor through each other: A is dropped first, and B
    # must then be kept, since nothing else is left to factor through
    from tiltlab.modules import UMorphism
    from tiltlab.standard import _prune_factoring, tilting_hom_basis

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


def _non_tilting(field, top):
    """Delta(n), Nabla(n) and L(n), n <= top, that are not tilting."""
    return [build(field, n) for n in range(top + 1) for _, build in KINDS if not is_tilting(build(field, n))]


@pytest.mark.parametrize("field", [F3, F5], ids=["ell3", "ell5"])
def test_a_nabla_filtered_module_is_its_own_approximation(monkeypatch, field):
    """Y = M and X = 0, with no embedding and no quotient taken: the row is
    the left resolution of M alone."""
    import tiltlab.minimal

    def refuse(*args):
        raise AssertionError("a Nabla-filtered module was embedded or divided")

    monkeypatch.setattr(tiltlab.minimal, "embed_into_tilting", refuse)
    monkeypatch.setattr(tiltlab.minimal, "quotient_module", refuse)
    for n in range(3 * field.ell):
        M = dual_weyl_module(field, n)
        if is_tilting(M):
            continue
        Y, parts, iota, X, q = _approximation(M)
        assert Y is M and parts is None and X is None and q is None, n
        assert iota.matrix == ExactMatrix.identity(field, M.dim)
        assert max(tilting_complex_of(M)[0].degrees()) == 0, n


@pytest.mark.parametrize("field", [F3, F5], ids=["ell3", "ell5"])
def test_a_delta_filtered_module_stops_at_its_embedding(monkeypatch, field):
    """T/M is Delta-filtered for every Delta(n) here, so Y is the embedding's
    labeled T, not split, X = T/M and no extension round is taken; the row
    is the staircase construction's, byte for byte."""
    import tiltlab.minimal

    embed, split = tiltlab.minimal.embed_into_tilting, tiltlab.minimal.split_if_tilting
    embedded, splits = [], []

    def recording_embed(M):
        embedded.append(embed(M))
        return embedded[-1]

    def recording_split(M):
        splits.append(M)
        return split(M)

    def no_round(*args):
        raise AssertionError("an extension round was taken")

    monkeypatch.setattr(tiltlab.minimal, "embed_into_tilting", recording_embed)
    monkeypatch.setattr(tiltlab.minimal, "split_if_tilting", recording_split)
    monkeypatch.setattr(tiltlab.minimal, "_extension_round", no_round)
    for n in range(3 * field.ell):
        M = weyl_module(field, n)
        if is_tilting(M):
            continue
        embedded.clear()
        Y, parts, iota, X, q = _approximation(M)
        (T, emb, tparts), = embedded
        assert Y is T and parts is tparts and iota is emb and q.source is T, n
        assert X.dim == T.dim - M.dim, n
        splits.clear()
        row = tilting_complex_of(M)[0]
        assert all(S is not row.term(0) for S in splits), n
        assert complex_to_json(row) == complex_to_json(staircase_complex_of(M)[0]), n


def _staircase_table(M):
    """The label table of the minimalized staircase construction, after its
    certificate passes."""
    X, iota, pi = staircase_complex_of(M)
    res = minimalize(X)
    _certify_cmin(M, res.complex, pi.matrix @ res.chain_map[0], iota)
    return res.complex.tilting_label_table()


def _products(field, top):
    """A (x) B, A and B non-tilting Delta(n), Nabla(n) or L(n), n <= top,
    each unordered pair once, where the product is not tilting; a tilting
    factor such as L(0) would repeat the single modules."""
    factors = _non_tilting(field, top)
    pairs = (tensor_module(A, B) for i, A in enumerate(factors) for B in factors[i:])
    return [P for P in pairs if not is_tilting(P)]


POOLS = {
    "single ell3": lambda: _non_tilting(F3, 15),
    "single ell5": lambda: _non_tilting(F5, 15),
    "single ell7": lambda: _non_tilting(CycloField(7), 15),
    "product ell3": lambda: _products(F3, 7),
    "product ell5": lambda: _products(F5, 8),
}


@pytest.mark.parametrize("pool", sorted(POOLS))
def test_the_cone_matches_the_staircase_oracle(pool):
    """Over the pool, C_min from the cone has the label table of the
    minimalized staircase construction, and both certificates pass:
    minimal_tilting_complex certifies the cone before it returns or caches
    it, and _staircase_table certifies the oracle."""
    modules = POOLS[pool]()
    assert modules
    for M in modules:
        assert minimal_tilting_complex(M).label_table() == _staircase_table(M), (pool, M.character)


def test_ext_counts_do_not_depend_on_the_embedding(monkeypatch):
    """Each round's count h_c(C) - h_c(T) + h_c(N) is dim Ext^1(Delta(c), N):
    recomputed over the sum of every map into the full window
    (tests/oracles.py::embed_full_window), which is another embedding
    wherever the window holds more maps than the greedy selection takes, it
    is the same."""
    import tiltlab.minimal

    count, rounds = tiltlab.minimal._ext_counts, []

    def recording(N, T, C):
        rounds.append((N, count(N, T, C)))
        return rounds[-1][1]

    monkeypatch.setattr(tiltlab.minimal, "_cmin_cache", {})
    monkeypatch.setattr(tiltlab.minimal, "_ext_counts", recording)
    for field, top in ((F3, 10), (F5, 11)):
        for n in range(top + 1):
            minimal_tilting_complex(simple_module(field, n))
    minimal_tilting_complex(tensor_module(simple_module(F3, 4), weyl_module(F3, 3)))
    assert len(rounds) > 10
    larger = 0
    for N, counts in rounds:
        (T, _, _), solved = embed_full_window(N)
        every = [(mu, h) for mu, basis in solved.items() for h in basis]
        T_all, emb, _ = _stack_into_sum(N.field, every, N)
        larger += T_all.dim > T.dim
        C_all, _ = tiltlab.minimal.quotient_module(T_all, emb)
        again = _ext_counts(N, T_all, C_all)
        assert {c: m for c, m in again.items() if m} == {c: m for c, m in counts.items() if m}
    # most windows hold only the maps the greedy selection takes
    assert larger


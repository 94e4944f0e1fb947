"""Minimal tilting complexes.

A tilting module is its own C_min, in degree zero: the flag counts
(standard.primitive_counts, kept on each module) prove M tilting when both
its Nabla- and its Delta-count are equalities, its labels are read off its
closed-form character, and the one-term complex splits its term only when a
caller reads the parts (ChainComplex.ensure_parts).

Every other M is the cone of two one-sided resolutions (tilting_complex_of,
where the proofs that its extension rounds end and that the Delta-stop is
valid are):
  1. a left F(Nabla)-approximation 0 -> M -> Y -> X -> 0, Y Nabla-filtered
     and X Delta-filtered (Ringel, Math. Z. 208, 1991);
  2. the left resolution P_(-r) -> ... -> P_0 ->> Y of Y by tiltings, with
     augmentation eps, and the coresolution X -> X^0 -> ... -> X^k of X,
     with first embedding iota_X, whose last cokernel X^k must be tilting;
  3. one row, P_(-u) in degree -u and X^s in degree s+1, joined by
     d^0 = iota_X o q o eps: P_0 -> X^0, q: Y ->> X; then minimalize.
The row is a complex, as eps d^(-1) = 0 and d iota_X = 0.  Its cohomology is
M in degree 0: the resolutions are exact away from their ends, so H^i = 0
for i < 0 and i > 1; H^1 = 0, as ker(X^0 -> X^1) = iota_X(X) = im d^0 (eps
and q are onto); and, iota_X being injective, ker d^0 = eps^-1(M) and
im d^(-1) = ker eps, so eps induces H^0 = eps^-1(M) / ker eps = M.

C_min is certified by its Euler character, of the terms and of the
closed-form tilting characters of its labels, both equal to ch M, and by
ranks and the map that minimalize carries: H^i = 0 for i != 0, and eps maps
H^0 onto the image of M (_certify_cmin).

Every kernel of Y's resolution is Nabla-filtered, which the Nabla-count
checks, so each tilting cover is exact: one Hom(T(mu), X) per
(X:Nabla(mu)) > 0.  The embeddings are exact too: the maps into T(mu), mu
at most 2(ell-1) above the top weight, always hold an embedding, and only
the T(mu) that can receive a nonzero map are solved, one at a time,
smallest first, none after the first injective selection.
"""

from __future__ import annotations

from tiltlab.characters import decompose_into_weyl
from tiltlab.complexes import ChainComplex, labeled_direct_sum, minimalize
from tiltlab.cyclotomic import CertificationError
from tiltlab.linalg import ExactMatrix, RowEchelon
from tiltlab.modules import (
    UModule,
    UMorphism,
    direct_sum,
    hom_space,
    kernel_module,
    quotient_module,
)
from tiltlab.standard import (
    _stack_maps,
    composition_multiplicities,
    decompose_tilting_character,
    has_delta_flag,
    has_nabla_flag,
    is_tilting,
    label_table_character,
    minimal_tilting_cover,
    primitive_counts,
    split_if_tilting,
    tilting_character,
    tilting_hom_dimension,
    tilting_module,
    tilting_socle,
    weyl_module,
)

CORESOLUTION_CAP = 60
COLUMN_CAP = 60


class WindowError(RuntimeError):
    """A step cap ran out (an internal fault is a CertificationError)."""


_cmin_cache: dict = {}


def _stack_into_sum(field, component_homs, source):
    """Build M -> sum of targets from maps h_i: M -> T_i; returns (Q, emb, parts)."""
    labeled = [(("T", mu), h.target) for mu, h in component_homs]
    Q, parts = labeled_direct_sum(field, labeled)
    rows = [dict(row) for _, h in component_homs for row in h.matrix.entries]
    return Q, UMorphism(source, Q, ExactMatrix(field, Q.dim, source.dim, rows)), parts


def _stack_from_sum(field, component_homs, target):
    """Build sum of sources -> M from maps h_i: T_i -> M; returns (P, surj, parts)."""
    labeled = [(("T", mu), h.source) for mu, h in component_homs]
    P, parts = labeled_direct_sum(field, labeled)
    return P, UMorphism(P, target, _stack_maps(field, [h for _, h in component_homs], target.dim)), parts


def _greedy_embedding(components, M):
    """Take the maps h: M -> T(mu) in the order given, keeping each that
    grows the rank, until the stacked map is injective; returns the
    selection, mu descending, or None when the maps run out first."""
    ech = RowEchelon(M.field)
    chosen = []
    for mu, h in components:
        grew = False
        for row in h.matrix.entries:
            if ech.insert(row) is not None:
                grew = True
        if grew:
            chosen.append((mu, h))
        if len(ech.rows) == M.dim:
            return sorted(chosen, key=lambda c: -c[0])
    return None


def embed_into_tilting(M: UModule):
    """Injective morphism into a labeled direct sum of T(mu), mu <= top +
    2(ell-1) for the top weight of M.

    This window always holds an embedding.  St = T(ell-1) is self-dual, so
    the coevaluation k -> St (x) St embeds M into St (x) St (x) M.  St (x) X
    is tilting for every X: St (x) L(lam) = (St (x) L(lam_0)) (x)
    L(lam_1)^[1] for lam = lam_0 + ell lam_1 is tilting by Donkin's tensor
    product theorem (Andersen-Tubbenhauer, Transform. Groups 22, 2017),
    which tilting_module relies on too, and an extension of tiltings
    splits, so St (x) X is tilting along a composition series of X.  Every
    summand T(mu) of St (x) St (x) M has mu <= top + 2(ell-1), so the maps
    in Hom(M, T(mu)), mu in the window, are jointly injective; a greedy
    selection from them that is not injective contradicts this and raises
    CertificationError.

    Only the mu with [M:L(s(mu))] > 0 are solved.  T(mu) has the simple
    socle L(s(mu)) (standard.tilting_socle, where the proof is), and
    Hom(-, T(mu)) is left exact, so along a composition series of M,
    dim Hom(M, T(mu)) <= sum_c [M:L(c)] dim Hom(L(c), T(mu)) = [M:L(s(mu))].
    The multiplicities are read off ch M (standard.composition_multiplicities);
    a negative one is an internal fault and raises CertificationError.  A
    Delta-filtered M has dim Hom(M, T(mu)) = sum_c (M:Delta(c))
    (T(mu):Nabla(c)), as Ext^1(Delta, Nabla) = 0 (tilting_hom_dimension), and
    there only the mu where it is nonzero are solved.

    The greedy selection takes the maps by (dim T(mu), mu, basis index) and
    stops at the first injective selection.  dim T(mu) is read off the
    closed-form character, so the kept mu are walked in that order and each
    Hom(M, T(mu)) is solved, and T(mu) built, only when the walk reaches it.
    """
    field = M.field
    ch = M.character
    top = ch.max_weight()
    if top is None:
        raise ValueError("cannot embed the zero module")
    bound = top + 2 * (field.ell - 1)
    if has_delta_flag(M):
        weyl = decompose_into_weyl(ch)
        window = [mu for mu in range(bound + 1) if tilting_hom_dimension(field, mu, weyl)]
    else:
        try:
            mults = composition_multiplicities(field, ch)
        except ValueError as exc:
            raise CertificationError(str(exc)) from exc
        window = [mu for mu in range(bound + 1) if tilting_socle(field, mu) in mults]
    window.sort(key=lambda mu: (tilting_character(field, mu).dimension(), mu))
    components = ((mu, h) for mu in window for h in hom_space(M, tilting_module(field, mu)))
    chosen = _greedy_embedding(components, M)
    if chosen is None:
        raise CertificationError(
            f"the maps into T(mu), mu <= {bound}, do not embed a dim-{M.dim} module"
        )
    return _stack_into_sum(field, chosen, M)


def cover_by_tilting(M: UModule):
    """Surjection onto M from a labeled direct sum of T(mu): the minimal
    tilting cover of M over S(M) = {c : (M:Nabla(c)) > 0}
    (standard.minimal_tilting_cover, where the proofs are).  M must be
    Nabla-filtered, as Y and every cover kernel are; a
    solved dimension other than `tilting_hom_dimension`, or a cover that is
    not onto, raises CertificationError.
    """
    field = M.field
    if M.dim == 0:
        raise ValueError("cannot cover the zero module")
    mults = {c: m for c, m in decompose_into_weyl(M.character).items() if m > 0}
    P, surj, parts = _stack_from_sum(field, minimal_tilting_cover(M, mults, mults), M)
    if surj.matrix.rank() != M.dim:
        raise CertificationError(f"the tilting cover of a dim-{M.dim} module is not onto")
    return P, surj, parts


def _coresolution(M: UModule):
    """0 -> M -> X^0 -> ... -> X^(k-1) -> tail -> 0 with labeled tilting terms
    X^s and a Nabla-filtered tail; returns (terms, parts, maps, tail,
    iota) with maps[s]: X^s -> X^(s+1), the last of them the projection onto
    the tail, and iota: M -> X^0 the first embedding (the identity of M, its
    own tail, when k = 0)."""
    terms, partlists, maps = [], [], []
    C, iota = M, UMorphism.identity(M)
    for _ in range(CORESOLUTION_CAP):
        if has_nabla_flag(C):
            return terms, partlists, maps, C, iota
        Q, emb, parts = embed_into_tilting(C)
        coker, proj = quotient_module(Q, emb)
        if maps:
            maps[-1] = UMorphism(terms[-1], Q, emb.matrix @ maps[-1].matrix)
        else:
            iota = emb
        terms.append(Q)
        partlists.append(parts)
        maps.append(proj)
        C = coker
    raise WindowError(f"coresolution did not terminate within {CORESOLUTION_CAP} steps")


def _left_resolution(X: UModule, parts=None):
    """Column P_(-r) -> ... -> P_0 ->> X of a Nabla-filtered X, every term a
    labeled sum of T(mu).

    Returns (terms, parts, maps, augmentation) with terms[u] = P_(-u) and
    maps[u - 1]: P_(-u) -> P_(-u+1).  X is its own P_0 when it is tilting,
    with the given parts when it is a labeled sum already, and the column
    ends at the first tilting kernel.  Each cover kernel is checked
    Nabla-filtered.
    """
    if parts is None:
        parts = split_if_tilting(X)
    if parts is not None:
        return [X], [parts], [], UMorphism.identity(X)
    P, aug, pparts = cover_by_tilting(X)
    terms, partl, maps = [P], [pparts], []
    K, kincl = kernel_module(aug)
    while K.dim:
        if len(terms) > COLUMN_CAP:
            raise WindowError(f"left resolution did not terminate within {COLUMN_CAP} steps")
        if not has_nabla_flag(K):
            raise CertificationError("cover kernel lost its costandard filtration")
        kparts = split_if_tilting(K)
        if kparts is not None:
            terms.append(K)
            partl.append(kparts)
            maps.append(kincl)
            break
        P, surj, pparts = cover_by_tilting(K)
        maps.append(UMorphism(P, terms[-1], kincl.matrix @ surj.matrix))
        terms.append(P)
        partl.append(pparts)
        K, kincl = kernel_module(surj)
    return terms, partl, maps, aug


def _ext_counts(N: UModule, T: UModule, C: UModule):
    """{c: dim Ext^1(Delta(c), N)} for 0 -> N -> T -> C -> 0, T tilting:
    Ext^1(Delta(c), T) = 0 leaves the exact 0 -> Hom(Delta(c), N) ->
    Hom(Delta(c), T) -> Hom(Delta(c), C) -> Ext^1(Delta(c), N) -> 0, so it is
    h_c(C) - h_c(T) + h_c(N) (primitive_counts); a negative count raises
    CertificationError."""
    hN, hT, hC = primitive_counts(N), primitive_counts(T), primitive_counts(C)
    counts = {c: hC.get(c, 0) - hT.get(c, 0) + hN.get(c, 0) for c in hN.keys() | hT.keys() | hC.keys()}
    if min(counts.values()) < 0:
        raise CertificationError(f"Ext^1(Delta(c), N) has a negative count: {counts}")
    return counts


def _extension_round(N: UModule, emb: UMorphism, pi: UMorphism, last):
    """(c, N', N -> N'): the universal extension 0 -> N -> N' -> Delta(c)^m
    -> 0, c the largest weight with m = dim Ext^1(Delta(c), N) > 0, for N
    with emb: N -> T tilting and pi: T ->> C = T/N.

    A map from Delta(c) is fixed by its image of the highest weight vector,
    so one echelon form finds m maps g_i: Delta(c) -> C, independent modulo
    pi o Hom(Delta(c), T), a basis of Ext^1(Delta(c), N); N' is the pullback
    ker(pi - g: T + Delta(c)^m -> C).  No such c, a c not below `last` (the
    round before's), or another number of maps than m raises
    CertificationError.
    """
    field, T, C = N.field, pi.source, pi.target
    counts = _ext_counts(N, T, C)
    c = max((c for c, m in counts.items() if m > 0), default=None)
    if c is None:
        raise CertificationError("N has no Nabla-flag, but Ext^1(Delta(c), N) counts 0 at every c")
    if last is not None and c >= last:
        raise CertificationError(f"an extension round left Ext^1(Delta({c}), N) != 0,"
                                 f" not below the c = {last} of the round before")
    delta = weyl_module(field, c)
    ech = RowEchelon(field)
    for h in hom_space(delta, T):
        ech.insert((pi.matrix @ h.matrix).column(0))
    maps = [-g for g in hom_space(delta, C) if ech.insert(g.matrix.column(0)) is not None]
    if len(maps) != counts[c]:
        raise CertificationError(f"{len(maps)} maps Delta({c}) -> T/N are independent modulo T,"
                                 f" not the {counts[c]} that Ext^1 counts")
    S = direct_sum(T, *(delta for _ in maps))
    grown, kincl = kernel_module(UMorphism(S, C, _stack_maps(field, [pi, *maps], C.dim)))
    incl = kincl.matrix.solve(ExactMatrix(field, S.dim, N.dim, [*map(dict, emb.matrix.entries),
                                                                *({} for _ in range(S.dim - T.dim))]))
    if incl is None:
        raise CertificationError(f"N does not lie in its extension by Delta({c})^{len(maps)}")
    return c, grown, UMorphism(N, grown, incl)


def _approximation(M: UModule):
    """The extension rounds of tilting_complex_of: (Y, the parts of Y or
    None, iota: M -> Y, X, q: Y ->> X), X and q None when Y is M."""
    N, incl, last = M, UMorphism.identity(M), None
    while not has_nabla_flag(N):
        T, emb, parts = embed_into_tilting(N)
        C, pi = quotient_module(T, emb)
        if has_delta_flag(C):
            if N is M:
                return T, parts, emb, C, pi
            iota = UMorphism(M, T, emb.matrix @ incl.matrix)
            return (T, parts, iota, *quotient_module(T, iota))
        last, N, grow = _extension_round(N, emb, pi, last)
        incl = UMorphism(M, N, grow.matrix @ incl.matrix)
    return (M, None, incl, None, None) if N is M else (N, None, incl, *quotient_module(N, incl))


def tilting_complex_of(M: UModule):
    """(X, iota, pi): the cone X (the module docstring proves H(X) = M in
    degree 0), the embedding iota: M -> Y and pi = eps: P_0 ->> Y.

    Y is built by extension rounds from N = M, with N/M Delta-filtered:
      - if N has a Nabla-flag, Y = N and X = N/M (X = 0, no quotient taken,
        when N is M);
      - otherwise N embeds into a labeled tilting T, C = T/N, and if C has a
        Delta-flag, Y = T, not split, and X = T/M (X = C when N is M);
      - otherwise N grows by the universal extension by Delta(c)^m, c the
        largest weight with m = dim Ext^1(Delta(c), N) > 0
        (_extension_round).
    The Delta-stop is valid: T is tilting, so Nabla-filtered, and
    0 -> N/M -> T/M -> C -> 0 makes T/M Delta-filtered.  The rounds end:
    after a round Ext^1(Delta(c), N') = 0, since the connecting map from
    Hom(Delta(c), Delta(c)^m) onto Ext^1(Delta(c), N) is onto and
    Ext^1(Delta(c), Delta(c)) = 0; and for c' > c, Ext^1(Delta(c'), N') = 0,
    since Ext^1(Delta(c'), N) = 0 and Ext^1(Delta(c'), Delta(c)) = 0
    (Ext^1(Delta(a), Delta(b)) != 0 only for a < b).  So c falls every
    round, and once Ext^1(Delta, N) = 0, N has a Nabla-flag.  A round that
    does not lower c raises CertificationError, in place of a step cap; so
    does a last cokernel of the coresolution of X that is not tilting.
    """
    field = M.field
    if M.dim == 0:
        return ChainComplex.zero(field), UMorphism.identity(M), UMorphism.identity(M)
    Y, yparts, iota, X, q = _approximation(M)
    column, cparts, cmaps, eps = _left_resolution(Y, yparts)
    terms = {-u: P for u, P in enumerate(column)}
    parts = {-u: p for u, p in enumerate(cparts)}
    diffs = {-u: d for u, d in enumerate(cmaps, 1)}
    if X is not None:
        row, rparts, rmaps, tail, iota_X = _coresolution(X)
        tparts = split_if_tilting(tail)
        if tparts is None:
            raise CertificationError(f"the coresolution of a Delta-filtered quotient ends in a"
                                     f" dim-{tail.dim} cokernel that is not tilting")
        for s, (term, p) in enumerate(zip([*row, tail], [*rparts, tparts]), 1):
            terms[s], parts[s] = term, p
        diffs[0] = UMorphism(column[0], terms[1], iota_X.matrix @ q.matrix @ eps.matrix)
        diffs.update(enumerate(rmaps, 1))
    return ChainComplex(field, terms, diffs, parts), iota, eps


class MinimalTiltingComplex:
    """Minimal bounded tilting complex with degree-zero cohomology the source."""

    def __init__(self, source: UModule, complex_: ChainComplex):
        self.source = source
        self.complex = complex_

    def label_table(self):
        return self.complex.tilting_label_table()

    def degrees(self):
        return self.complex.degrees()

    def __repr__(self):
        return f"MinimalTiltingComplex({self.label_table()})"


def minimal_tilting_complex(M: UModule) -> MinimalTiltingComplex:
    """C_min of M: constructed, minimalized, certified and cached."""
    key = (M.field.ell, M.fingerprint())
    if key in _cmin_cache:
        return _cmin_cache[key]
    field = M.field
    if M.dim == 0:
        result = MinimalTiltingComplex(M, ChainComplex.zero(field))
        _cmin_cache[key] = result
        return result
    if is_tilting(M):
        labels = decompose_tilting_character(field, M.character)
        single = ChainComplex(field, {0: M}, {}, labels={0: {("T", mu): m for mu, m in labels.items()}})
        result = MinimalTiltingComplex(M, single)
        _cmin_cache[key] = result
        return result
    X, iota, pi = tilting_complex_of(M)
    res = minimalize(X)
    cmin = res.complex
    _certify_cmin(M, cmin, pi.matrix @ res.chain_map[0], iota)
    result = MinimalTiltingComplex(M, cmin)
    _cmin_cache[key] = result
    return result


def _certify_cmin(M: UModule, cmin: ChainComplex, p: ExactMatrix, iota: UMorphism):
    """Exact checks on C = C_min(M), by linear algebra only: the Euler
    character of its terms and of its tilting labels equals ch M, and
    p: C^0 -> Y (pi o f^0, from the construction and minimalize) proves
    H(C) = M in degree zero against the embedding iota: M -> Y.

    The checks: d o d = 0; dim C^i = rank d^i + rank d^(i-1) for i != 0, so
    H^i = 0 there; p and iota preserve weights and commute with E, F, E^(l)
    and F^(l); p o d^(-1) = 0; dim ker d^0 - rank d^(-1) = dim M; and p(Z),
    Z = ker d^0, has rank dim M and lies in im iota.  Proof of H^0 = M: p is
    a module map on Z that kills im d^(-1), so it induces H^0 -> Y with
    image p(Z).  As dim p(Z) = dim M = dim H^0, that map is injective, so
    H^0 = p(Z).  p(Z) lies in im iota, of dimension at most dim M, so
    p(Z) = im iota and iota is injective: H^0 = im iota = M.  No check
    trusts p or iota, so a wrong one can only make the certificate fail.
    """
    ch = M.character
    if cmin.euler_character() != ch:
        raise CertificationError("Euler character of the minimal complex is not ch M")
    if label_table_character(M.field, cmin.tilting_label_table()) != ch:
        raise CertificationError("tilting labels of the minimal complex do not add up to ch M")
    cmin.check()
    dims = cmin.cohomology_dimensions()
    if set(dims) - {0} or dims.get(0) != M.dim:
        raise CertificationError(f"minimal complex has cohomology of dimensions {dims}, not {{0: {M.dim}}}")
    C0, Y = cmin.term(0), iota.target
    pZ = p @ cmin.differential(0).matrix.kernel()
    if not (_intertwines(p, C0, Y) and _intertwines(iota.matrix, M, Y)
            and (p @ cmin.differential(-1).matrix).is_zero()
            and pZ.rank() == M.dim and iota.matrix.solve(pZ) is not None):
        raise CertificationError("degree-zero cohomology is not the source module")


def _intertwines(m: ExactMatrix, S: UModule, T: UModule) -> bool:
    """Whether m: S -> T preserves weights and commutes with E, F, E^(l), F^(l)."""
    return (all(T.weights[r] == S.weights[c] for r, row in enumerate(m.entries) for c in row)
            and all(getattr(T, g) @ m == m @ getattr(S, g) for g in ("E", "F", "El", "Fl")))


def filtration_dimensions(M: UModule):
    """(good filtration dimension, Weyl filtration dimension) from C_min."""
    c = minimal_tilting_complex(M).complex
    if c.is_zero():
        return (0, 0)
    return (max(0, c.max_degree), max(0, -c.min_degree))

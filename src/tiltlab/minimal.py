"""Minimal tilting complexes.

The construction is a checked pipeline: (1) coresolve the module by sums of
indecomposable tiltings X^0, ..., X^(k-1) until the cokernel, the tail,
acquires a costandard filtration, (2) resolve the tail, the one term that is
not already a labeled sum of T(mu), on the left by tiltings until a kernel
becomes tilting, (3) join the coresolution to that column by one staircase
of maps and totalize, verifying that the square vanishes exactly, then
(4) minimalize.  The result is certified by
its Euler character, of the terms and of the closed-form tilting characters
of its labels, both equal to ch M, and by ranks and the map that minimalize
carries: H^i = 0 for i != 0, and the map of degree 0 onto the
coresolution's first term, or onto M when M is its own tail, maps H^0 onto
the image of M (_certify_cmin).

A tilting module is its own C_min, in degree zero.  Flags are decided by
counting primitive vectors (standard.primitive_counts): M is tilting exactly
when both its Nabla- and its Delta-count are equalities, and then its labels
are read off its closed-form character and nothing is split; the one-term
complex splits its term only when a caller reads the parts
(ChainComplex.ensure_parts).  The same counts decide when the tail of the
coresolution is costandard-filtered, and when it, or a kernel of a left
resolution, is already tilting; each count is kept on its module, so the
short path and the construction share the source module's counts.
Every kernel is costandard-filtered, which the Nabla-count checks, so each
tilting cover is exact: one Hom(T(mu), X) per (X:Nabla(mu)) > 0.  The
embeddings are exact too: one window of Hom(M, T(mu)), mu at most 2(ell-1)
above the top weight of M, always holds an embedding.

Every grid term is a sum of T(mu) with known parts, so maps between them are
solved over the cached bases of Hom(T(a), T(b)) (standard.tilting_hom_basis):
a cover component is dropped when it lies in the span of the other
components composed with those bases, and the maps of the staircase solve
only for coefficients in them.
"""

from __future__ import annotations

from tiltlab.characters import decompose_into_weyl
from tiltlab.complexes import ChainComplex, labeled_direct_sum, minimalize, total_complex
from tiltlab.cyclotomic import CertificationError
from tiltlab.linalg import ExactMatrix, RowEchelon, SparseSystem
from tiltlab.modules import (
    UModule,
    UMorphism,
    hom_space,
    kernel_module,
    quotient_module,
)
from tiltlab.standard import (
    decompose_tilting_character,
    has_nabla_flag,
    is_tilting,
    label_table_character,
    split_if_tilting,
    tilting_hom_basis,
    tilting_hom_dimension,
    tilting_module,
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
    mat = ExactMatrix(field, target.dim, P.dim)
    off = 0
    for _, h in component_homs:
        for row, hrow in zip(mat.entries, h.matrix.entries):
            row.update((off + c, v) for c, v in hrow.items())
        off += h.source.dim
    return P, UMorphism(P, target, mat), parts


def _greedy_embedding(components, M):
    """Select maps h: M -> T (small targets first) until the stacked map is
    injective; returns the selection or None."""
    order = sorted(
        range(len(components)),
        key=lambda i: (components[i][1].target.dim, components[i][0], i),
    )
    ech = RowEchelon(M.field)
    chosen = []
    for i in order:
        mu, h = components[i]
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
    """
    field = M.field
    top = M.character.max_weight()
    if top is None:
        raise ValueError("cannot embed the zero module")
    bound = top + 2 * (field.ell - 1)
    components = [(mu, h) for mu in range(bound, -1, -1)
                  for h in hom_space(M, tilting_module(field, mu))]
    chosen = _greedy_embedding(components, M)
    if chosen is None:
        raise CertificationError(
            f"the maps into T(mu), mu <= {bound}, do not embed a dim-{M.dim} module"
        )
    return _stack_into_sum(field, chosen, M)


def cover_by_tilting(M: UModule):
    """Surjection onto M from a labeled direct sum of T(mu); M must be
    Nabla-filtered, as the coresolution's tail and every cover kernel are.

    The bases of Hom(T(mu), M), mu in S(M) = {c : (M:Nabla(c)) > 0}, give a
    right add(T)-approximation P -> M with Nabla-filtered kernel (Ringel,
    Math. Z. 208, 1991; Auslander-Reiten, Adv. Math. 86, 1991): a map
    Delta(c) -> M extends along Delta(c) -> T(c), whose cokernel is
    Delta-filtered, so Hom(Delta(c), P) -> Hom(Delta(c), M) is onto, and
    P -> M is onto by induction along a Nabla-flag.  A solved dimension other
    than `tilting_hom_dimension`, or a cover that is not onto, raises
    CertificationError.  The prune keeps the approximation.
    """
    field = M.field
    if M.dim == 0:
        raise ValueError("cannot cover the zero module")
    mults = {c: m for c, m in decompose_into_weyl(M.character).items() if m > 0}
    components = []
    for mu in sorted(mults, reverse=True):
        homs = hom_space(tilting_module(field, mu), M)
        expected = tilting_hom_dimension(field, mu, mults)
        if len(homs) != expected:
            raise CertificationError(f"Hom(T({mu}), M) has dimension {len(homs)}, not {expected}")
        components += [(mu, h) for h in homs]
    if not _is_onto(components, M):
        raise CertificationError(f"the tilting cover of a dim-{M.dim} module is not onto")
    components = _prune_factoring(field, components, M)
    return _stack_from_sum(field, components, M)


def _is_onto(components, M):
    """Whether the images of the maps h: T -> M span M; the columns are
    inserted into one echelon form until its rank reaches dim M."""
    ech = RowEchelon(M.field)
    for _, h in components:
        for col in h.matrix.transpose().entries:
            if ech.insert(col) is not None and len(ech.rows) == M.dim:
                return True
    return False


def _flatten(mat: ExactMatrix):
    """The entries of a matrix as one sparse vector, entry (r, c) at r * cols + c."""
    n = mat.cols
    return {r * n + c: v for r, row in enumerate(mat.entries) for c, v in row.items()}


def _prune_factoring(field, components, M):
    """Drop cover components that factor through the remaining ones.

    h_i: T(mu_i) -> M factors through the other kept components exactly when
    it lies in the span of the h_j o phi, phi in the basis of
    Hom(T(mu_i), T(mu_j)) (a right approximation is minimal once no
    component does; Auslander-Smalo 1980).  Components are tested from the
    largest source down, each against the components still kept.
    """
    kept = list(components)
    order = sorted(
        range(len(kept)), key=lambda i: kept[i][1].source.dim, reverse=True
    )
    composites = {}  # (j, mu) -> the h_j o phi over the basis of Hom(T(mu), T(mu_j))
    for i in order:
        mu_i, h_i = kept[i]
        ech = RowEchelon(field)
        for j, comp in enumerate(kept):
            if j == i or comp is None:
                continue
            vecs = composites.get((j, mu_i))
            if vecs is None:
                mu_j, h_j = comp
                vecs = [_flatten(h_j.matrix @ phi.matrix)
                        for phi in tilting_hom_basis(field, mu_i, mu_j)]
                composites[(j, mu_i)] = vecs
            for vec in vecs:
                ech.insert(vec)
        residual, _ = ech.reduce(_flatten(h_i.matrix))
        if not residual:
            kept[i] = None
    return [c for c in kept if c is not None]


def _coresolution(M: UModule):
    """0 -> M -> X^0 -> ... -> X^(k-1) -> tail -> 0 with labeled tilting terms
    X^s and a costandard-filtered tail; returns (terms, parts, maps, tail,
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


def _left_resolution(X: UModule):
    """Column P_(-r) -> ... -> P_0 ->> X of the Nabla-filtered tail X, every
    term a labeled sum of T(mu).

    Returns (terms, parts, maps, augmentation) with terms[u] = P_(-u) and
    maps[u - 1]: P_(-u) -> P_(-u+1).  X is its own P_0 when it is tilting,
    and the column ends at the first tilting kernel.  Each cover kernel is
    checked Nabla-filtered.
    """
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


def _lift_over_tiltings(src, src_parts, tgt, tgt_parts, left: ExactMatrix, rhs: ExactMatrix):
    """The intertwiner f: src -> tgt with left @ f = rhs that is zero on the
    free unknowns of the intertwiner equations of Hom(src, tgt), or None when
    there is no such intertwiner.

    src and tgt are sums of T(mu) with the given parts, so Hom(src, tgt) has
    the basis iota_j phi pi_i, phi in the cached basis of Hom(T(mu_i),
    T(nu_j)), and only its coefficients are solved for.  The solution found
    is then reduced by the homogeneous solutions, in reduced echelon form
    with pivot the last nonzero entry in the order of the unknowns of
    `intertwiner_equations` (weight descending, then row, then column).
    That leaves the one solution which is zero at those pivots, the free
    unknowns of a solve over all weight-preserving entries.
    """
    field = left.field
    basis = [(i, j, phi.matrix)
             for j, q in enumerate(tgt_parts)
             for i, p in enumerate(src_parts)
             for phi in tilting_hom_basis(field, p.label[1], q.label[1])]

    def combine(coeffs):
        """sum_k coeffs[k] iota_j phi_k pi_i over the basis (i, j, phi_k)."""
        blocks = {}
        for k, c in coeffs.items():
            i, j, phi = basis[k]
            term = phi.scale(c)
            blocks[(i, j)] = blocks[(i, j)] + term if (i, j) in blocks else term
        out = ExactMatrix(field, tgt.dim, src.dim)
        for (i, j), block in blocks.items():
            out = out + tgt_parts[j].inclusion.matrix @ block @ src_parts[i].projection.matrix
        return out

    # one equation sum_k c_k (left @ B_k)[r, c] = rhs[r, c] per entry (r, c)
    left_incl = [left @ q.inclusion.matrix for q in tgt_parts]
    rows = {}
    for k, (i, j, phi) in enumerate(basis):
        image = left_incl[j] @ phi @ src_parts[i].projection.matrix
        for cell, v in _flatten(image).items():
            rows.setdefault(cell, {})[k] = v
    sys = SparseSystem(field, len(basis))
    target = _flatten(rhs)
    for cell in rows.keys() | target.keys():
        sys.add_row(rows.get(cell, {}), target.get(cell))
    solved = sys.echelon()
    coeffs = solved.particular_solution(len(basis))
    if coeffs is None:
        return None
    f = combine(coeffs)
    homogeneous = solved.kernel_basis(len(basis)) if coeffs else []
    if not homogeneous:
        return f
    # key (w, -r, -c) of entry (r, c) of weight w: the least key is the last
    # unknown, so RowEchelon's pivots are the last nonzero entries
    weights = tgt.weights

    def reversed_cells(mat):
        return {(weights[r], -r, -c): v for r, row in enumerate(mat.entries) for c, v in row.items()}

    ech = RowEchelon(field)
    for vec in homogeneous:
        ech.insert(reversed_cells(combine(vec)))
    residual, _ = ech.reduce(reversed_cells(f))
    out = ExactMatrix(field, tgt.dim, src.dim)
    for (_, r, c), v in residual.items():
        out.entries[-r][-c] = v
    return out


def tilting_complex_of(M: UModule):
    """(X, iota, pi): a bounded complex X of tiltings quasi-isomorphic to M
    (degree-0 cohomology), the embedding iota: M -> Y of the coresolution and
    pi: X^0 -> Y, zero off the (0, 0) block.  There pi is the identity of
    Y = X^0 when k >= 1, and the augmentation P_0 ->> Y = M when k = 0.

    X^s of the coresolution sits at (s, 0), and P_(-u) of the tail's column
    at (k, -u), k the number of tilting terms.  The maps d_s: X^s -> X^(s+1)
    for s < k-1 and the column's maps are components as they are.  A
    staircase g_j: X^(k-1-j) -> P_(-j) joins the two: g_0 lifts the
    projection X^(k-1) ->> tail through P_0 ->> tail (it is the projection
    itself when the tail is tilting), and g_j solves
    d o g_j = -g_(j-1) o d_(k-1-j), so that the square of the total
    differential vanishes from X^(k-1-j) to P_(-j+1), until a right-hand
    side is zero.
    """
    field = M.field
    if M.dim == 0:
        return ChainComplex.zero(field), UMorphism.identity(M), UMorphism.identity(M)
    terms, partlists, maps, tail, iota = _coresolution(M)
    column, cparts, cmaps, aug = _left_resolution(tail)
    k = len(terms)
    grid = {(s, 0): X for s, X in enumerate(terms)}
    gparts = {(s, 0): parts for s, parts in enumerate(partlists)}
    for u, (P, parts) in enumerate(zip(column, cparts)):
        grid[(k, -u)] = P
        gparts[(k, -u)] = parts
    components = {((k, -u), (k, 1 - u)): d.matrix for u, d in enumerate(cmaps, 1)}
    for s, d in enumerate(maps[:-1]):
        components[((s, 0), (s + 1, 0))] = d.matrix
    if k:
        g = maps[-1].matrix
        if column[0] is not tail:
            g = _lift_over_tiltings(terms[-1], partlists[-1], column[0], cparts[0], aug.matrix, g)
            if g is None:
                raise CertificationError(f"vertical lift at column {k - 1}, level 0 is inconsistent")
        components[((k - 1, 0), (k, 0))] = g
    for j in range(1, k):
        s = k - 1 - j
        rhs = g @ maps[s].matrix
        if rhs.is_zero():
            break
        where = f"correction at column {s}, level 0"
        if j == len(column):
            raise CertificationError(f"{where} has nowhere to go")
        g = _lift_over_tiltings(terms[s], partlists[s], column[j], cparts[j], cmaps[j - 1].matrix, -rhs)
        if g is None:
            raise CertificationError(f"{where} is inconsistent")
        components[((s, 0), (k, -j))] = g
    X = total_complex(field, grid, components, gparts)
    # the (0, 0) block comes first in degree 0, and is all of it when k = 0
    X0, Y = X.term(0), iota.target
    pi = ExactMatrix(field, Y.dim, X0.dim, [{r: field.one} for r in range(Y.dim)]) if k else aug.matrix
    return X, iota, UMorphism(X0, Y, pi)


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

"""Minimal tilting complexes.

The construction is a checked pipeline: (1) coresolve the module by sums of
indecomposable tiltings until the cokernel acquires a costandard filtration,
(2) resolve every term on the left by tiltings until kernels become tilting,
(3) assemble the columns into a twisted total complex whose square is
verified to vanish exactly, then (4) minimalize.  The result is certified by
its Euler character, of the terms and of the closed-form tilting characters
of its labels, both equal to ch M, and by recomputing cohomology: the source
module in degree zero and nothing else.

A tilting module is its own C_min, in degree zero.  M is recognized as
tilting by the Krull-Schmidt split (standard.tilting_parts): it is tilting
exactly when it splits into the T(mu) that its closed-form character
predicts, so no Delta- or Nabla-flag is peeled for it.  The same test decides
when the tail of the coresolution, and a kernel of a left resolution, is
already tilting; those are costandard-filtered, which the Nabla-peel checks.
"""

from __future__ import annotations

from tiltlab.complexes import ChainComplex, labeled_direct_sum, minimalize, total_complex
from tiltlab.cyclotomic import CertificationError
from tiltlab.linalg import ExactMatrix, RowEchelon
from tiltlab.modules import (
    UModule,
    UMorphism,
    find_isomorphism,
    hom_space,
    image_module,
    intertwiner_equations,
    kernel_module,
    quotient_module,
    unknowns_to_matrix,
)
from tiltlab.standard import (
    label_table_character,
    peel_standard_filtration,
    tilting_module,
    tilting_parts,
)

CORESOLUTION_CAP = 60
COLUMN_CAP = 60
WINDOW_MARGIN_FACTOR = 4  # search window grows up to margin * this


class WindowError(RuntimeError):
    """A search window was exhausted; never silently return a wrong complex."""


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
    """Injective morphism into a labeled direct sum of T(mu).

    The candidate window is max weight of M plus 2(ell-1), doubled on failure
    up to a hard cap; exhaustion raises WindowError with the attempted bound.
    """
    field = M.field
    ell = field.ell
    top = M.character.max_weight()
    if top is None:
        raise ValueError("cannot embed the zero module")
    margin = 2 * (ell - 1)
    attempt = margin
    while attempt <= margin * WINDOW_MARGIN_FACTOR:
        bound = top + attempt
        components = []
        for mu in range(bound, -1, -1):
            for h in hom_space(M, tilting_module(field, mu)):
                components.append((mu, h))
        chosen = _greedy_embedding(components, M)
        if chosen is not None:
            return _stack_into_sum(field, chosen, M)
        attempt *= 2
    raise WindowError(
        f"no embedding of a dim-{M.dim} module into tiltings with highest "
        f"weight <= {top + margin * WINDOW_MARGIN_FACTOR}"
    )


def cover_by_tilting(M: UModule):
    """Surjection onto M from a labeled direct sum of T(mu).

    The cover starts from the full Hom basis over the window, so that every
    morphism from a tilting module factors through it (then kernels of covers
    of costandard-filtered modules stay costandard filtered); components are
    only dropped when they factor through the rest, which preserves that
    property exactly.
    """
    field = M.field
    ell = field.ell
    top = M.character.max_weight()
    if top is None:
        raise ValueError("cannot cover the zero module")
    margin = 2 * (ell - 1)
    attempt = margin
    while attempt <= margin * WINDOW_MARGIN_FACTOR:
        bound = top + attempt
        components = []
        for mu in range(bound, -1, -1):
            for h in hom_space(tilting_module(field, mu), M):
                components.append((mu, h))
        _, surj, _ = _stack_from_sum(field, components, M)
        if surj.matrix.rank() == M.dim:
            components = _prune_factoring(field, components, M)
            return _stack_from_sum(field, components, M)
        attempt *= 2
    raise WindowError(
        f"no tilting cover of a dim-{M.dim} module with highest weight "
        f"<= {top + margin * WINDOW_MARGIN_FACTOR}"
    )


def _prune_factoring(field, components, M):
    """Drop cover components that factor through the remaining ones."""
    kept = list(components)
    order = sorted(
        range(len(kept)), key=lambda i: kept[i][1].source.dim, reverse=True
    )
    for i in order:
        rest = [kept[j] for j in range(len(kept)) if j != i and kept[j] is not None]
        if not rest:
            continue
        mu_i, h_i = kept[i]
        P_rest, surj_rest, _ = _stack_from_sum(field, rest, M)
        lift = _solve_chain_map(
            h_i.source, P_rest, surj_rest.matrix, h_i.matrix
        )
        if lift is not None:
            kept[i] = None
    return [c for c in kept if c is not None]


def _coresolution(M: UModule):
    """Terms and maps of 0 -> M -> X^0 -> X^1 -> ... with tilting terms and a
    costandard-filtered tail; returns (terms, parts_per_term, maps)."""
    field = M.field
    terms = []
    partlists = []
    maps = []  # maps[s]: X^s -> X^{s+1}
    C = M
    prev_proj = None  # X^{s-1} ->> C
    for _ in range(CORESOLUTION_CAP):
        if C.dim == 0:
            return terms, partlists, maps
        if peel_standard_filtration(C, "nabla") is not None:
            terms.append(C)
            partlists.append(None)  # resolved later by the column machinery
            if prev_proj is not None:
                maps.append(prev_proj)
            return terms, partlists, maps
        Q, emb, parts = embed_into_tilting(C)
        img, incl = image_module(emb)
        coker, proj = quotient_module(Q, incl)
        terms.append(Q)
        partlists.append(parts)
        if prev_proj is not None:
            maps.append(UMorphism(terms[-2], Q, emb.matrix @ prev_proj.matrix))
        C = coker
        prev_proj = proj
    raise WindowError(f"coresolution did not terminate within {CORESOLUTION_CAP} steps")


def _left_resolution(X: UModule, parts):
    """Column [P_(-r) -> ... -> P_0] with P_0 ->> X; all terms labeled tilting.

    Returns (term_list, part_list, inner_maps, augmentation) where term_list
    is indexed by t = 0, -1, ..., inner_maps[t]: term[t] -> term[t+1].
    """
    field = X.field
    if parts is None:
        # X is the costandard-filtered tail of the coresolution; it is
        # already tilting exactly when it splits into the T(mu) that its
        # character predicts
        parts = tilting_parts(X)
    if parts is not None:
        return [X], [parts], {}, UMorphism.identity(X)
    terms = []
    partl = []
    inner = {}
    P0, surj, p0parts = cover_by_tilting(X)
    terms.append(P0)
    partl.append(p0parts)
    aug = surj
    K, kincl = kernel_module(surj)
    t = 0
    while K.dim:
        t -= 1
        if -t > COLUMN_CAP:
            raise WindowError(f"left resolution did not terminate within {COLUMN_CAP} steps")
        if peel_standard_filtration(K, "nabla") is None:
            raise WindowError(
                "cover kernel lost its costandard filtration; approximation failed"
            )
        kparts = tilting_parts(K)
        if kparts is not None:
            terms.append(K)
            partl.append(kparts)
            inner[t] = kincl
            break
        P, surj_k, pparts = cover_by_tilting(K)
        terms.append(P)
        partl.append(pparts)
        inner[t] = UMorphism(P, terms[-2], kincl.matrix @ surj_k.matrix)
        K, kincl = kernel_module(surj_k)
    # terms[0] is at t=0, terms[1] at t=-1, ...
    return terms, partl, inner, aug


def _solve_chain_map(src, tgt, left: ExactMatrix, rhs: ExactMatrix):
    """Particular intertwiner f: src -> tgt with left @ f = rhs.

    The constraint rows join the intertwiner equations of Hom(src, tgt).
    Returns the matrix of f, or None when inconsistent.
    """
    sys, var_ids = intertwiner_equations(src, tgt)
    # the unknowns f[r, c] of each row r
    by_row = {}
    for (r, c), k in var_ids.items():
        by_row.setdefault(r, []).append((c, k))
    # constraint rows: (left @ f)[i, c] = rhs[i, c], for the c where either
    # side has a nonzero term
    for lrow, rrow in zip(left.entries, rhs.entries):
        by_column = {}
        for r, v in lrow.items():
            for c, k in by_row.get(r, ()):
                by_column.setdefault(c, {})[k] = v
        for c in sorted(by_column.keys() | rrow.keys()):
            sys.add_row(by_column.get(c, {}), rrow.get(c))
    sol = sys.particular_solution()
    if sol is None:
        return None
    return unknowns_to_matrix(src, tgt, list(var_ids), sol)


def tilting_complex_of(M: UModule) -> ChainComplex:
    """A bounded complex of tiltings quasi-isomorphic to M (degree-0 cohomology)."""
    field = M.field
    if M.dim == 0:
        return ChainComplex.zero(field)
    terms, partlists, maps = _coresolution(M)
    columns = []
    for X, parts in zip(terms, partlists):
        columns.append(_left_resolution(X, parts))
    ncols = len(columns)
    # grid[(s, t)] modules and horizontal differentials inside columns
    grid = {}
    gparts = {}
    d0 = {}
    for s, (cterms, cparts, inner, aug) in enumerate(columns):
        for u, (tm, ps) in enumerate(zip(cterms, cparts)):
            grid[(s, -u)] = tm
            gparts[(s, -u)] = ps
        for t, mor in inner.items():
            d0[(s, t)] = mor.matrix
    # vertical lifts f1[(s, t)]: grid[(s,t)] -> grid[(s+1,t)]
    f1 = {}
    for s in range(ncols - 1):
        aug_s = columns[s][3]
        aug_s1 = columns[s + 1][3]
        d_s = maps[s]
        rhs0 = d_s.matrix @ aug_s.matrix
        sol = _solve_chain_map(grid[(s, 0)], grid[(s + 1, 0)], aug_s1.matrix, rhs0)
        if sol is None:
            raise WindowError(f"vertical lift at column {s}, level 0 is inconsistent")
        f1[(s, 0)] = sol
        t = 0
        while (s, t - 1) in grid:
            t -= 1
            if (s + 1, t) not in grid:
                # lift must compose to zero through the lower boundary
                comp = f1[(s, t + 1)] @ d0[(s, t)]
                if not comp.is_zero():
                    raise WindowError(f"vertical lift leaks below column {s + 1} at t={t}")
                break
            rhs = f1[(s, t + 1)] @ d0[(s, t)]
            sol = _solve_chain_map(grid[(s, t)], grid[(s + 1, t)], d0[(s + 1, t)], rhs)
            if sol is None:
                raise WindowError(f"vertical lift at column {s}, level {t} is inconsistent")
            f1[(s, t)] = sol
    # store D_1 with the sign twist (-1)^t
    comps = {}  # (k, s, t) -> matrix for D_k component at (s,t)
    for (s, t), mat in d0.items():
        comps[(0, s, t)] = mat
    for (s, t), mat in f1.items():
        comps[(1, s, t)] = mat if t % 2 == 0 else -mat
    # higher corrections D_k: (s,t) -> (s+k, t+1-k), solved layer by layer
    for k in range(2, ncols):
        layer = {}
        for s in range(ncols - k):
            for t in sorted((tt for (ss, tt) in grid if ss == s), reverse=True):
                # residual R = sum_{0<a<k} D_a D_{k-a} at (s,t), target (s+k, t+1-k)
                tgt_pos = (s + k, t + 1 - k)
                res = None
                for a in range(1, k):
                    b = k - a
                    mid = (s + b, t + 1 - b)
                    first = comps.get((b, s, t))
                    second = comps.get((a,) + mid)
                    if first is not None and second is not None:
                        term = second @ first
                        res = term if res is None else res + term
                # equation: D_0 X + (layer at (s, t+1)) D_0 + R = 0
                known = layer.get((s, t + 1))
                if known is not None and (0, s, t) in comps:
                    term = known @ comps[(0, s, t)]
                    res = term if res is None else res + term
                if res is None or res.is_zero():
                    continue
                if tgt_pos not in grid:
                    raise WindowError(
                        f"correction at column {s}, level {t} has nowhere to go"
                    )
                # unknown X: (s,t) -> tgt_pos with d0 (at tgt_pos) o X = -res
                left = comps.get((0,) + tgt_pos)
                if left is None:
                    raise WindowError(
                        f"correction at column {s}, level {t}: no differential at target"
                    )
                sol = _solve_chain_map(grid[(s, t)], grid[tgt_pos], left, -res)
                if sol is None:
                    raise WindowError(
                        f"correction at column {s}, level {t} is inconsistent"
                    )
                layer[(s, t)] = sol
        for (s, t), mat in layer.items():
            comps[(k, s, t)] = mat
    components = {((s, t), (s + k, t + 1 - k)): mat for (k, s, t), mat in comps.items()}
    return total_complex(field, grid, components, gparts)


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
    parts = tilting_parts(M)
    if parts is not None:
        single = ChainComplex(field, {0: M}, {}, {0: parts})
        result = MinimalTiltingComplex(M, single)
        _cmin_cache[key] = result
        return result
    cmin = minimalize(tilting_complex_of(M)).complex
    _certify_cmin(M, cmin)
    result = MinimalTiltingComplex(M, cmin)
    _cmin_cache[key] = result
    return result


def _certify_cmin(M: UModule, cmin: ChainComplex):
    """Exact checks on C_min(M): the Euler character of its terms and of its
    tilting labels equals ch M, and its cohomology is M in degree zero."""
    ch = M.character
    if cmin.euler_character() != ch:
        raise CertificationError("Euler character of the minimal complex is not ch M")
    if label_table_character(M.field, cmin.tilting_label_table()) != ch:
        raise CertificationError("tilting labels of the minimal complex do not add up to ch M")
    coh = cmin.cohomology()
    if set(coh) - {0}:
        raise CertificationError(f"minimal complex has cohomology in degrees {sorted(coh)}")
    h0 = coh.get(0)
    if M.dim == 0:
        if h0 is not None:
            raise CertificationError("expected acyclic complex for the zero module")
        return
    if h0 is None or h0.dim != M.dim or find_isomorphism(h0, M) is None:
        raise CertificationError("degree-zero cohomology is not the source module")


def filtration_dimensions(M: UModule):
    """(good filtration dimension, Weyl filtration dimension) from C_min."""
    c = minimal_tilting_complex(M).complex
    if c.is_zero():
        return (0, 0)
    return (max(0, c.max_degree), max(0, -c.min_degree))

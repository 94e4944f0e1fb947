"""Test oracles shared by several test files.

Production code never needs these checks: `minimalize` stops only when no
block is cancellable, and the pipeline certifies injectivity and
surjectivity through its own exact invariants.
"""

import hashlib
from fractions import Fraction

from tiltlab.alcove import _check_dominant, linkage_class
from tiltlab.complexes import ChainComplex, _find_cancellable, _part_blocks, total_complex
from tiltlab.cyclotomic import CertificationError, sum_of_products
from tiltlab.linalg import ExactMatrix, RowEchelon
from tiltlab.minimal import _stack_from_sum, _stack_into_sum
from tiltlab.modules import (
    UModule,
    UMorphism,
    _homogeneous_components,
    _shifts,
    hom_space,
    intertwiner_equations,
    kernel_module,
    tensor_module,
    unknowns_to_matrix,
    weight_echelons,
)
from tiltlab.serialize import canonical_dumps
from tiltlab.standard import tilting_module, weyl_module

_peeled_tilting_cache = {}


def is_minimal(X: ChainComplex) -> bool:
    """No differential block between equal indecomposable summands is
    invertible."""
    X.ensure_parts()
    parts = {i: [(p.label, p.module) for p in X.parts[i]] for i in X.degrees()}
    return _find_cancellable(parts, _part_blocks(X)) is None


def is_injective(phi) -> bool:
    return phi.matrix.rank() == phi.source.dim


def is_surjective(phi) -> bool:
    return phi.matrix.rank() == phi.target.dim


def solve_chain_map(src, tgt, left, rhs):
    """Particular intertwiner f: src -> tgt with left @ f = rhs, zero on the
    free unknowns, or None when inconsistent.

    The constraint rows join the intertwiner equations of Hom(src, tgt), so
    every weight-preserving entry of f is an unknown.
    """
    sys, var_ids = intertwiner_equations(src, tgt)
    by_row = {}  # the unknowns f[r, c] of each row r
    for (r, c), k in var_ids.items():
        by_row.setdefault(r, []).append((c, k))
    # (left @ f)[i, c] = rhs[i, c], for the c where either side has a term
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


def prune_by_lifting(field, components, M):
    """Drop cover components h_i: T(mu_i) -> M that lift, as intertwiners,
    through the sum of the other kept components, largest source first."""
    kept = list(components)
    order = sorted(range(len(kept)), key=lambda i: kept[i][1].source.dim, reverse=True)
    for i in order:
        rest = [kept[j] for j in range(len(kept)) if j != i and kept[j] is not None]
        if not rest:
            continue
        _, h_i = kept[i]
        P_rest, surj_rest, _ = _stack_from_sum(field, rest, M)
        if solve_chain_map(h_i.source, P_rest, surj_rest.matrix, h_i.matrix) is not None:
            kept[i] = None
    return [c for c in kept if c is not None]


def embed_full_window(M):
    """The eager embedding of M: Hom(M, T(mu)) solved, and T(mu) built, for
    every mu <= top + 2(ell-1), then maps taken by (dim T(mu), mu, basis
    index) until the stacked map is injective.  Returns ((Q, emb, parts),
    {mu: basis of Hom(M, T(mu))}); raises CertificationError when the
    window holds no embedding."""
    field = M.field
    bound = M.character.max_weight() + 2 * (field.ell - 1)
    solved = {mu: hom_space(M, tilting_module(field, mu)) for mu in range(bound, -1, -1)}
    components = [(mu, h) for mu in range(bound, -1, -1) for h in solved[mu]]
    order = sorted(range(len(components)), key=lambda i: (components[i][1].target.dim, components[i][0], i))
    ech = RowEchelon(field)
    chosen = []
    for i in order:
        mu, h = components[i]
        grew = [ech.insert(row) is not None for row in h.matrix.entries]
        if any(grew):
            chosen.append((mu, h))
        if len(ech.rows) == M.dim:
            return _stack_into_sum(field, sorted(chosen, key=lambda c: -c[0]), M), solved
    raise CertificationError(f"the maps into T(mu), mu <= {bound}, do not embed a dim-{M.dim} module")


def _trace_of_product(a: ExactMatrix, b: ExactMatrix):
    """tr(a b) = sum of a[i, j] b[j, i] over the nonzero entries."""
    brows = b.entries
    acc = sum_of_products((x, brows[j][i]) for i, arow in enumerate(a.entries)
                          for j, x in arow.items() if i in brows[j])
    return a.field.zero if acc is None else acc


def _split_pair(R, C):
    """Find phi: C -> R, psi: R -> C with psi o phi = id_C, or None.

    Valid when End(C) is local and split: the composite g o f is invertible
    iff its trace is nonzero, and the trace pairing is bilinear, so scanning
    basis pairs is exhaustive.
    """
    if C.dim == 0 or R.dim < C.dim:
        return None
    homs_in = hom_space(C, R)
    if not homs_in:
        return None
    homs_out = homs_in if R is C else hom_space(R, C)
    if not homs_out:
        return None
    for f in homs_in:
        for g in homs_out:
            if not _trace_of_product(g.matrix, f.matrix).is_zero():
                gf = g.matrix @ f.matrix
                try:
                    inv = gf.inverse()
                except ZeroDivisionError:  # g o f is singular
                    continue
                return f, UMorphism(R, C, inv @ g.matrix)
    return None


def _complement_of_idempotent(R, e_mat: ExactMatrix):
    """Kernel of an idempotent endomorphism of R, as a module."""
    K, _ = kernel_module(UMorphism(R, R, e_mat))
    return K


def search_peel(M, below):
    """Split T(mu), mu < below, off M by search: try every weight of what is
    left from the top down, and start over after each split.

    Candidates are `peeled_tilting_module`s, so no closed form is used.
    Returns the peeled labels (descending) and the remainder.
    """
    field = M.field
    R = M
    labels = []
    while True:
        tops = sorted({w for w in R.character.coeffs if 0 <= w < below}, reverse=True)
        for mu in tops:
            split = _split_pair(R, peeled_tilting_module(field, mu))
            if split is not None:
                phi, psi = split
                R = _complement_of_idempotent(R, phi.matrix @ psi.matrix)
                labels.append(mu)
                break
        else:
            return labels, R


def peeled_tilting_module(field, n):
    """T(n) by tensor-and-peel at every n >= 2: the summand of
    T(n-1) (x) Delta(1) at weight n, found by `search_peel` without
    tilting_module, tilting_character or Donkin's tensor product theorem."""
    if n == 0:
        return UModule.trivial(field)
    if n == 1:
        return weyl_module(field, 1)
    key = (field.ell, n)
    if key not in _peeled_tilting_cache:
        big = tensor_module(peeled_tilting_module(field, n - 1), weyl_module(field, 1))
        _, R = search_peel(big, n)
        if R.character.max_weight() != n or not is_local_end(R):
            raise CertificationError(f"tensor-and-peel left no indecomposable T({n})")
        _peeled_tilting_cache[key] = R
    return _peeled_tilting_cache[key]


def end_algebra(M):
    return hom_space(M, M)


def radical_dimension(end_basis) -> int:
    """dim of the nilradical, via the radical of the trace form (char 0)."""
    k = len(end_basis)
    if k == 0:
        return 0
    field = end_basis[0].source.field
    gram = ExactMatrix(field, k, k)
    for i in range(k):
        for j in range(i, k):
            v = _trace_of_product(end_basis[i].matrix, end_basis[j].matrix)
            gram[i, j] = v
            gram[j, i] = v
    return gram.kernel().cols


def is_local_end(M) -> bool:
    """End(M)/rad is one-dimensional (M indecomposable, split case)."""
    if M.dim == 0:
        return False
    basis = end_algebra(M)
    return len(basis) - radical_dimension(basis) == 1


def rational_value(x):
    """The rational a scalar equals, as a Fraction, or None if it is irrational."""
    if any(x.num[1:]):
        return None
    return Fraction(x.num[0], x.den)


def divided_power(M, gen, a):
    """E^(a) or F^(a) on M as a dense matrix, 0 <= a <= ell."""
    field = M.field
    if a == 0:
        return ExactMatrix.identity(field, M.dim)
    if a == field.ell:
        return M.El if gen == "E" else M.Fl
    g = M.E if gen == "E" else M.F
    return g.power(a).scale(field.quantum_factorial(a).inverse())


def kron_tensor_module(M, N):
    """M (x) N with each coproduct written out as dense Kronecker products,
    K^b as a diagonal matrix:

        Delta(E) = E (x) 1 + K (x) E,   Delta(F) = F (x) K^-1 + 1 (x) F,
        Delta(E^(l)) = sum_{a+b=l} zeta^(ab) E^(a) K^b (x) E^(b),
        Delta(F^(l)) = sum_{a+b=l} zeta^(-ab) F^(a) (x) K^-a F^(b).
    """
    field = M.field
    ell = field.ell
    weights = tuple(wm + wn for wm in M.weights for wn in N.weights)
    E = M.E.kron(ExactMatrix.identity(field, N.dim)) + M.K.kron(N.E)
    F = M.F.kron(N.k_power(-1)) + ExactMatrix.identity(field, M.dim).kron(N.F)
    El = ExactMatrix(field, M.dim * N.dim, M.dim * N.dim)
    Fl = ExactMatrix(field, M.dim * N.dim, M.dim * N.dim)
    for a in range(ell + 1):
        b = ell - a
        left = divided_power(M, "E", a) @ M.k_power(b)
        El = El + left.kron(divided_power(N, "E", b)).scale(field.zeta_power(a * b))
        right = N.k_power(-a) @ divided_power(N, "F", b)
        Fl = Fl + divided_power(M, "F", a).kron(right).scale(field.zeta_power(-(a * b)))
    return UModule(field, weights, E, F, El, Fl)


def dense(m):
    """The entries of an ExactMatrix as a dense list of rows, zeros included."""
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def from_dense(field, rows, cols=None):
    """The ExactMatrix with the given dense rows; `cols` for zero rows."""
    cols = len(rows[0]) if rows else (cols or 0)
    m = ExactMatrix(field, len(rows), cols)
    for i, row in enumerate(rows):
        if len(row) != cols:
            raise ValueError("ragged rows")
        for j, v in enumerate(row):
            m[i, j] = v
    return m


def from_rational_rows(field, rows):
    return from_dense(field, [[field.scalar(x) for x in row] for row in rows])


# -- dense list-of-lists reference operations, one per ExactMatrix operation


def dense_add(a, b, sign=1):
    return [[x + y if sign > 0 else x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_matmul(field, a, b, cols):
    return [
        [sum((row[k] * b[k][j] for k in range(len(b))), field.zero) for j in range(cols)]
        for row in a
    ]


def dense_transpose(a, cols):
    return [[row[j] for row in a] for j in range(cols)]


def dense_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def dense_block_diagonal(field, blocks):
    """blocks: (dense rows, cols) pairs."""
    total = sum(cols for _, cols in blocks)
    out = []
    offset = 0
    for rows, cols in blocks:
        for row in rows:
            out.append([field.zero] * offset + list(row) + [field.zero] * (total - offset - cols))
        offset += cols
    return out


def is_intertwiner(phi) -> bool:
    """phi commutes with K and the four ladder generators."""
    for name in ("K", "E", "F", "El", "Fl"):
        gs = getattr(phi.source, name)
        gt = getattr(phi.target, name)
        if (phi.matrix @ gs) != (gt @ phi.matrix):
            return False
    return True


def complex_direct_sum(X, Y):
    """X + Y, with X's summand first in every degree.

    As a grid, X^i sits at (i, 0) and Y^i at (i + 1, -1).
    """
    grid, components, parts = {}, {}, {}
    for Z, row in ((X, 0), (Y, -1)):
        for i, t in Z.terms.items():
            grid[(i - row, row)] = t
            if i in Z.parts:
                parts[(i - row, row)] = Z.parts[i]
        for i, d in Z.differentials.items():
            components[((i - row, row), (i + 1 - row, row))] = d.matrix
    return total_complex(X.field, grid, components, parts)


def cone(f_map, src_degree=0):
    """Mapping cone of a module morphism viewed as a two-term complex."""
    X, Y = f_map.source, f_map.target
    return ChainComplex(X.field, {src_degree: X, src_degree + 1: Y}, {src_degree: f_map})


def binomial_k_operator_value(field, m, c, t):
    """Value of the torus binomial with shift c and depth t < ell at weight m."""
    if t >= field.ell:
        raise ValueError("depth must stay below ell")
    acc = field.one
    for s in range(1, t + 1):
        acc = acc * field.quantum_integer(m + c - s + 1)
        acc = acc * field.quantum_integer(s).inverse()
    return acc


# ---------------------------------------------------------------------------
# byte oracle of the canonical module text: the JSON objects themselves,
# every entry written out, zeros included


def scalar_to_json(s):
    return s.as_strings()


def matrix_to_json(m):
    """Every entry, zeros included, row-major."""
    zero = scalar_to_json(m.field.zero)
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [scalar_to_json(row[j]) if j in row else list(zero)
                    for row in m.entries for j in range(m.cols)],
    }


def module_to_json(M):
    return {
        "ell": M.field.ell,
        "dim": M.dim,
        "weights": list(M.weights),
        "K": matrix_to_json(M.K),
        "E": matrix_to_json(M.E),
        "F": matrix_to_json(M.F),
        "El": matrix_to_json(M.El),
        "Fl": matrix_to_json(M.Fl),
    }


def complex_to_json(X):
    """Degree range plus per-degree label multisets and block differentials."""
    out = {"ell": X.field.ell, "terms": {}, "differentials": {}}
    for i in sorted(X.terms):
        out["terms"][str(i)] = sorted(
            [list(lab) if isinstance(lab, tuple) else lab for lab in X.labels(i)]
        )
    for i in sorted(X.differentials):
        out["differentials"][str(i)] = matrix_to_json(X.differentials[i].matrix)
    return out


def content_hash(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# closed-form label tables of C_min(Delta(n)), C_min(Nabla(n)) and C_min(L(n))
#
# Status: neither proven here nor cited from the literature, so the formula
# stays a test oracle and never becomes a runtime check.  The tests compare
# it with the construction (n <= 13 at ell 3, n <= 15 at ell 5, n <= 12 at
# ell 7) and its Euler character with ch M for n <= 200.  A first step
# towards a proof: C_min(Delta(n)) would be the minimal tilting
# coresolution of Delta(n), one T per linked weight below n.


def linked_weights(ell, n):
    """x_0 = n > x_1 > ... >= 0: the dominant weights m <= n linked to n,
    that is m = n or m = -n-2 (mod 2 ell)."""
    return [m for m in range(n, -1, -1) if (m - n) % (2 * ell) == 0 or (m + n + 2) % (2 * ell) == 0]


def closed_form_label_table(ell, kind, n):
    """The label table of C_min(M), M = Delta(n), Nabla(n) or L(n) for kind
    "delta", "nabla" or "L": T(n) in degree 0 when n = -1 (mod ell), and
    otherwise T(x_i) in degree i for Delta(n), in degree -i for Nabla(n),
    and, for L(n), T(x_p) in degree j for every p >= |j| with p = j (mod 2)."""
    if (n + 1) % ell == 0:
        return {0: [n]}
    x = linked_weights(ell, n)
    if kind == "delta":
        return {i: [m] for i, m in enumerate(x)}
    if kind == "nabla":
        return {-i: [m] for i, m in enumerate(x)}
    return {j: sorted(x[p] for p in range(abs(j), len(x), 2)) for j in range(1 - len(x), len(x))}


def filter_dot_orbit(rs, lam, p, bound):
    """Dominant weights in the affine dot orbit of lam, with
    (mu, highest coroot) <= bound, sorted: the dominant weights under the
    bound, enumerated in lexicographic order, kept when their linkage class
    equals that of lam.  Its cost grows like bound^rank; the test oracle
    for alcove.dot_orbit.
    """
    home = linkage_class(rs, _check_dominant(rs, lam), p)
    box = [((), bound)]  # (leading coordinates, what the bound leaves for the rest)
    for c in rs.highest_coroot.coroot_coords:
        box = [(mu + (x,), rest - c * x) for mu, rest in box for x in range(rest // c + 1)]
    return [mu for mu, _ in box if linkage_class(rs, mu, p) == home]


# ---------------------------------------------------------------------------
# submodules and quotients by elimination into every weight space: the test
# oracle for modules.submodule_generated and modules.quotient_module, which
# skip the weight spaces that are already full


def _eliminating_apply(M, gen_name, m, comp):
    """A generator applied to a weight-m vector; (m', image) or None."""
    shift = dict(_shifts(M.field.ell))[gen_name]
    rows = getattr(M, gen_name).entries
    out = {}
    for r in M.weight_blocks().get(m + shift, ()):
        acc = sum_of_products((gv, comp[c]) for c, gv in rows[r].items() if c in comp)
        if acc is not None:
            out[r] = acc
    return (m + shift, out) if out else None


def eliminating_submodule(M, vectors, close=True):
    """(S, inclusion) as submodule_generated returns them: every generator
    image is inserted into its weight space's echelon form."""
    echs = weight_echelons(M)
    work = []
    for vec in vectors:
        if not isinstance(vec, dict):
            vec = {i: v for i, v in enumerate(vec) if not v.is_zero()}
        for m, comp in _homogeneous_components(M, vec):
            if echs[m].insert(comp) is not None:
                work.append((m, comp))
    if close:
        queue = list(work)
        while queue:
            m, comp = queue.pop()
            for name, _ in _shifts(M.field.ell):
                res = _eliminating_apply(M, name, m, comp)
                if res is None:
                    continue
                m2, comp2 = res
                if echs[m2].insert(comp2) is not None:
                    queue.append((m2, comp2))
    return eliminating_subspace_module(M, echs)


def eliminating_subspace_module(M, echs):
    """The submodule spanned by per-weight echelon forms, every image reduced."""
    field = M.field
    basis = []
    for m in sorted(echs, reverse=True):
        rows = echs[m].rows
        for pivot in sorted(rows):
            basis.append((m, pivot, rows[pivot]))
    sdim = len(basis)
    weights = tuple(m for m, _, _ in basis)
    incl = ExactMatrix.from_columns(field, [vec for _, _, vec in basis], M.dim)
    mats = {name: ExactMatrix(field, sdim, sdim) for name in ("E", "F", "El", "Fl")}
    position = {pivot: j for j, (_, pivot, _) in enumerate(basis)}
    for j, (m, _, vec) in enumerate(basis):
        for name, _ in _shifts(field.ell):
            res = _eliminating_apply(M, name, m, vec)
            if res is None:
                continue
            m2, comp2 = res
            residual, coeffs = echs[m2].reduce(comp2)
            if residual:
                raise ValueError("subspace is not stable under the generators")
            rows = mats[name].entries
            for pivot, c in coeffs.items():
                rows[position[pivot]][j] = c
    S = UModule(field, weights, mats["E"], mats["F"], mats["El"], mats["Fl"])
    return S, UMorphism(S, M, incl)


def eliminating_quotient(M, phi):
    """(Q, projection) as quotient_module returns them: every column of phi
    inserted, every unit vector reduced, every product formed."""
    field = M.field
    blocks = M.weight_blocks()
    echs = weight_echelons(M)
    for vec in phi.matrix.transpose().entries:
        for m, comp in _homogeneous_components(M, vec):
            echs[m].insert(comp)
    basis = [i for m in sorted(blocks, reverse=True) for i in blocks[m] if i not in echs[m].rows]
    qdim = len(basis)
    weights = tuple(M.weights[i] for i in basis)
    proj = ExactMatrix(field, qdim, M.dim)
    pos = {i: r for r, i in enumerate(basis)}
    for i, m in enumerate(M.weights):
        residual, _ = echs[m].reduce({i: field.one})
        for k, v in residual.items():
            proj.entries[pos[k]][i] = v
    sect = ExactMatrix.from_columns(field, [{i: field.one} for i in basis], M.dim)
    mats = {}
    for name in ("E", "F", "El", "Fl"):
        g = getattr(M, name)
        if not (proj @ g @ phi.matrix).is_zero():
            raise ValueError(f"image is not stable under {name}; quotient undefined")
        mats[name] = proj @ g @ sect
    Q = UModule(field, weights, mats["E"], mats["F"], mats["El"], mats["Fl"])
    return Q, UMorphism(M, Q, proj)

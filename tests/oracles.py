"""Test oracles shared by several test files.

Production code never needs these checks: `minimalize` stops only when no
block is cancellable, and the pipeline certifies injectivity and
surjectivity through its own exact invariants.
"""

import hashlib
import itertools
import math
from fractions import Fraction

from tiltlab.alcove import _check_dominant
from tiltlab.complexes import ChainComplex, _find_cancellable, _part_blocks, total_complex
from tiltlab.cyclotomic import CertificationError, sum_of_products
from tiltlab.ideals import tensor_labels
from tiltlab.linalg import ExactMatrix, RowEchelon, SparseSystem
from tiltlab.minimal import _coresolution, _left_resolution, _stack_from_sum, _stack_into_sum
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
from tiltlab.standard import (
    _flatten,
    decompose_tilting_character,
    tilting_character,
    tilting_hom_basis,
    tilting_module,
    weyl_module,
)

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


def _simple_roots(rs):
    """alpha_1, ..., alpha_n, alpha_j the positive root with root
    coordinates e_j."""
    return sorted((r for r in rs.positive_roots if sum(r.simple_coords) == 1),
                  key=lambda r: r.simple_coords.index(1))


def _to_root_coords(rs):
    """The matrix, with Fraction entries, that maps the omega coordinates of
    a weight to its alpha coordinates: the inverse of the matrix whose
    column j is alpha_j in omega coordinates, by Gauss-Jordan elimination."""
    n = rs.rank
    simple = _simple_roots(rs)
    rows = [[Fraction(simple[j].weight_coords[i]) for j in range(n)] + [Fraction(int(i == k)) for k in range(n)]
            for i in range(n)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def _weyl_orbit(rs, y):
    """W(y) for y in omega coordinates, by breadth-first closure under the
    simple reflections s_i(y) = y - (y, alpha_i^vee) alpha_i, which generate
    the finite Weyl group W."""
    simple = _simple_roots(rs)
    seen, queue = {y}, [y]
    for v in queue:
        for i, a in enumerate(simple):
            u = tuple(x - v[i] * w for x, w in zip(v, a.weight_coords))
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


def translated_weyl_orbit(rs, lam, p, bound):
    """Dominant weights in the affine dot orbit of lam, with
    (mu, highest coroot) <= bound, sorted, as w(lam + rho) + p gamma - rho
    over the finite Weyl group W and the root lattice ZPhi: the test oracle
    for alcove.dot_orbit that follows the orbit's definition.

    W_p is generated by the s_(beta, rp)(y) = s_beta(y) + rp beta, so it is
    W acting on the translations by pZPhi (s_(beta, p) s_beta is the
    translation by p beta, and W permutes the roots), and the orbit of
    y0 = lam + rho is W(y0) + pZPhi.  The output is z - rho over its points z
    in R = {z : z_i >= 1, (z, theta^vee) <= top}, top = bound +
    (rho, theta^vee), with theta^vee = sum_i c_i alpha_i^vee, every c_i >= 1.

    The box for gamma.  With k(z) = A z the alpha coordinates of z (A the
    inverse of the matrix whose columns are the alpha_j in omega
    coordinates, every entry of it >= 0, which is checked), a z in R has
    0 <= k_j(z) = sum_i A_ji z_i <= max_i (A_ji / c_i) sum_i c_i z_i
    <= b_j = max_i (A_ji / c_i) top.  So z = w(y0) + p gamma needs
    gamma_j in [-k_j(w y0) / p, (b_j - k_j(w y0)) / p], and every integer
    gamma_j there is tried.
    """
    lam = _check_dominant(rs, lam)
    A = _to_root_coords(rs)
    if any(x < 0 for row in A for x in row):
        raise ValueError(f"{rs.label}: the inverse Cartan matrix has a negative entry")
    theta = rs.highest_coroot
    top = bound + theta.pairing(rs.rho)
    c = theta.coroot_coords
    b = [max(A[j][i] / c[i] for i in range(rs.rank)) * top for j in range(rs.rank)]
    simple = _simple_roots(rs)
    out = set()
    for y in _weyl_orbit(rs, tuple(l + r for l, r in zip(lam, rs.rho))):
        k = [sum(a * x for a, x in zip(row, y)) for row in A]
        ranges = [range(math.ceil(-k_j / p), math.floor((b_j - k_j) / p) + 1) for k_j, b_j in zip(k, b)]
        for gamma in itertools.product(*ranges):
            z = tuple(x + p * sum(g * a.weight_coords[i] for g, a in zip(gamma, simple)) for i, x in enumerate(y))
            if min(z) >= 1 and theta.pairing(z) <= top:
                out.add(tuple(x - r for x, r in zip(z, rs.rho)))
    return sorted(out)


def filter_dot_orbit(rs, lam, p, bound):
    """Dominant weights in the affine dot orbit of lam, with
    (mu, highest coroot) <= bound, sorted: the dominant weights under the
    bound, enumerated in lexicographic order, kept when mu + rho lies in
    W(lam + rho) + pZPhi (translated_weyl_orbit gives the reason).  The
    test is on alpha coordinates: z - y lies in pZPhi exactly when
    k(z) - k(y) is p times an integer vector, that is when D k(z) and
    D k(y) agree mod pD, D the common denominator of the entries of A; so
    each point is kept when the integers D k(z) mod pD are those of a point
    of W(lam + rho).  Its cost grows like bound^rank; the test oracle for
    alcove.dot_orbit.
    """
    lam = _check_dominant(rs, lam)
    residues, box = _residue_box(rs, p, bound)
    key = (rs.label, p, lam)
    if key not in _home_residues:
        _home_residues[key] = {residues(y) for y in _weyl_orbit(rs, tuple(l + r for l, r in zip(lam, rs.rho)))}
    home = _home_residues[key]
    return [mu for mu, residue in box if residue in home]


_residue_boxes = {}
_home_residues = {}  # (type, p, lam) -> the residues of W(lam + rho)


def _residue_box(rs, p, bound):
    """(residues, box) for filter_dot_orbit, kept per (type, p, bound):
    residues(y) = D k(y) mod pD, and box the dominant weights mu under the
    bound in lexicographic order, each with residues(mu + rho)."""
    key = (rs.label, p, bound)
    if key not in _residue_boxes:
        A = _to_root_coords(rs)
        D = math.lcm(*(x.denominator for row in A for x in row))
        DA = [[int(x * D) for x in row] for row in A]

        def residues(y):
            return tuple(sum(a * x for a, x in zip(row, y)) % (p * D) for row in DA)

        box = [((), bound)]  # (leading coordinates, what the bound leaves for the rest)
        for c in rs.highest_coroot.coroot_coords:
            box = [(mu + (x,), rest - c * x) for mu, rest in box for x in range(rest // c + 1)]
        _residue_boxes[key] = residues, [(mu, residues(tuple(m + r for m, r in zip(mu, rs.rho))))
                                         for mu, _ in box]
    return _residue_boxes[key]


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


# ---------------------------------------------------------------------------
# the staircase construction of a tilting complex: the coresolution of M to
# a Nabla-filtered tail, the tail's left resolution as a column, and a
# staircase of lifts joining them on a grid.  minimal.tilting_complex_of
# builds the cone of two one-sided resolutions instead, and the tests compare
# the two.


def lift_over_tiltings(src, src_parts, tgt, tgt_parts, left: ExactMatrix, rhs: ExactMatrix):
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


def staircase_complex_of(M):
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
            g = lift_over_tiltings(terms[-1], partlists[-1], column[0], cparts[0], aug.matrix, g)
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
        g = lift_over_tiltings(terms[s], partlists[s], column[j], cparts[j], cmaps[j - 1].matrix, -rhs)
        if g is None:
            raise CertificationError(f"{where} is inconsistent")
        components[((s, 0), (k, -j))] = g
    X = total_complex(field, grid, components, gparts)
    # the (0, 0) block comes first in degree 0, and is all of it when k = 0
    X0, Y = X.term(0), iota.target
    pi = ExactMatrix(field, Y.dim, X0.dim, [{r: field.one} for r in range(Y.dim)]) if k else aug.matrix
    return X, iota, UMorphism(X0, Y, pi)


# ---------------------------------------------------------------------------
# tensor ideals of tiltings in a weight window


def closure_by_tensoring(field, generators, window):
    """The least tensor-closed superset of the generators in [0, W], by
    tensoring each new label with every m in [0, W] round after round and
    collecting the labels <= W (the loop `ideals.generate_tilt_ideal` ran
    before it walked memoized reach sets)."""
    members = set(generators)
    frontier = set(generators)
    while frontier:
        new = set()
        for n in sorted(frontier):
            for m in range(window + 1):
                for k in tensor_labels(field, n, m, 2 * window):
                    if k <= window and k not in members:
                        members.add(k)
                        new.add(k)
        frontier = new
    return frozenset(members)


def prime_by_ordered_pairs(field, members, window):
    """Primality of a proper member set of [0, W] over every ordered pair of
    non-members, each product decomposed from its characters afresh."""
    outside = [n for n in range(window + 1) if n not in members]
    for m in outside:
        for n in outside:
            ch = tilting_character(field, m) * tilting_character(field, n)
            if all(k in members for k in decompose_tilting_character(field, ch)):
                return False
    return True

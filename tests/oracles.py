"""Test oracles shared by several test files.

Production code never needs these checks: `minimalize` stops only when no
block is cancellable, and the pipeline certifies injectivity and
surjectivity through its own exact invariants.
"""

import hashlib
from fractions import Fraction

from tiltlab.complexes import ChainComplex, _find_cancellable, _part_blocks, total_complex
from tiltlab.cyclotomic import CertificationError
from tiltlab.linalg import ExactMatrix
from tiltlab.minimal import _stack_from_sum
from tiltlab.modules import UModule, hom_space, intertwiner_equations, tensor_module, unknowns_to_matrix
from tiltlab.serialize import canonical_dumps
from tiltlab.standard import _complement_of_idempotent, _split_pair, _trace_of_product, weyl_module

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
                R, _, _ = _complement_of_idempotent(R, phi.matrix @ psi.matrix)
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

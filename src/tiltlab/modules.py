"""Finite-dimensional type-one modules for quantum sl2 with divided powers.

A module is the integer weight of every basis vector together with the four
ladder generator matrices E, F, E^(l), F^(l) over Q(zeta_ell).  Every module
here is weight graded, so K acts on a weight-w basis vector by zeta^w and is
read off the weights (`K`, `k_power`) instead of being stored.  Weight-
homogeneous bases let Hom spaces, submodules and quotients be computed one
weight block at a time.
"""

from __future__ import annotations

from tiltlab.characters import Character
from tiltlab.cyclotomic import CycloField, MismatchedFieldError, sum_of_products
from tiltlab.linalg import ExactMatrix, RowEchelon, SparseSystem


def _shifts(ell):
    return (("E", 2), ("F", -2), ("El", 2 * ell), ("Fl", -2 * ell))


class UModule:
    __slots__ = ("field", "dim", "weights", "E", "F", "El", "Fl",
                 "_blocks", "_char", "_fp", "_powers", "_nabla_flag", "_delta_flag")

    def __init__(self, field: CycloField, weights, E, F, El, Fl):
        self.field = field
        self.weights = tuple(weights)
        self.dim = len(self.weights)
        for name, m in (("E", E), ("F", F), ("El", El), ("Fl", Fl)):
            if m.shape != (self.dim, self.dim):
                raise ValueError(f"{name} has shape {m.shape}, expected square dim {self.dim}")
        self.E, self.F, self.El, self.Fl = E, F, El, Fl
        self._blocks = None
        self._char = None
        self._fp = None
        self._powers = None  # gen -> entries of gen^(a), a = 0..ell
        # filled by standard.has_nabla_flag and has_delta_flag
        self._nabla_flag = None
        self._delta_flag = None

    @classmethod
    def zero_module(cls, field):
        z = ExactMatrix(field, 0, 0)
        return cls(field, (), z, z.copy(), z.copy(), z.copy())

    @classmethod
    def trivial(cls, field):
        z = ExactMatrix(field, 1, 1)
        return cls(field, (0,), z, z.copy(), z.copy(), z.copy())

    @property
    def character(self) -> Character:
        if self._char is None:
            self._char = Character.from_weights(self.weights)
        return self._char

    def weight_blocks(self):
        """weight -> ordered list of basis indices."""
        if self._blocks is None:
            blocks = {}
            for i, w in enumerate(self.weights):
                blocks.setdefault(w, []).append(i)
            self._blocks = blocks
        return self._blocks

    @property
    def K(self) -> ExactMatrix:
        return self.k_power(1)

    def k_power(self, n: int) -> ExactMatrix:
        field = self.field
        return ExactMatrix(field, self.dim, self.dim,
                           [{i: field.zeta_power(n * w)} for i, w in enumerate(self.weights)])

    def assert_weight_graded(self):
        """Cheap structural invariant: each generator shifts weights by its degree."""
        for name, shift in _shifts(self.field.ell):
            for i, row in enumerate(getattr(self, name).entries):
                for j in row:
                    if self.weights[i] != self.weights[j] + shift:
                        raise ValueError(
                            f"{name} maps weight {self.weights[j]} to "
                            f"{self.weights[i]}, expected shift {shift}")

    def fingerprint(self) -> str:
        if self._fp is None:
            from tiltlab.serialize import module_fingerprint
            self._fp = module_fingerprint(self)
        return self._fp

    def __repr__(self):
        return f"UModule(dim={self.dim}, ell={self.field.ell})"


class UMorphism:
    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: UModule, target: UModule, matrix: ExactMatrix):
        if matrix.shape != (target.dim, source.dim):
            raise ValueError(
                f"morphism matrix {matrix.shape} does not map dim {source.dim} "
                f"to dim {target.dim}")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, ExactMatrix(source.field, target.dim, source.dim))

    @classmethod
    def identity(cls, module):
        return cls(module, module, ExactMatrix.identity(module.field, module.dim))

    def __add__(self, other):
        return UMorphism(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other):
        return UMorphism(self.source, self.target, self.matrix - other.matrix)

    def __neg__(self):
        return UMorphism(self.source, self.target, -self.matrix)

    def scale(self, scalar):
        return UMorphism(self.source, self.target, self.matrix.scale(scalar))

    def compose(self, other: "UMorphism") -> "UMorphism":
        """self after other (self o other)."""
        if other.target is not self.source and other.target.dim != self.source.dim:
            raise ValueError("composition dimension mismatch")
        return UMorphism(other.source, self.target, self.matrix @ other.matrix)

    def is_zero(self):
        return self.matrix.is_zero()

    def __repr__(self):
        return f"UMorphism({self.source.dim} -> {self.target.dim})"


# ---------------------------------------------------------------------------
# relation checking


class RelationReport:
    def __init__(self):
        self.failures = []  # (relation name, witness column)

    def record(self, name, witness):
        self.failures.append((name, witness))

    @property
    def ok(self):
        return not self.failures

    def __repr__(self):
        if self.ok:
            return "RelationReport(ok)"
        return f"RelationReport(failed={self.failures})"


def _first_bad_column(diff: ExactMatrix):
    """The lowest column where diff is nonzero, or None when diff is zero."""
    return min((min(row) for row in diff.entries if row), default=None)


def check_relations(M: UModule) -> RelationReport:
    """Verify the defining relations of the divided-power algebra exactly."""
    field = M.field
    ell = field.ell
    rep = RelationReport()
    if M.dim == 0:
        return rep
    K, Kinv = M.k_power(1), M.k_power(-1)
    z2 = field.zeta_power(2)
    zm2 = field.zeta_power(-2)

    def expect_zero(name, diff):
        w = _first_bad_column(diff)
        if w is not None:
            rep.record(name, w)

    expect_zero("K E K^-1 = z^2 E", (K @ M.E @ Kinv) - M.E.scale(z2))
    expect_zero("K F K^-1 = z^-2 F", (K @ M.F @ Kinv) - M.F.scale(zm2))
    qinv = field.qone_minus.inverse()
    cartan = (K - Kinv).scale(qinv)
    expect_zero("[E,F] = (K - K^-1)/(z - z^-1)", (M.E @ M.F) - (M.F @ M.E) - cartan)
    expect_zero("E^ell = 0", M.E.power(ell))
    expect_zero("F^ell = 0", M.F.power(ell))
    expect_zero("K E^(l) K^-1 = E^(l)", (K @ M.El @ Kinv) - M.El)
    expect_zero("K F^(l) K^-1 = F^(l)", (K @ M.Fl @ Kinv) - M.Fl)

    # mixed divided-power commutators; F^(l-1) = F^(l-1)/[l-1]! etc.
    fact_inv = field.quantum_factorial(ell - 1).inverse()
    F_lm1 = M.F.power(ell - 1).scale(fact_inv)
    E_lm1 = M.E.power(ell - 1).scale(fact_inv)
    zl1 = field.zeta_power(-(ell - 1))
    zl2 = field.zeta_power(ell - 1)
    mid_f = (K.scale(zl1) - Kinv.scale(zl2)).scale(qinv)
    expect_zero(
        "E F^(l) - F^(l) E = F^(l-1) (K z^(1-l) - K^-1 z^(l-1))/(z - z^-1)",
        (M.E @ M.Fl) - (M.Fl @ M.E) - (F_lm1 @ mid_f),
    )
    mid_e = (Kinv.scale(zl1) - K.scale(zl2)).scale(qinv)
    expect_zero(
        "F E^(l) - E^(l) F = E^(l-1) (K^-1 z^(1-l) - K z^(l-1))/(z - z^-1)",
        (M.F @ M.El) - (M.El @ M.F) - (E_lm1 @ mid_e),
    )
    return rep


# ---------------------------------------------------------------------------
# tensor, dual, Frobenius twist, direct sum


def _divided_powers(M: UModule, gen: str, r: int):
    """The nonzero entries (row, column, value) of X^(a) on M for a = 0..r,
    r <= ell, X = E or F; X^(a) = X^(a-1) X / [a] below ell.  The list for
    a = 0..ell is built once per module and generator and kept on M."""
    if M._powers is None:
        M._powers = {}
    powers = M._powers.get(gen)
    if powers is None:
        field = M.field
        power = ExactMatrix.identity(field, M.dim)
        out = [power]
        for a in range(1, field.ell):
            power = (power @ getattr(M, gen)).scale(field.quantum_integer(a).inverse())
            out.append(power)
        out.append(getattr(M, gen + "l"))
        powers = M._powers[gen] = [
            [(i, k, v) for i, row in enumerate(p.entries) for k, v in row.items()] for p in out
        ]
    return powers[:r + 1]


def _coproduct(M: UModule, N: UModule, gen: str, r: int) -> ExactMatrix:
    """X^(r) on M (x) N for X = E or F and r = 1 or ell:

        Delta(E^(r)) = sum_{a+b=r} zeta^(ab) E^(a) K^b (x) E^(b),
        Delta(F^(r)) = sum_{a+b=r} zeta^(-ab) F^(a) (x) K^(-a) F^(b).

    K^b and K^(-a) act on a weight-w basis vector by zeta^(bw) and
    zeta^(-aw), so only products of nonzero divided-power entries are
    formed.  Each entry of the result is one such product: X^(a) moves a
    weight of M by 2a (by -2a for F), so an entry fixes its term a.
    """
    field = M.field
    zeta = field.zeta_power
    dn = N.dim
    out = ExactMatrix(field, M.dim * dn, M.dim * dn)
    rows = out.entries
    pm, pn = _divided_powers(M, gen, r), _divided_powers(N, gen, r)
    for a in range(r + 1):
        b = r - a
        if gen == "E":
            left = [(i, k, x * zeta(a * b + b * M.weights[k])) for i, k, x in pm[a]]
            right = pn[b]
        else:
            left = pm[a]
            right = [(j, l, y * zeta(-a * b - a * N.weights[j])) for j, l, y in pn[b]]
        for i, k, x in left:
            for j, l, y in right:
                rows[i * dn + j][k * dn + l] = x * y
    return out


def tensor_module(M: UModule, N: UModule) -> UModule:
    """M tensor N with the comultiplication action on divided powers."""
    if M.field is not N.field:
        raise MismatchedFieldError("tensor factors over different ell")
    ell = M.field.ell
    weights = tuple(wm + wn for wm in M.weights for wn in N.weights)
    return UModule(M.field, weights, _coproduct(M, N, "E", 1), _coproduct(M, N, "F", 1),
                   _coproduct(M, N, "E", ell), _coproduct(M, N, "F", ell))


def dual_module(M: UModule) -> UModule:
    """Dual action through the antipode; K^ell = 1 on type-one modules."""
    field = M.field
    weights = tuple(-w for w in M.weights)
    Ed = -(M.k_power(-1) @ M.E).transpose()
    Fd = -(M.F @ M.k_power(1)).transpose()
    return UModule(field, weights, Ed, Fd, -M.El.transpose(), -M.Fl.transpose())


def frobenius_twist(field: CycloField, a: int) -> UModule:
    """Pullback of the (a+1)-dimensional classical simple through Frobenius."""
    if a < 0:
        raise ValueError("highest weight must be nonnegative")
    ell = field.ell
    dim = a + 1
    weights = tuple(ell * (a - 2 * i) for i in range(dim))
    z = ExactMatrix(field, dim, dim)
    El = ExactMatrix(field, dim, dim, [{i + 1: field.scalar(a - i)} for i in range(a)] + [{}])
    Fl = ExactMatrix(field, dim, dim, [{}] + [{i: field.scalar(i + 1)} for i in range(a)])
    return UModule(field, weights, z, z.copy(), El, Fl)


def direct_sum(*summands: UModule) -> UModule:
    if not summands:
        raise ValueError("need at least one summand")
    field = summands[0].field
    for s in summands[1:]:
        if s.field is not field:
            raise MismatchedFieldError("summands over different ell")
    weights = tuple(w for s in summands for w in s.weights)
    mats = [ExactMatrix.block_diagonal(field, [getattr(s, name) for s in summands])
            for name in ("E", "F", "El", "Fl")]
    return UModule(field, weights, *mats)


# ---------------------------------------------------------------------------
# weight blocks of submodules and quotients: one RowEchelon per weight, over
# weight-homogeneous sparse vectors


def weight_echelons(M: UModule):
    """An empty RowEchelon for each weight space of M."""
    return {m: RowEchelon(M.field) for m in M.weight_blocks()}


def _homogeneous_components(M: UModule, vec):
    """Split a sparse vector (index -> nonzero scalar) into its
    (weight, weight-homogeneous part) pairs."""
    out = {}
    for i, v in vec.items():
        out.setdefault(M.weights[i], {})[i] = v
    return out.items()


def _apply_block(M: UModule, gen_name, shift, m, comp):
    """Apply a generator, which moves weights by shift, to a weight-m vector;
    returns the weight-(m + shift) image, empty when it is zero."""
    rows = getattr(M, gen_name).entries
    out = {}
    for r in M.weight_blocks().get(m + shift, ()):
        acc = sum_of_products((gv, comp[c]) for c, gv in rows[r].items() if c in comp)
        if acc is not None:
            out[r] = acc
    return out


def submodule_generated(M: UModule, vectors, close: bool = True):
    """Smallest generator-stable subspace containing the vectors, each a
    sparse vector (index -> nonzero scalar) or a dense coordinate list.

    Returns (S, inclusion).  With close=False the span must already be stable
    (images and kernels of intertwiners); stability is still verified when the
    induced action is computed.

    The span of each weight space is kept in reduced echelon form.  A weight
    space is full when its form holds one row per basis vector of the space;
    the form is then the identity, every vector of that weight reduces to a
    zero residual, and no insertion there can change the span.  So no vector
    is inserted into a full weight space and the closure applies no generator
    whose target weight space is full or absent: the skipped eliminations
    would all have found a zero residual, and the span is the one that
    elimination into every weight space finds.
    """
    blocks = M.weight_blocks()
    echs = weight_echelons(M)
    work = []
    for vec in vectors:
        if not isinstance(vec, dict):
            # perfbench's membership workload passes dense lists
            if len(vec) != M.dim:
                raise ValueError(f"vector of length {len(vec)} does not lie in dim-{M.dim} module")
            vec = {i: v for i, v in enumerate(vec) if not v.is_zero()}
        for m, comp in _homogeneous_components(M, vec):
            ech = echs[m]
            if len(ech.rows) < len(blocks[m]) and ech.insert(comp) is not None:
                work.append((m, comp))
    if close:
        # worklist closure under the four ladder generators
        shifts = _shifts(M.field.ell)
        queue = work
        while queue:
            m, comp = queue.pop()
            for name, shift in shifts:
                m2 = m + shift
                ech = echs.get(m2)
                if ech is None or len(ech.rows) == len(blocks[m2]):
                    continue
                comp2 = _apply_block(M, name, shift, m, comp)
                if comp2 and ech.insert(comp2) is not None:
                    queue.append((m2, comp2))
    return _subspace_to_module(M, echs)


def _subspace_to_module(M: UModule, echs):
    """(S, inclusion) for the span of the per-weight echelon forms.

    S's basis is the stored rows, weights descending and pivots ascending,
    and its action holds the coefficients of each generator image in that
    basis.  In a full weight space the form is the identity, so an image
    there is its own coefficient vector with a zero residual and is not
    reduced; an image in any other weight space is reduced, and a nonzero
    residual means the span is not stable.  When every weight space is full,
    S is M with its basis re-indexed in that order.
    """
    field = M.field
    blocks = M.weight_blocks()
    order = sorted(blocks, reverse=True)
    full = {m for m, ech in echs.items() if len(ech.rows) == len(blocks[m])}
    if len(full) == len(blocks):
        basis = [i for m in order for i in blocks[m]]
        position = {i: j for j, i in enumerate(basis)}
        mats = [
            ExactMatrix(field, M.dim, M.dim,
                        [{position[c]: v for c, v in g.entries[i].items()} for i in basis])
            for g in (M.E, M.F, M.El, M.Fl)
        ]
        S = UModule(field, tuple(M.weights[i] for i in basis), *mats)
        incl = ExactMatrix.from_columns(field, [{i: field.one} for i in basis], M.dim)
        return S, UMorphism(S, M, incl)
    basis = []  # (weight, pivot, vector) in deterministic order
    for m in order:
        rows = echs[m].rows
        for pivot in sorted(rows):
            basis.append((m, pivot, rows[pivot]))
    sdim = len(basis)
    weights = tuple(m for m, _, _ in basis)
    incl = ExactMatrix.from_columns(field, [vec for _, _, vec in basis], M.dim)
    # induced action: the coefficients of each image in the echelon basis
    mats = {name: ExactMatrix(field, sdim, sdim) for name in ("E", "F", "El", "Fl")}
    position = {pivot: j for j, (_, pivot, _) in enumerate(basis)}
    shifts = _shifts(field.ell)
    for j, (m, _, vec) in enumerate(basis):
        for name, shift in shifts:
            m2 = m + shift
            if m2 not in echs:
                continue
            coeffs = _apply_block(M, name, shift, m, vec)
            if m2 not in full:
                residual, coeffs = echs[m2].reduce(coeffs)
                if residual:
                    raise ValueError("subspace is not stable under the generators")
            rows = mats[name].entries
            for pivot, c in coeffs.items():
                rows[position[pivot]][j] = c
    S = UModule(field, weights, mats["E"], mats["F"], mats["El"], mats["Fl"])
    return S, UMorphism(S, M, incl)


def quotient_module(M: UModule, phi: UMorphism):
    """Cokernel M / im phi of an intertwiner phi into M.

    The complement and the projection are read off the per-weight reduced
    echelon form of phi's columns, which depends only on their span, so the
    quotient is the one by the image of phi.  Once the columns fill a weight
    space, its form is the identity: a later column of that weight reduces to
    a zero residual and is not inserted, and every unit vector of that weight
    reduces to zero, so its projection column is zero and is not computed.
    Returns (Q, projection) with projection o phi = 0.
    """
    if phi.target is not M:
        raise ValueError("map does not land in the module")
    field = M.field
    blocks = M.weight_blocks()
    echs = weight_echelons(M)
    for vec in phi.matrix.transpose().entries:
        parts = _homogeneous_components(M, vec)
        if len(parts) > 1:
            raise ValueError("map columns must be weight-homogeneous")
        for m, comp in parts:
            ech = echs[m]
            if len(ech.rows) < len(blocks[m]):
                ech.insert(comp)
    # complement per weight: the coordinates that are not pivots
    basis = [i for m in sorted(blocks, reverse=True) for i in blocks[m] if i not in echs[m].rows]
    qdim = len(basis)
    weights = tuple(M.weights[i] for i in basis)
    # projection: reduce each basis vector of a weight space that is not
    # full, read complement coords
    proj = ExactMatrix(field, qdim, M.dim)
    pos = {i: r for r, i in enumerate(basis)}
    for m, ech in echs.items():
        if len(ech.rows) == len(blocks[m]):
            continue
        for i in blocks[m]:
            residual, _ = ech.reduce({i: field.one})
            for k, v in residual.items():
                proj.entries[pos[k]][i] = v
    # the induced action is projection o g o section, and the section's
    # columns are the complement's unit vectors: the complement columns of
    # projection o g
    mats = {}
    for name in ("E", "F", "El", "Fl"):
        pg = proj @ getattr(M, name)
        if not (pg @ phi.matrix).is_zero():
            raise ValueError(f"image is not stable under {name}; quotient undefined")
        mats[name] = ExactMatrix(field, qdim, qdim, [
            {pos[k]: v for k, v in row.items() if k in pos} for row in pg.entries])
    Q = UModule(field, weights, mats["E"], mats["F"], mats["El"], mats["Fl"])
    pr = UMorphism(M, Q, proj)
    if not (proj @ phi.matrix).is_zero():
        raise ValueError("projection does not kill the image")
    return Q, pr


def image_module(phi: UMorphism):
    """Image of an intertwiner as a submodule of the target.  Nothing in the
    library calls it; it stays here for the benchmark's tracer, which times
    it by name."""
    return submodule_generated(phi.target, phi.matrix.transpose().entries, close=False)


def kernel_module(phi: UMorphism):
    """Kernel of an intertwiner as a submodule of the source.  Each row of an
    intertwiner is nonzero on one weight space only, so elimination never
    mixes weights and every kernel basis vector is weight-homogeneous."""
    return submodule_generated(phi.source, phi.matrix.kernel().transpose().entries, close=False)


# ---------------------------------------------------------------------------
# Hom spaces


def intertwiner_equations(M: UModule, N: UModule):
    """The sparse system X gM = gN X over the four ladder generators g.

    An intertwiner preserves weights, so the unknowns are the entries (r, c)
    of the per-weight blocks, numbered from the highest shared weight down;
    the equations form a banded sparse system.  Returns (system, var_ids)
    with var_ids mapping (row of N, column of M) to the unknown's index.
    """
    if M.field is not N.field:
        raise MismatchedFieldError("hom between modules over different ell")
    field = M.field
    mb = M.weight_blocks()
    nb = N.weight_blocks()
    shared = sorted(set(mb) & set(nb), reverse=True)
    var_ids = {}
    for m in shared:
        for r in nb[m]:
            for c in mb[m]:
                var_ids[(r, c)] = len(var_ids)
    sys = SparseSystem(field, len(var_ids))
    for name, shift in _shifts(field.ell):
        gM_cols = getattr(M, name).transpose().entries
        gN_rows = getattr(N, name).entries
        for m in mb:
            for rp in nb.get(m + shift, ()):
                for c in mb[m]:
                    # (X gM - gN X)[rp, c]; the two sums share no unknown,
                    # since rp and c have different weights
                    entries = {}
                    for cp, v in gM_cols[c].items():
                        key = var_ids.get((rp, cp))
                        if key is not None:
                            entries[key] = v
                    for r, v in gN_rows[rp].items():
                        key = var_ids.get((r, c))
                        if key is not None:
                            entries[key] = -v
                    if entries:
                        sys.add_row(entries)
    return sys, var_ids


def hom_space(M: UModule, N: UModule):
    """Basis of Hom_U(M, N) as a list of UMorphism: the kernel of the
    intertwiner equations."""
    sys, var_ids = intertwiner_equations(M, N)
    if not var_ids:
        return []
    cells = list(var_ids)
    return [UMorphism(M, N, unknowns_to_matrix(M, N, cells, vec)) for vec in sys.kernel_basis()]


def unknowns_to_matrix(M: UModule, N: UModule, cells, vec) -> ExactMatrix:
    """The matrix of a map M -> N whose entry cells[k] is vec[k], for a
    sparse vector of unknowns; cells lists the keys of var_ids in order."""
    mat = ExactMatrix(M.field, N.dim, M.dim)
    for k, v in vec.items():
        r, c = cells[k]
        mat.entries[r][c] = v
    return mat


ISO_ATTEMPTS = 40


def find_isomorphism(M: UModule, N: UModule):
    """An invertible intertwiner M -> N, or None.

    Characters are compared first; then basis elements and ISO_ATTEMPTS
    seeded small integer combinations of the Hom basis are tried.  A test
    oracle: nothing in the library calls it, and it stays here for the
    benchmark's tracer, which times it by name.
    """
    if M.dim != N.dim or M.character != N.character:
        return None
    if M.dim == 0:
        return UMorphism.zero(M, N)
    homs = hom_space(M, N)
    if not homs:
        return None
    for h in homs:
        if not h.matrix.determinant().is_zero():
            return h
    import random

    rng = random.Random(20240 + M.dim + 31 * N.dim)
    field = M.field
    for _ in range(ISO_ATTEMPTS):
        mat = ExactMatrix(field, N.dim, M.dim)
        for h in homs:
            c = field.scalar(rng.randint(-3, 3))
            mat = mat + h.matrix.scale(c)
        if not mat.determinant().is_zero():
            return UMorphism(M, N, mat)
    return None

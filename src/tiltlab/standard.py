"""Standard, costandard, simple and indecomposable tilting modules.

Constructors are memoized per (ell, kind, n).  T(n) is built with no search:
Delta(n) below ell, Delta(ell-1+b) glued to Delta(ell-1-b) for T(ell-1+b),
0 < b < ell, and T(ell-1+b) (x) L(a)^[1] above 2ell-2 (Donkin's tensor
product theorem).  Tilting characters are closed-form and never build a
module, so character arithmetic on tiltings, such as tensor ideals and
Euler-character checks, costs only dictionary operations.

Nabla-flags, Delta-flags and tilting-ness are decided by counting primitive
vectors (primitive_counts): M has a Nabla-flag exactly when
dim M = sum_c dim Hom(Delta(c), M) (c+1), and a Delta-flag exactly when the
same count on the dual holds, read off the same weight blocks without
building the dual.  Neither flag is peeled and nothing is split to decide.
Each count is taken once per module and kept on it.

The minimal tilting cover of a Nabla-filtered X over a set of labels
(minimal_tilting_cover) builds every tilting term: the maps T(mu) -> X, mu
a label, from one certified solve of each Hom(T(mu), X) (tilting_homs),
pruned of those that factor through the rest.  Over every c with
(X:Nabla(c)) > 0 it is onto (minimal.cover_by_tilting); over the labels of
a module that the flag counts prove tilting, read off the closed-form
character, it is an isomorphism, whose maps are the inclusions of the
Krull-Schmidt parts and whose inverse gives every projection
(decompose_indecomposables; split_if_tilting is that split when
is_tilting(M) and None otherwise).  Hom(T(a), T(b)) is the same solve,
cached per (ell, a, b) (tilting_hom_basis).  A glued T(n) is certified by
its character and its flag counts, since a tilting module is determined by
its character.

T(n) has a simple socle L(s(n)) with s(n) in closed form (tilting_socle),
and the composition multiplicities [M:L(c)] are read off ch M by the same
top-down subtraction that reads tilting labels (composition_multiplicities).
"""

from __future__ import annotations

from collections import Counter

from tiltlab.characters import Character, decompose_into_weyl, is_nonneg_weyl_sum, weyl_character
from tiltlab.cyclotomic import CertificationError, CycloField
from tiltlab.linalg import ExactMatrix, RowEchelon
from tiltlab.modules import (
    UModule,
    UMorphism,
    direct_sum,
    dual_module,
    frobenius_twist,
    hom_space,
    quotient_module,
    submodule_generated,
    tensor_module,
)

_weyl_cache: dict = {}
_nabla_cache: dict = {}
_simple_cache: dict = {}
_tilting_cache: dict = {}
_tilting_character_cache: dict = {}
_tilting_weyl_cache: dict = {}
_tilting_hom_cache: dict = {}


def weyl_module(field: CycloField, n: int) -> UModule:
    """Delta(n) in the divided-power basis m_0..m_n."""
    if n < 0:
        raise ValueError("highest weight must be nonnegative")
    key = (field.ell, n)
    if key in _weyl_cache:
        return _weyl_cache[key]
    ell = field.ell
    dim = n + 1
    weights = tuple(n - 2 * i for i in range(dim))
    E = ExactMatrix(field, dim, dim)
    F = ExactMatrix(field, dim, dim)
    El = ExactMatrix(field, dim, dim)
    Fl = ExactMatrix(field, dim, dim)
    for i in range(dim):
        if i + 1 < dim:
            F[i + 1, i] = field.quantum_binomial(i + 1, 1)
        if i + ell < dim:
            Fl[i + ell, i] = field.quantum_binomial(i + ell, ell)
        if i - 1 >= 0:
            E[i - 1, i] = field.quantum_binomial(n - i + 1, 1)
        if i - ell >= 0:
            El[i - ell, i] = field.quantum_binomial(n - i + ell, ell)
    M = UModule(field, weights, E, F, El, Fl)
    _weyl_cache[key] = M
    return M


def dual_weyl_module(field: CycloField, n: int) -> UModule:
    key = (field.ell, n)
    if key not in _nabla_cache:
        _nabla_cache[key] = dual_module(weyl_module(field, n))
    return _nabla_cache[key]


def simple_module(field: CycloField, n: int) -> UModule:
    """L(n) as the submodule of Nabla(n) generated by its weight-n vector.

    The socle of Nabla(n) is L(n) and holds the one-dimensional weight-n
    space, so that vector generates L(n) (the image of Delta(n) -> Nabla(n));
    the result is certified by its closed-form character.  L(n) has its
    basis weights descending.  When Nabla(n) is simple (n < ell, or
    n = -1 mod ell) the generated submodule is Nabla(n) itself, whose basis
    is weights ascending, so that basis is put in weights-descending order
    here, once per (ell, n).
    """
    key = (field.ell, n)
    if key in _simple_cache:
        return _simple_cache[key]
    nabla = dual_weyl_module(field, n)
    blocks = nabla.weight_blocks()
    (top,) = blocks[n]
    L, _ = submodule_generated(nabla, [{top: field.one}])
    if L is nabla:
        basis = [i for m in sorted(blocks, reverse=True) for i in blocks[m]]
        position = {i: j for j, i in enumerate(basis)}
        L = UModule(field, tuple(nabla.weights[i] for i in basis), *(
            ExactMatrix(field, L.dim, L.dim,
                        [{position[c]: v for c, v in g.entries[i].items()} for i in basis])
            for g in (nabla.E, nabla.F, nabla.El, nabla.Fl)))
    if L.character != simple_character(field, n):
        raise CertificationError(f"the weight-{n} vector of Nabla({n}) does not generate L({n})")
    _simple_cache[key] = L
    return L


# ---------------------------------------------------------------------------
# splitting machinery


class Part:
    __slots__ = ("label", "module", "inclusion", "projection")

    def __init__(self, label, module, inclusion, projection):
        self.label = label
        self.module = module
        self.inclusion = inclusion  # part -> M
        self.projection = projection  # M -> part

    def __repr__(self):
        return f"Part({self.label}, dim={self.module.dim})"


def _flatten(mat: ExactMatrix):
    """The entries of a matrix as one sparse vector, entry (r, c) at r * cols + c."""
    n = mat.cols
    return {r * n + c: v for r, row in enumerate(mat.entries) for c, v in row.items()}


def tilting_homs(mu: int, X: UModule, nabla_mults):
    """Basis of Hom(T(mu), X), the `hom_space` basis, for a Nabla-filtered X
    with nabla_mults {c: (X:Nabla(c))}.

    Its dimension is certified against `tilting_hom_dimension`, and a space
    predicted zero is not solved.
    """
    field = X.field
    expected = tilting_hom_dimension(field, mu, nabla_mults)
    if not expected:
        return []
    basis = hom_space(tilting_module(field, mu), X)
    if len(basis) != expected:
        raise CertificationError(f"Hom(T({mu}), X) has dimension {len(basis)}, not {expected},"
                                 f" for X of Nabla-multiplicities {dict(nabla_mults)}")
    return basis


def minimal_tilting_cover(X: UModule, labels, nabla_mults):
    """The maps (mu, h), h: T(mu) -> X, mu in labels, of the minimal tilting
    cover of a Nabla-filtered X with nabla_mults {c: (X:Nabla(c))}.

    For each mu in labels, descending, the basis of Hom(T(mu), X)
    (tilting_homs, certified) gives components, and _prune_factoring drops
    those that factor through the rest.  With S the labels, the kept h_i,
    stacked into h: P = sum_i T(mu_i) -> X, satisfy:
      1. h is a right add(T_S)-approximation: each map T(mu) -> X, mu in S,
         is a sum of components, and a component is dropped only when it is
         a sum of h_j o phi over components then kept, each of which is kept
         or is such a sum itself.  So the prune keeps the image of h too.
      2. h is onto when S holds every c with (X:Nabla(c)) > 0 (Ringel, Math.
         Z. 208, 1991; Auslander-Reiten, Adv. Math. 86, 1991): a map
         Delta(c) -> X extends along Delta(c) -> T(c), whose cokernel is
         Delta-filtered, so by 1 Hom(Delta(c), P) -> Hom(Delta(c), X) is
         onto, and h is onto by induction along a Nabla-flag.
      3. h is right minimal: otherwise P has a summand T(nu) on which h is
         zero (Auslander-Smalo, J. Algebra 66, 1980), with kappa: T(nu) -> P,
         rho: P -> T(nu), rho kappa = 1 and h kappa = 0.  With kappa_i,
         rho_i the blocks at T(mu_i), 1 = sum_i rho_i kappa_i in the local
         ring End(T(nu)), so some rho_i kappa_i is a unit, and kappa_i, split
         into the indecomposable T(mu_i), is an isomorphism.  Then h kappa = 0
         gives h_i = -sum_(j != i) h_j kappa_j kappa_i^-1, a sum of h_j o phi,
         so h_i was dropped: it was tested against a superset of the kept.
      4. When X is in add(T_S), as a tilting X with S its labels is, id_X
         factors through h by 1, so h is split onto and its kernel is a
         summand of P on which h is zero, 0 by 3.  So h is an isomorphism (a
         right minimal approximation of a module in add(T) is one; Ringel,
         Math. Z. 208, 1991), and the kept labels are those of X.
    """
    components = [(mu, h) for mu in sorted(labels, reverse=True)
                  for h in tilting_homs(mu, X, nabla_mults)]
    return _prune_factoring(X.field, components, X)


def _prune_factoring(field, components, M):
    """Drop cover components that factor through the remaining ones.

    h_i: T(mu_i) -> M factors through the other kept components exactly when
    it lies in the span of the h_j o phi, phi in the basis of
    Hom(T(mu_i), T(mu_j)) (minimal_tilting_cover, where the proofs are).
    Components are tested from the largest source down, each against the
    components still kept.
    """
    kept = list(components)
    order = sorted(range(len(kept)), key=lambda i: kept[i][1].source.dim, reverse=True)
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


def _stack_maps(field, maps, target_dim: int) -> ExactMatrix:
    """The matrix of the sum of sources -> target of maps h_i into one
    target: the columns of each h_i, after those of the maps before it."""
    mat = ExactMatrix(field, target_dim, sum(h.source.dim for h in maps))
    off = 0
    for h in maps:
        for row, hrow in zip(mat.entries, h.matrix.entries):
            row.update((off + c, v) for c, v in hrow.items())
        off += h.source.dim
    return mat


def decompose_indecomposables(M: UModule):
    """Krull-Schmidt decomposition of a tilting module into parts T(n), with
    witness inclusions and projections, read off its minimal tilting cover.

    A module that the flag counts do not prove tilting raises ValueError.
    The labels S are read off ch M (decompose_tilting_character), and the
    cover (minimal_tilting_cover over S, with the Nabla-multiplicities of
    ch M) is then an isomorphism h: P = sum_i T(mu_i) -> M with the labels
    S, by point 4 of its proof.  Part i is T(mu_i) with inclusion h_i and
    projection block i of the rows of h^-1.  Other kept labels, or a
    singular h, raise CertificationError.
    """
    if not is_tilting(M):
        raise ValueError(f"the flag counts do not prove a dim-{M.dim} module tilting")
    field = M.field
    labels = decompose_tilting_character(field, M.character)
    kept = minimal_tilting_cover(M, labels, decompose_into_weyl(M.character))
    kept_labels = Counter(mu for mu, _ in kept)
    if kept_labels != labels:
        raise CertificationError(f"a tilting module does not split: its minimal tilting cover"
                                 f" has labels {dict(kept_labels)}, not {labels}")
    try:
        inverse = _stack_maps(field, [h for _, h in kept], M.dim).inverse()
    except ZeroDivisionError as exc:
        raise CertificationError(f"a tilting module does not split: the minimal tilting cover"
                                 f" of a dim-{M.dim} module is singular") from exc
    parts, off = [], 0
    for mu, h in kept:
        d = h.source.dim
        proj = ExactMatrix(field, d, M.dim, inverse.entries[off:off + d])
        parts.append(Part(("T", mu), h.source, h, UMorphism(M, h.source, proj)))
        off += d
    return parts


def split_if_tilting(M: UModule):
    """decompose_indecomposables(M) if the flag counts prove M tilting, else
    None; the counts are kept on M, so none is taken twice."""
    return decompose_indecomposables(M) if is_tilting(M) else None


# ---------------------------------------------------------------------------
# tilting modules


def tilting_module(field: CycloField, n: int) -> UModule:
    """T(n), built with no search: Delta(n) below ell; _glued_tilting_module
    up to 2ell-2, certified by its character and flag counts; above that
    T(ell-1+b) (x) L(a)^[1] for n = ell-1+b+ell*a, one tensor product with the
    Frobenius twist, certified by its character."""
    if n < 0:
        raise ValueError("highest weight must be nonnegative")
    ell = field.ell
    key = (ell, n)
    if key in _tilting_cache:
        return _tilting_cache[key]
    if n < ell:
        T = weyl_module(field, n)
    elif n <= 2 * ell - 2:
        T = _glued_tilting_module(field, n - (ell - 1))
        if T.character != tilting_character(field, n) or not is_tilting(T):
            raise CertificationError(f"the glued T({n}) is not a tilting module of character ch T({n})")
    else:
        a, b = divmod(n - (ell - 1), ell)
        T = tensor_module(tilting_module(field, ell - 1 + b), frobenius_twist(field, a))
        if T.character != tilting_character(field, n):
            raise CertificationError(f"T({n}) = T({ell - 1 + b}) (x) L({a})^[1] has the wrong character")
    _tilting_cache[key] = T
    return T


def _glued_tilting_module(field: CycloField, b: int) -> UModule:
    """T(n) for n = ell-1+b, 0 < b < ell: the non-split extension of
    Delta(m), m = ell-1-b, by Delta(n) (Ringel, Math. Z. 208, 1991;
    Andersen-Tubbenhauer, Transform. Groups 22, 2017).

    On the basis m_0..m_n of Delta(n) then u_0..u_m of Delta(m), E u_0 gains
    m_(b-1) and F u_j gains -[b+j choose j+1] m_(b+j+1); E^(ell) and F^(ell)
    are those of the direct sum, as weights leave them no room for glue.
    Proof that the relations hold, with e_j, f_j the glue of E u_j, F u_j:
      1. The glue maps the u-part into the m-part, so a product with two glue
         factors is 0: every defining relation is linear in the glue.
      2. On u_j the [E, F] relation reads [j+1](e_(j+1) - f_j) =
         [b+j](e_j - f_(j-1)), using [ell-k] = -[k].  Modulo the coboundaries
         u_j -> u_j + h_j m_(b+j) its solutions form a line, as
         Hom(Delta(m), Delta(n)) is one-dimensional.
      3. A coboundary leaves e_0 unchanged ([n-b+1] = [ell] = 0).  This glue
         (e_0 = 1, the other e_j 0, f_j from 2 by induction) has e_0 != 0,
         so it spans that line.
      4. T(n) realises a nonzero class in that line.  The relations are
         linear in the glue and hold on coboundaries, so they hold here.
    """
    ell = field.ell
    n, m = ell - 1 + b, ell - 1 - b
    S = direct_sum(weyl_module(field, n), weyl_module(field, m))
    E, F = S.E.copy(), S.F.copy()
    E[b - 1, n + 1] = field.one
    for j in range(m + 1):
        F[b + j + 1, n + 1 + j] = -field.quantum_binomial(b + j, j + 1)
    return UModule(field, S.weights, E, F, S.El, S.Fl)


def tilting_hom_basis(field: CycloField, a: int, b: int):
    """Basis of Hom(T(a), T(b)), tilting_homs over the Nabla-multiplicities
    of T(b) read off its closed-form character, cached per (ell, a, b)."""
    key = (field.ell, a, b)
    basis = _tilting_hom_cache.get(key)
    if basis is None:
        basis = _tilting_hom_cache[key] = tilting_homs(
            a, tilting_module(field, b), tilting_weyl_multiplicities(field, b))
    return basis


def tilting_hom_dimension(field: CycloField, a: int, nabla_mults) -> int:
    """dim Hom(T(a), X) = sum_c (T(a):Delta(c)) (X:Nabla(c)) for a
    Nabla-filtered X with nabla_mults {c: (X:Nabla(c))}, since
    Ext^1(Delta, Nabla) = 0; (T(a):Delta(c)) is read off the closed-form
    character (ch Delta(c) = ch Nabla(c) = chi(c))."""
    return sum(m * nabla_mults.get(c, 0)
               for c, m in tilting_weyl_multiplicities(field, a).items())


def tilting_weyl_multiplicities(field: CycloField, n: int):
    """{c: (T(n):Delta(c))} = {c: (T(n):Nabla(c))}, the Weyl decomposition
    of the closed-form ch T(n), memoized per (ell, n); callers must not
    modify it."""
    key = (field.ell, n)
    mults = _tilting_weyl_cache.get(key)
    if mults is None:
        mults = _tilting_weyl_cache[key] = decompose_into_weyl(tilting_character(field, n))
    return mults


def tilting_character(field: CycloField, n: int) -> Character:
    """ch T(n) in closed form, without building the module.

    Donkin's tensor product theorem for sl2 at an ell-th root of unity:
    T(ell-1+b+ell*a) = T(ell-1+b) (x) L(a)^[1] for 0 <= b < ell, where
    ch T(ell-1+b) = chi(ell-1+b) + chi(ell-1-b) for b > 0 and the Frobenius
    twist L(a)^[1] has character chi(a) with every weight scaled by ell.
    Below ell-1 the Weyl module is simple and tilting, so ch T(n) = chi(n).
    """
    if n < 0:
        raise ValueError("highest weight must be nonnegative")
    ell = field.ell
    key = (ell, n)
    ch = _tilting_character_cache.get(key)
    if ch is not None:
        return ch
    if n < ell - 1:
        ch = weyl_character(n)
    else:
        a, b = divmod(n - (ell - 1), ell)
        head = weyl_character(ell - 1 + b)
        if b:
            head = head + weyl_character(ell - 1 - b)
        ch = head * _twisted_weyl_character(ell, a)
    _tilting_character_cache[key] = ch
    return ch


def _twisted_weyl_character(ell: int, a: int) -> Character:
    """ch L(a)^[1]: chi(a) with every weight scaled by ell."""
    return Character({ell * w: m for w, m in weyl_character(a).coeffs.items()})


def simple_character(field: CycloField, n: int) -> Character:
    """ch L(n) in closed form, without building the module: by the tensor
    product theorem L(n0 + ell*n1) = L(n0) (x) L(n1)^[1] for 0 <= n0 < ell,
    and L(n0) = Delta(n0), so ch L(n) = chi(n0) times chi(n1) with every
    weight scaled by ell."""
    n1, n0 = divmod(n, field.ell)
    return weyl_character(n0) * _twisted_weyl_character(field.ell, n1)


def label_table_character(field: CycloField, table) -> Character:
    """sum_i (-1)^i sum of ch T(n) over the labels n in degree i.

    For the label table of C_min(M) this is the Euler character, so it must
    equal ch M.
    """
    acc = {}
    for i, labels in table.items():
        sign = -1 if i % 2 else 1
        for n in labels:
            for w, m in tilting_character(field, n).coeffs.items():
                acc[w] = acc.get(w, 0) + sign * m
    return Character(acc)


def _unitriangular_decomposition(ch: Character, basis, what: str):
    """{n: multiplicity} with ch = sum of multiplicity * basis(n), by top-down
    subtraction.

    basis(n) must have top weight n with multiplicity 1, so the basis is
    unitriangular against the weight order and each multiplicity is the
    coefficient of the top weight left over.  Subtracting nonnegative
    multiples only lowers coefficients, so a negative coefficient stays
    until it is the top one: a negative multiplicity, or a top weight below
    zero, means that ch is not a nonnegative sum of basis characters and
    raises ValueError.
    """
    rest = dict(ch.coeffs)
    out = {}
    while rest:
        top = max(rest)
        mult = rest[top]
        if top < 0 or mult < 0:
            raise ValueError(f"character is not a nonnegative sum of {what} characters"
                             f" (multiplicity {mult} at weight {top})")
        for w, m in basis(top).coeffs.items():
            left = rest.get(w, 0) - mult * m
            if left:
                rest[w] = left
            else:
                del rest[w]
        out[top] = mult
    return out


def decompose_tilting_character(field: CycloField, ch: Character):
    """Multiset {n: multiplicity} with ch = sum of tilting characters; raises
    ValueError when ch is not a nonnegative sum of them."""
    return _unitriangular_decomposition(ch, lambda n: tilting_character(field, n), "tilting")


def composition_multiplicities(field: CycloField, ch: Character):
    """{c: [M:L(c)]} for a module M of character ch, read off ch by the
    closed-form simple characters; builds no module.  Raises ValueError when
    ch is not a nonnegative sum of simple characters, which no module's
    character is."""
    return _unitriangular_decomposition(ch, lambda c: simple_character(field, c), "simple")


def tilting_socle(field: CycloField, n: int) -> int:
    """s(n), the label of the simple socle L(s(n)) of T(n).

    s(n) = n when T(n) is simple: for n < ell-1, where T(n) = Delta(n), and
    for n = ell-1+ell*a, where T(n) = St (x) L(a)^[1] = L(n).  Otherwise
    n = ell-1+b+ell*a with 0 < b < ell, and s(n) = ell-1-b+ell*a.

    Proof.  For 0 < b < ell, T(ell-1+b), of dimension 2 ell, restricts to
    the small quantum group u as an indecomposable projective, hence
    injective, u-module, so its u-socle is simple.  It contains
    Delta(ell-1+b), whose socle is L(ell-1-b), so that simple is
    L(ell-1-b).  Write c = c0 + ell*c1 with 0 <= c0 < ell, so that
    L(c) = L(c0) (x) L(c1)^[1], and T(n) = T(ell-1+b) (x) L(a)^[1] (Donkin's
    tensor product theorem; Andersen-Tubbenhauer, Transform. Groups 22,
    2017).  Then Hom(L(c), T(n)) = Hom(L(c1), Hom_u(L(c0), T(ell-1+b))
    (x) L(a)) over the Frobenius quotient, and Hom_u(L(c0), T(ell-1+b)) is
    zero unless c0 = ell-1-b, where it is the trivial module.  So
    dim Hom(L(c), T(n)) is 1 for c = ell-1-b+ell*a and 0 for every other c.
    """
    ell = field.ell
    if n < ell - 1:
        return n
    a, b = divmod(n - (ell - 1), ell)
    return n if b == 0 else ell - 1 - b + ell * a


# ---------------------------------------------------------------------------
# standard filtrations


def primitive_counts(M: UModule):
    """{c: h_c(M)} for c >= 0, h_c(M) = dim Hom(Delta(c), M).

    By the universal property of Weyl modules (Andersen-Polo-Wen, Invent.
    Math. 104, 1991; classically Jantzen, Representations of Algebraic
    Groups, II.2.13), h_c(M) is the dimension of the weight-c vectors that
    every E^(r) kills; over Q(zeta_ell), E and E^(ell) generate every E^(r),
    so h_c(M) = dim M_c minus the rank of the rows of E from weight c+2 and
    of E^(ell) from weight c+2ell, which meet only the columns of M_c.

    Criterion: dim M <= sum_c h_c(M) (c+1), with equality exactly when M
    has a Nabla-flag.  Proof, by induction on the top weight lam of M, with
    m = dim M_lam (M = 0 is trivial):
      - Frobenius reciprocity (Nabla(lam) is induced from lam on the
        negative Borel part) identifies Hom(M, Nabla(lam)) with the dual of
        M_lam, as no weight of M lies above lam.  A basis of it gives
        e: M -> Nabla(lam)^m, injective on M_lam.
      - Its image I contains all of weight lam and lies in Nabla(lam)^m,
        whose only primitive vectors have weight lam (socle L(lam)), so
        h_c(I) = m delta_{c lam} and sum_c h_c(I) (c+1) = m (lam+1) >= dim I,
        with equality only if I = Nabla(lam)^m.
      - Its kernel N has no weight lam, and h_c(N) <= h_c(M) for every c
        (Hom(Delta(c), -) is left exact).  By induction dim N <=
        sum_{c < lam} h_c(N) (c+1), so dim M = dim N + dim I is at most
        sum_c h_c(M) (c+1).
      - Equality forces I = Nabla(lam)^m and equality for N, so N is
        Nabla-filtered by induction, and so is M.  Conversely, on a Nabla-
        filtered M, h_c(M) = (M:Nabla(c)) since Ext^1(Delta, Nabla) = 0 and
        Hom(Delta(c), Nabla(d)) is k when c = d and 0 otherwise; the sum is
        then sum_c (M:Nabla(c)) dim Nabla(c) = dim M.
    M has a Delta-flag exactly when M* has a Nabla-flag
    (dual_primitive_counts).  The counts are taken once per module and kept
    on it.
    """
    if M._nabla_counts is None:
        M._nabla_counts = _primitive_counts(M, 1, M.E.entries, M.El.entries)
    return M._nabla_counts


def dual_primitive_counts(M: UModule):
    """{c: h_c(M*)} for c >= 0, without building M*.

    (M*)_c is the dual of M_{-c}, and E, E^(ell) act on M* by the
    transposes of E, E^(ell) up to sign and the invertible K^-1, so
    h_c(M*) = dim M_{-c} minus the rank of E M_{-c-2} + E^(ell) M_{-c-2ell}
    inside M_{-c}: the same blocks as primitive_counts, read by column.
    Kept on the module, as primitive_counts is.
    """
    if M._delta_counts is None:
        M._delta_counts = _primitive_counts(M, -1, M.E.transpose().entries, M.El.transpose().entries)
    return M._delta_counts


def _primitive_counts(M: UModule, sign: int, E_vecs, El_vecs):
    """{c: dim M_{sign c} minus the rank of the vectors E_vecs[i], i of
    weight sign (c+2), and El_vecs[i], i of weight sign (c+2ell)}, c >= 0."""
    blocks = M.weight_blocks()
    ell = M.field.ell
    out = {}
    for w, idx in blocks.items():
        c = sign * w
        if c < 0:
            continue
        ech = RowEchelon(M.field)
        for vecs, shift in ((E_vecs, 2), (El_vecs, 2 * ell)):
            for i in blocks.get(sign * (c + shift), ()):
                if vecs[i]:
                    ech.insert(vecs[i])
        out[c] = len(idx) - len(ech.rows)
    return out


def _count_holds(M: UModule, counts) -> bool:
    """Whether dim M = sum_c h_c (c+1); a sum below dim M contradicts the
    criterion of primitive_counts and raises CertificationError."""
    total = sum(h * (c + 1) for c, h in counts.items())
    if total < M.dim:
        raise CertificationError(f"primitive vectors span {total} < dim {M.dim}")
    return total == M.dim


def has_nabla_flag(M: UModule) -> bool:
    """Whether M has a Nabla-flag (criterion of primitive_counts)."""
    return _count_holds(M, primitive_counts(M))


def has_delta_flag(M: UModule) -> bool:
    """Whether M has a Delta-flag (the Nabla criterion on M*)."""
    return _count_holds(M, dual_primitive_counts(M))


def is_tilting(M: UModule) -> bool:
    """Whether M has both a Delta- and a Nabla-flag."""
    return has_nabla_flag(M) and has_delta_flag(M)


def peel_standard_filtration(M: UModule, side: str):
    """Ordered weights of a Delta- or Nabla-filtration, or None on failure.

    The Delta side repeatedly splits off a highest-weight submodule
    isomorphic to Delta(mu) for the maximal weight mu; the Nabla side is the
    dual procedure, realized by peeling the dual module.  Production code
    decides flags by primitive_counts; this peel is its test oracle.
    """
    if side == "nabla":
        return peel_standard_filtration(dual_module(M), "delta")
    if side != "delta":
        raise ValueError("side must be 'delta' or 'nabla'")
    # quick character screen: a Delta-filtered character is a nonneg Weyl sum
    if not is_nonneg_weyl_sum(M.character):
        return None
    peels = []
    R = M
    while R.dim:
        mu = R.character.max_weight()
        blocks = R.weight_blocks()
        found = False
        for idx in blocks[mu]:
            S, incl = submodule_generated(R, [{idx: R.field.one}])
            if S.dim == mu + 1 and S.character == weyl_character(mu):
                R, _ = quotient_module(R, incl)
                peels.append(mu)
                found = True
                break
        if not found:
            return None
    return peels

"""Standard, costandard, simple and indecomposable tilting modules.

Constructors are memoized per (ell, kind, n).  Tilting modules and their
characters are closed-form above 2ell-2 (Donkin's tensor product theorem,
T(ell-1+b+ell*a) = T(ell-1+b) (x) L(a)^[1]); only T(n) for n <= 2ell-2 is
built by tensor-and-peel.  Tilting characters never build a module, so
character arithmetic on tiltings, such as tensor ideals and Euler-character
checks, costs only dictionary operations.

Nabla-flags, Delta-flags and tilting-ness are decided by counting primitive
vectors (primitive_counts): M has a Nabla-flag exactly when
dim M = sum_c dim Hom(Delta(c), M) (c+1), and a Delta-flag exactly when the
same count on the dual holds, read off the same weight blocks without
building the dual.  Neither flag is peeled and nothing is split to decide.
Each count is taken once per module and kept on it.

Krull-Schmidt decomposition of a tilting module reads its summand labels off
the closed-form character (tilting characters are unitriangular) and splits
each predicted T(n) off by the split-pair test: C splits off M as soon as
some composite M -> C -> M ... C -> M -> C is invertible, which for C with
local endomorphism ring is detected by a nonzero trace.  split_if_tilting(M)
is that split when is_tilting(M) and None otherwise, so a predicted summand
that does not split there is an internal fault (CertificationError).  A
peeled T(n) is certified by its character and its flag counts, since a
tilting module is determined by its character.

Hom(T(a), T(b)) is solved once per (ell, a, b) (tilting_hom_basis) and its
dimension certified against sum_c (T(a):Delta(c)) (T(b):Nabla(c)).
"""

from __future__ import annotations

from tiltlab.characters import Character, decompose_into_weyl, is_nonneg_weyl_sum, weyl_character
from tiltlab.cyclotomic import CertificationError, CycloField, sum_of_products
from tiltlab.linalg import ExactMatrix, RowEchelon
from tiltlab.modules import (
    UModule,
    UMorphism,
    dual_module,
    frobenius_twist,
    hom_space,
    kernel_module,
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
    the result is certified by its closed-form character.
    """
    key = (field.ell, n)
    if key in _simple_cache:
        return _simple_cache[key]
    nabla = dual_weyl_module(field, n)
    (top,) = nabla.weight_blocks()[n]
    L, _ = submodule_generated(nabla, [{top: field.one}])
    if L.character != simple_character(field, n):
        raise CertificationError(f"the weight-{n} vector of Nabla({n}) does not generate L({n})")
    _simple_cache[key] = L
    return L


# ---------------------------------------------------------------------------
# splitting machinery


def _trace_of_product(a: ExactMatrix, b: ExactMatrix):
    """tr(a b) = sum of a[i, j] b[j, i] over the nonzero entries."""
    brows = b.entries
    acc = sum_of_products((x, brows[j][i]) for i, arow in enumerate(a.entries)
                          for j, x in arow.items() if i in brows[j])
    return a.field.zero if acc is None else acc


class NonSplitError(ArithmeticError):
    """A tilting summand that the character predicts does not split off.

    Raised when ch M is a sum of tilting characters but M is not the
    matching sum of T(n), so M is not tilting; reported, never guessed.
    """


class Part:
    __slots__ = ("label", "module", "inclusion", "projection")

    def __init__(self, label, module, inclusion, projection):
        self.label = label
        self.module = module
        self.inclusion = inclusion  # part -> M
        self.projection = projection  # M -> part

    def __repr__(self):
        return f"Part({self.label}, dim={self.module.dim})"


def _split_pair(R: UModule, C: UModule):
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


def _complement_of_idempotent(R: UModule, e_mat: ExactMatrix):
    """Kernel of an idempotent endomorphism, with inclusion and retraction."""
    field = R.field
    K, incl = kernel_module(UMorphism(R, R, e_mat))
    # retraction: x -> coordinates of (1 - e)x in the kernel basis
    one_minus = ExactMatrix.identity(field, R.dim) - e_mat
    sol = incl.matrix.solve(one_minus)
    if sol is None:
        raise CertificationError("idempotent complement failed to solve")
    retr = UMorphism(R, K, sol)
    return K, incl, retr


def _split_tilting_labels(M: UModule, labels):
    """Split T(mu) off M for every mu of the multiset `labels` ({mu: mult}),
    top down with multiplicity.

    Each label is split against the canonical tilting_module(mu).  Returns
    the parts and the remainder.
    """
    field = M.field
    R, incl, proj = M, UMorphism.identity(M), UMorphism.identity(M)
    parts = []
    for mu in sorted(labels, reverse=True):
        C = tilting_module(field, mu)
        for _ in range(labels[mu]):
            split = _split_pair(R, C)
            if split is None:
                raise NonSplitError(f"T({mu}) is predicted by the character but does not split off (dim {R.dim})")
            phi, psi = split
            parts.append(Part(("T", mu), C, incl.compose(phi), psi.compose(proj)))
            if R.dim == C.dim:
                # phi is an isomorphism: this was the last label
                R = UModule.zero_module(field)
                continue
            R, kincl, kretr = _complement_of_idempotent(R, phi.matrix @ psi.matrix)
            incl, proj = incl.compose(kincl), kretr.compose(proj)
    return parts, R


def decompose_indecomposables(M: UModule):
    """Krull-Schmidt decomposition of a tilting module into parts T(n), with
    witness inclusions and projections.

    The labels are read off ch M (decompose_tilting_character); a character
    that is not a sum of tilting characters raises ValueError, a module whose
    predicted summands do not split raises NonSplitError.
    """
    labels = decompose_tilting_character(M.field, M.character)
    parts, R = _split_tilting_labels(M, labels)
    if R.dim:
        raise CertificationError("decomposition lost dimensions")
    return parts


def split_if_tilting(M: UModule):
    """decompose_indecomposables(M) if M is tilting, else None.

    Nothing is split unless both flag counts hold; a tilting M is the direct
    sum of the T(mu) that ch M predicts, so a predicted summand that then
    does not split is an internal fault and raises CertificationError.
    """
    if not is_tilting(M):
        return None
    try:
        return decompose_indecomposables(M)
    except NonSplitError as exc:
        raise CertificationError(f"a tilting module by the flag counts does not split: {exc}") from exc


# ---------------------------------------------------------------------------
# tilting modules


def tilting_module(field: CycloField, n: int) -> UModule:
    """T(n), closed-form above 2ell-2.

    For n = ell-1+b+ell*a with 0 <= b < ell and a >= 1, Donkin's tensor
    product theorem gives T(n) = T(ell-1+b) (x) L(a)^[1], built as one tensor
    product with the Frobenius twist; its character is certified against
    tilting_character.  For n <= 2ell-2, T(n) is the summand of
    T(n-1) (x) Delta(1) at weight n, left after the other labels its
    character predicts are split off (tensor-and-peel).
    """
    if n < 0:
        raise ValueError("highest weight must be nonnegative")
    ell = field.ell
    key = (ell, n)
    if key in _tilting_cache:
        return _tilting_cache[key]
    if n == 0:
        T = UModule.trivial(field)
    elif n == 1:
        T = weyl_module(field, 1)
    elif n <= 2 * ell - 2:
        big = tensor_module(tilting_module(field, n - 1), weyl_module(field, 1))
        T = _extract_top_summand(big, n)
    else:
        a, b = divmod(n - (ell - 1), ell)
        T = tensor_module(tilting_module(field, ell - 1 + b), frobenius_twist(field, a))
        if T.character != tilting_character(field, n):
            raise CertificationError(f"T({n}) = T({ell - 1 + b}) (x) L({a})^[1] has the wrong character")
    _tilting_cache[key] = T
    return T


def tilting_hom_basis(field: CycloField, a: int, b: int):
    """Basis of Hom(T(a), T(b)), the `hom_space` basis, cached per (ell, a, b).

    Its dimension is certified against `tilting_hom_dimension`, with the
    Nabla-multiplicities of T(b) read off its closed-form character; a pair
    predicted zero is not solved.
    """
    key = (field.ell, a, b)
    basis = _tilting_hom_cache.get(key)
    if basis is None:
        expected = tilting_hom_dimension(field, a, tilting_weyl_multiplicities(field, b))
        basis = []
        if expected:
            basis = hom_space(tilting_module(field, a), tilting_module(field, b))
            if len(basis) != expected:
                raise CertificationError(
                    f"Hom(T({a}), T({b})) has dimension {len(basis)}, not {expected}")
        _tilting_hom_cache[key] = basis
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


def _extract_top_summand(M: UModule, n: int) -> UModule:
    """Split every T(mu) but the single T(n) off the tilting module M and
    certify that the remainder R is T(n) by its character and flag counts.

    A tilting module is the direct sum of indecomposable tilting modules,
    and each of those is T(mu) for its top weight mu (Ringel, Math. Z. 208,
    1991).  Tilting characters are unitriangular, so the character of a
    tilting module fixes the multiset of its summands: if R is tilting and
    ch R = ch T(n), then R = T(n).  Otherwise CertificationError is raised.
    """
    labels = decompose_tilting_character(M.field, M.character)
    if labels.get(n) != 1:
        raise CertificationError(f"T({n}) has multiplicity {labels.get(n, 0)}, not 1")
    del labels[n]
    try:
        _, R = _split_tilting_labels(M, labels)
    except NonSplitError as exc:
        raise CertificationError(f"T({n - 1}) (x) Delta(1) does not split: {exc}") from exc
    if R.character != tilting_character(M.field, n) or not is_tilting(R):
        raise CertificationError(f"the remainder for T({n}) is not a tilting module of character ch T({n})")
    return R


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


def decompose_tilting_character(field: CycloField, ch: Character):
    """Multiset {n: multiplicity} with ch = sum of tilting characters.

    Characters of the T(n) are unitriangular against the weight order, so the
    greedy top-down subtraction is exact; a negative multiplicity means the
    input was not a tilting character and raises.
    """
    rest = Character(dict(ch.coeffs))
    out = {}
    while not rest.is_zero():
        top = rest.max_weight()
        if top is None or top < 0:
            raise ValueError("character is not a nonnegative sum of tilting characters")
        mult = rest.multiplicity(top)
        if mult <= 0:
            raise ValueError("character is not a nonnegative sum of tilting characters")
        tch = tilting_character(field, top)
        rest = rest - Character({w: mult * m for w, m in tch.coeffs.items()})
        out[top] = out.get(top, 0) + mult
        if any(m < 0 for m in rest.coeffs.values()):
            raise ValueError("character is not a nonnegative sum of tilting characters")
    return out


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
    (dual_primitive_counts).
    """
    return _primitive_counts(M, 1, M.E.entries, M.El.entries)


def dual_primitive_counts(M: UModule):
    """{c: h_c(M*)} for c >= 0, without building M*.

    (M*)_c is the dual of M_{-c}, and E, E^(ell) act on M* by the
    transposes of E, E^(ell) up to sign and the invertible K^-1, so
    h_c(M*) = dim M_{-c} minus the rank of E M_{-c-2} + E^(ell) M_{-c-2ell}
    inside M_{-c}: the same blocks as primitive_counts, read by column.
    """
    return _primitive_counts(M, -1, M.E.transpose().entries, M.El.transpose().entries)


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
    """Whether M has a Nabla-flag (criterion of primitive_counts), counted
    once per module and kept on it."""
    if M._nabla_flag is None:
        M._nabla_flag = _count_holds(M, primitive_counts(M))
    return M._nabla_flag


def has_delta_flag(M: UModule) -> bool:
    """Whether M has a Delta-flag (the Nabla criterion on M*), counted once
    per module and kept on it."""
    if M._delta_flag is None:
        M._delta_flag = _count_holds(M, dual_primitive_counts(M))
    return M._delta_flag


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

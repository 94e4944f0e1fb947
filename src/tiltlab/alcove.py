"""Alcove combinatorics for all simple root systems, in exact integers.

Weights live in fundamental-weight coordinates, so every pairing with a
coroot is an integer dot product and no invariant inner product is ever
needed.  Roots are generated from the Cartan matrix by reflection closure,
carrying simple-root, fundamental-weight and coroot coordinates side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

CLASSICAL_DATA = {
    # type -> (positive root count, Coxeter number) as functions of rank
    "A": (lambda n: n * (n + 1) // 2, lambda n: n + 1),
    "B": (lambda n: n * n, lambda n: 2 * n),
    "C": (lambda n: n * n, lambda n: 2 * n),
    "D": (lambda n: n * (n - 1), lambda n: 2 * n - 2),
    "E": (
        lambda n: {6: 36, 7: 63, 8: 120}[n],
        lambda n: {6: 12, 7: 18, 8: 30}[n],
    ),
    "F": (lambda n: 24, lambda n: 12),
    "G": (lambda n: 6, lambda n: 6),
}


def cartan_matrix(kind: str, rank: int):
    """Rows are pairings against simple coroots: C[i][j] = <alpha_j, alpha_i^vee>."""
    def chain(n):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = 2
            if i + 1 < n:
                m[i][i + 1] = -1
                m[i + 1][i] = -1
        return m

    if kind == "A":
        if rank < 1:
            raise ValueError("A_n needs n >= 1")
        return chain(rank)
    if kind == "B":
        if rank < 2:
            raise ValueError("B_n needs n >= 2")
        m = chain(rank)
        m[rank - 1][rank - 2] = -2  # alpha_{n-1} long against short coroot
        return m
    if kind == "C":
        if rank < 2:
            raise ValueError("C_n needs n >= 2")
        m = chain(rank)
        m[rank - 2][rank - 1] = -2
        return m
    if kind == "D":
        if rank < 3:
            raise ValueError("D_n needs n >= 3")
        m = chain(rank - 1)
        for row in m:
            row.append(0)
        m.append([0] * rank)
        m[rank - 1][rank - 1] = 2
        m[rank - 1][rank - 3] = -1
        m[rank - 3][rank - 1] = -1
        return m
    if kind == "E":
        if rank not in (6, 7, 8):
            raise ValueError("E_n needs n in {6, 7, 8}")
        # Bourbaki numbering: node 2 attaches to node 4
        m = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            m[i][i] = 2
        bonds = [(0, 2), (2, 3), (3, 4), (1, 3)]
        bonds += [(4, 5)] if rank >= 6 else []
        if rank >= 7:
            bonds.append((5, 6))
        if rank == 8:
            bonds.append((6, 7))
        for a, b in bonds:
            m[a][b] = -1
            m[b][a] = -1
        return m
    if kind == "F":
        if rank != 4:
            raise ValueError("F4 has rank 4")
        return [
            [2, -1, 0, 0],
            [-1, 2, -1, 0],
            [0, -2, 2, -1],
            [0, 0, -1, 2],
        ]
    if kind == "G":
        if rank != 2:
            raise ValueError("G2 has rank 2")
        return [[2, -1], [-3, 2]]
    raise ValueError(f"unknown type {kind!r}")


@dataclass(frozen=True)
class Root:
    simple_coords: tuple  # in the alpha basis
    weight_coords: tuple  # in the omega basis
    coroot_coords: tuple  # the coroot in the alpha^vee basis

    def pairing(self, lam) -> int:
        """<lam, beta^vee> for lam in fundamental coordinates."""
        return sum(c * x for c, x in zip(self.coroot_coords, lam))


@dataclass
class RootSystemData:
    label: str
    kind: str
    rank: int
    cartan: tuple
    positive_roots: list
    rho: tuple
    highest_coroot: Root
    coxeter_number: int

    def is_dominant(self, lam) -> bool:
        return all(x >= 0 for x in lam)


def _parse_type(label: str):
    label = label.strip().upper().replace("_", "")
    if len(label) < 2 or label[0] not in "ABCDEFG":
        raise ValueError(f"invalid type label {label!r}")
    return label[0], int(label[1:])


def build_root_system(label: str) -> RootSystemData:
    """Positive roots and coroots by reflection closure from the Cartan matrix.

    s_i permutes the positive roots other than alpha_i (Humphreys,
    Introduction to Lie Algebras, 10.2 Lemma B), and every positive root is
    reached from a simple root by such steps, so the closure starts at the
    simple roots and never reflects alpha_i by s_i.
    """
    kind, rank = _parse_type(label)
    C = cartan_matrix(kind, rank)
    n = rank

    def reflect(i, triple):
        b, w, c = triple
        # alpha coords: only slot i moves
        pair_b = sum(C[i][j] * b[j] for j in range(n))
        b2 = list(b)
        b2[i] -= pair_b
        # omega coords: lam - lam_i * alpha_i
        w2 = [w[j] - w[i] * C[j][i] for j in range(n)]
        # coroot coords: dual system has the transposed Cartan matrix
        pair_c = sum(C[j][i] * c[j] for j in range(n))
        c2 = list(c)
        c2[i] -= pair_c
        return (tuple(b2), tuple(w2), tuple(c2))

    simple = []
    for k in range(n):
        b = tuple(1 if j == k else 0 for j in range(n))
        w = tuple(C[j][k] for j in range(n))
        simple.append((b, w, b))
    queue = list(simple)
    found = set()
    while queue:
        triple = queue.pop()
        if triple in found:
            continue
        found.add(triple)
        for i in range(n):
            if triple != simple[i]:
                nxt = reflect(i, triple)
                if nxt not in found:
                    queue.append(nxt)
    positive = sorted(found, key=lambda t: (sum(t[0]), t[0]))
    roots = [Root(b, w, c) for b, w, c in positive]
    expected_count, expected_h = CLASSICAL_DATA[kind]
    if len(roots) != expected_count(rank):
        raise ArithmeticError(
            f"{label}: reflection closure found {len(roots)} positive roots, "
            f"expected {expected_count(rank)}"
        )
    rho = tuple(1 for _ in range(n))
    highest = max(roots, key=lambda r: sum(r.coroot_coords))
    h = sum(highest.coroot_coords) + 1
    if h != expected_h(rank):
        raise ArithmeticError(f"{label}: Coxeter number {h} != {expected_h(rank)}")
    return RootSystemData(
        label=f"{kind}{rank}",
        kind=kind,
        rank=rank,
        cartan=tuple(tuple(row) for row in C),
        positive_roots=roots,
        rho=rho,
        highest_coroot=highest,
        coxeter_number=h,
    )


_rs_cache: dict = {}


def root_system(label: str) -> RootSystemData:
    key = label.strip().upper().replace("_", "")
    if key not in _rs_cache:
        _rs_cache[key] = build_root_system(key)
    return _rs_cache[key]


def _check_rank(rs: RootSystemData, lam):
    lam = tuple(lam)
    if len(lam) != rs.rank:
        raise ValueError(f"weight has {len(lam)} coordinates, rank is {rs.rank}")
    return lam


def _check_dominant(rs: RootSystemData, lam):
    lam = _check_rank(rs, lam)
    if not rs.is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant")
    return lam


def separating_hyperplane_count(rs: RootSystemData, lam, p: int) -> int:
    """d(lam): affine hyperplanes (x+rho, beta^vee) = rp strictly between
    the origin and lam; wall membership never separates."""
    if p < 1:
        raise ValueError("p must be positive")
    lam = _check_dominant(rs, lam)
    total = 0
    for beta in rs.positive_roots:
        lo = beta.pairing(rs.rho)
        hi = beta.pairing(tuple(l + r for l, r in zip(lam, rs.rho)))
        # integers r with lo < r*p < hi
        total += max(0, (hi - 1) // p - lo // p)
    return total


def separating_hyperplane_count_bruteforce(rs: RootSystemData, lam, p: int) -> int:
    """Direct enumeration over (beta, r); the independent test oracle."""
    lam = _check_dominant(rs, lam)
    total = 0
    for beta in rs.positive_roots:
        lo = beta.pairing(rs.rho)
        hi = beta.pairing(tuple(l + r for l, r in zip(lam, rs.rho)))
        r = 1
        while r * p < hi:
            if r * p > lo:
                total += 1
            r += 1
    return total


def is_p_regular(rs: RootSystemData, lam, p: int) -> bool:
    if p < 2:
        raise ValueError("p must be at least 2")
    lam = _check_rank(rs, lam)
    shifted = tuple(l + r for l, r in zip(lam, rs.rho))
    return all(beta.pairing(shifted) % p != 0 for beta in rs.positive_roots)


def steinberg_decompose(rs: RootSystemData, lam, p: int):
    """lam = lam0 + p*lam1 with lam0 p-restricted; coordinatewise divmod."""
    if p < 1:
        raise ValueError("p must be positive")
    lam = _check_dominant(rs, lam)
    lam0 = tuple(x % p for x in lam)
    lam1 = tuple((x - x0) // p for x, x0 in zip(lam, lam0))
    return lam0, lam1


def is_p_restricted(rs: RootSystemData, lam, p: int) -> bool:
    return all(0 <= x < p for x in _check_rank(rs, lam))


def is_negligible_weight(rs: RootSystemData, lam, p: int) -> bool:
    """(lam + rho, highest coroot) >= p."""
    if p < 1:
        raise ValueError("p must be positive")
    lam = _check_dominant(rs, lam)
    shifted = tuple(l + r for l, r in zip(lam, rs.rho))
    return rs.highest_coroot.pairing(shifted) >= p


def linkage_class(rs: RootSystemData, lam, p: int):
    """The W_p-representative of lam + rho in the closed fundamental p-alcove
    {x : (x, alpha_i^vee) >= 0 for all i, (x, highest coroot) <= p}.

    The closed alcove is a fundamental domain for W_p (Humphreys, Reflection
    Groups and Coxeter Groups, ch. 4; Jantzen, Representations of Algebraic
    Groups, II.6), so lam and mu are linked (mu lies in the dot orbit
    W_p . lam) iff their linkage classes are equal.  lam need not be dominant.
    Each step reflects in a wall of the alcove that separates the point from
    it, which brings the point strictly closer to an interior point; the
    orbit is discrete, so the loop ends.
    """
    if p < 1:
        raise ValueError("p must be positive")
    nu = [l + r for l, r in zip(_check_rank(rs, lam), rs.rho)]
    theta = rs.highest_coroot
    while True:
        for i, x in enumerate(nu):
            if x < 0:
                # s_i: alpha_i in omega coordinates is column i of the Cartan matrix
                nu = [y - x * row[i] for y, row in zip(nu, rs.cartan)]
                break
        else:
            step = theta.pairing(nu) - p
            if step <= 0:
                return tuple(nu)
            nu = [y - step * a for y, a in zip(nu, theta.weight_coords)]


def dot_orbit(rs: RootSystemData, lam, p: int, bound: int):
    """Dominant weights in the affine dot orbit of lam, with
    (mu, highest coroot) <= bound, sorted.

    A walk up the orbit from its alcove point.  In y = mu + rho the orbit is
    W_p(home), home = linkage_class(lam), and the output is y - rho over its
    points y with every y_i >= 1 in the closed region R = {y : y_i >= 0,
    (y, theta^vee) <= top}, top = bound + (rho, theta^vee).  One step from
    y reflects it, for a positive root beta, in the first wall above it,
    H_{beta, rp} with rp the least multiple of p greater than (y, beta^vee):
    z = y + (rp - (y, beta^vee)) beta.  The walk starts at home and keeps
    each z in R.

    It reaches every orbit point of R.  Such a point y lies in the closure
    of a dominant alcove A, and y = w_A(home).  If A is the fundamental
    alcove C, then y = home, since the closure of C is a fundamental domain.
    Otherwise some facet wall H = H_{beta, rp} of A (beta > 0, r >= 1)
    separates A from C.  Then s_H(y) lies in the closure of s_H(A), a
    dominant alcove nearer C, and its level is lower by
    ((y, beta^vee) - rp)(beta, theta^vee) >= 0, so s_H(y) is in R and, by
    induction on the distance to C, is reached.  Since s_H(A) lies between
    H_{beta, (r-1)p} and H, (s_H y, beta^vee) is in [(r-1)p, rp]: the
    step from s_H(y) for beta reflects in H and retraces y, unless
    s_H(y) = y.  The same descent shows that no orbit point of R has a
    level below home's, so a home above top leaves the orbit empty.

    The cost grows with the orbit points in R, not with bound^rank.  For
    p-regular lam every visited point is output; a singular lam also visits
    its orbit points on the chamber's walls y_i = 0.
    """
    home = linkage_class(rs, _check_dominant(rs, lam), p)
    theta = rs.highest_coroot
    top = bound + theta.pairing(rs.rho)
    if theta.pairing(home) > top:
        return []
    roots = rs.positive_roots
    # per positive root beta: beta in omega coordinates, (beta, theta^vee),
    # (beta, gamma^vee) for every positive root gamma, and (i, -beta_i) for
    # the coordinates that beta lowers
    steps = [
        (
            b.weight_coords,
            theta.pairing(b.weight_coords),
            [g.pairing(b.weight_coords) for g in roots],
            [(i, -x) for i, x in enumerate(b.weight_coords) if x < 0],
        )
        for b in roots
    ]
    seen = {home}
    # a point carries its level and its pairings with every positive coroot,
    # so a step costs no pairing and z is built only once it is known to be
    # in R
    stack = [(home, theta.pairing(home), [b.pairing(home) for b in roots])]
    while stack:
        y, level, pairs = stack.pop()
        for (beta, rise, col, falls), v in zip(steps, pairs):
            d = p - v % p
            if level + d * rise > top:
                continue
            for i, f in falls:
                if y[i] < d * f:  # z_i < 0
                    break
            else:
                z = tuple(map(add, y, map(d.__mul__, beta)))
                if z not in seen:
                    seen.add(z)
                    stack.append((z, level + d * rise, list(map(add, pairs, map(d.__mul__, col)))))
    return sorted(tuple(x - r for x, r in zip(y, rs.rho)) for y in seen if min(y) >= 1)


def steinberg_twist_example(rs: RootSystemData, p: int):
    """The weight (p^2 - p) rho with its regularity and negligibility facts.

    For p >= h the weight is p-regular and negligible; below h the
    regularity assertion is skipped with a notice.
    """
    if p < 1:
        raise ValueError("p must be positive")
    lam = tuple((p * p - p) * r for r in rs.rho)
    out = {
        "type": rs.label,
        "p": p,
        "weight": list(lam),
        "negligible": is_negligible_weight(rs, lam, p),
        "coxeter_number": rs.coxeter_number,
    }
    if p >= rs.coxeter_number:
        regular = is_p_regular(rs, lam, p)
        out["p_regular"] = regular
        if not (regular and out["negligible"]):
            raise ArithmeticError(
                f"twisted Steinberg weight failed its combinatorial facts at {rs.label}, p={p}"
            )
    else:
        out["p_regular"] = None
        out["notice"] = f"p = {p} < h = {rs.coxeter_number}: regularity assertion skipped"
    return out

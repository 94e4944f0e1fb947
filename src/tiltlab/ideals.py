"""Thick tensor ideals of tilting modules in a weight window, and the
ideals of the module category they generate through minimal tilting
complexes.

Ideals live in [0, W]; tensor closure is tracked in the extended window
[0, 2W] and any conclusion that would need labels beyond that aborts loudly.
The category-side ideal attached to a window ideal I is handled through its
membership test: every term of the minimal tilting complex lies in I.
"""

from __future__ import annotations

import random

from tiltlab.cyclotomic import CycloField
from tiltlab.modules import UModule, submodule_generated, quotient_module, tensor_module
from tiltlab.standard import (
    decompose_tilting_character,
    simple_module,
    tilting_character,
    tilting_module,
    weyl_module,
)


class WindowOverflowError(RuntimeError):
    """A label escaped the window; the verdict would need a larger W."""


_tensor_label_cache: dict = {}


def tensor_labels(field: CycloField, m: int, n: int, limit: int):
    """Multiset {k: mult} with T(m) (x) T(n) = sum of T(k).

    Computed by exact character arithmetic against the unitriangular tilting
    character basis; the tensor product of tiltings is tilting, so this is a
    complete description.  Labels above `limit` raise.
    """
    key = (field.ell, m, n)
    dec = _tensor_label_cache.get(key)
    if dec is None:
        ch = tilting_character(field, m) * tilting_character(field, n)
        dec = decompose_tilting_character(field, ch)
        _tensor_label_cache[key] = dec
    if any(k > limit for k in dec):
        raise WindowOverflowError(
            f"T({m}) (x) T({n}) produced a label above {limit}"
        )
    return dict(dec)


class TiltIdeal:
    """Downward tensor-closed label set within [0, W]."""

    def __init__(self, field: CycloField, window: int, members):
        if window < 0:
            raise ValueError("window must be nonnegative")
        self.field = field
        self.window = window
        self.members = frozenset(members)
        if any(n < 0 or n > window for n in self.members):
            raise ValueError("members must lie in [0, W]")

    @property
    def ell(self):
        return self.field.ell

    def __eq__(self, other):
        return (
            isinstance(other, TiltIdeal)
            and self.ell == other.ell
            and self.window == other.window
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.ell, self.window, self.members))

    def __contains__(self, n):
        return n in self.members

    def sorted_members(self):
        return sorted(self.members)

    def is_proper(self):
        return self.members != frozenset(range(self.window + 1))

    def __repr__(self):
        return f"TiltIdeal(ell={self.ell}, W={self.window}, members={self.sorted_members()})"


def generate_tilt_ideal(field: CycloField, generators, window: int) -> TiltIdeal:
    """Least closed superset of the generators under tensor-decompose-and-collect."""
    generators = set(generators)
    if any(g < 0 or g > window for g in generators):
        raise ValueError("generators must lie in [0, W]")
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
    return TiltIdeal(field, window, members)


def enumerate_tilt_ideals(field: CycloField, window: int):
    """All closed member sets in [0, W], smallest first.

    Principal closures are joined pairwise to a fixed point; together with
    the empty ideal this exhausts the lattice, since every ideal is the
    closure of its own member set.
    """
    principals = []
    seen = set()
    for g in range(window + 1):
        ideal = generate_tilt_ideal(field, {g}, window)
        if ideal.members not in seen:
            seen.add(ideal.members)
            principals.append(ideal)
    ideals = {frozenset(): TiltIdeal(field, window, frozenset())}
    for ideal in principals:
        ideals[ideal.members] = ideal
    changed = True
    while changed:
        changed = False
        current = list(ideals.values())
        for a in current:
            for b in current:
                union = a.members | b.members
                if union in ideals:
                    continue
                joined = generate_tilt_ideal(field, union, window)
                if joined.members not in ideals:
                    ideals[joined.members] = joined
                    changed = True
    return sorted(ideals.values(), key=lambda i: (len(i.members), i.sorted_members()))


def is_negligible_window(n: int, ell: int) -> bool:
    """Quantum negligibility of T(n): the shifted pairing n+1 reaches ell."""
    if n < 0:
        raise ValueError("weight must be nonnegative")
    return n + 1 >= ell


def negligible_ideal(field: CycloField, window: int) -> TiltIdeal:
    return TiltIdeal(
        field, window, {n for n in range(window + 1) if is_negligible_window(n, field.ell)}
    )


def is_prime_on_window(ideal: TiltIdeal) -> bool:
    """For all m, n in the window: all labels of T(m) (x) T(n) inside the
    ideal forces m or n inside.  Requires a proper ideal."""
    if not ideal.is_proper():
        raise ValueError("primality is only defined for proper ideals")
    field = ideal.field
    W = ideal.window
    for m in range(W + 1):
        if m in ideal:
            continue
        for n in range(W + 1):
            if n in ideal:
                continue
            dec = tensor_labels(field, m, n, 2 * W)
            if all(k in ideal.members for k in dec):
                return False
    return True


class RepIdealHandle:
    """The thick 2/3-ideal of the module category generated by a window ideal,
    represented through the membership procedure on minimal complexes."""

    def __init__(self, ideal: TiltIdeal):
        self.ideal = ideal

    def membership(self, M: UModule) -> bool:
        if M.dim == 0:
            return True
        from tiltlab.cache import active_cmin_labels

        table = active_cmin_labels(M)
        for degree, labels in table.items():
            for n in labels:
                if n > self.ideal.window:
                    raise WindowOverflowError(
                        f"C_min label {n} exceeds window {self.ideal.window}"
                    )
        return all(
            n in self.ideal.members for labels in table.values() for n in labels
        )

    def __repr__(self):
        return f"RepIdealHandle({self.ideal!r})"


def intersect_with_tilt(handle: RepIdealHandle, window: int) -> TiltIdeal:
    field = handle.ideal.field
    members = {
        n
        for n in range(window + 1)
        if handle.membership(tilting_module(field, n))
    }
    out = TiltIdeal(field, window, members)
    if out.members != handle.ideal.members:
        raise ArithmeticError(
            "intersecting with the tilting subcategory did not return the ideal"
        )
    return out


# ---------------------------------------------------------------------------
# short exact sequence sampling


class SampledSES:
    __slots__ = ("sub", "total", "quotient", "description")

    def __init__(self, sub, total, quotient, description):
        self.sub = sub
        self.total = total
        self.quotient = quotient
        self.description = description


def sample_ses(field: CycloField, rng: random.Random, max_weight: int = 4):
    """One random short exact sequence 0 -> A -> B -> C -> 0.

    B is a tensor product of two standard-family modules with bounded highest
    weights; A is generated by a random vector of small support and height
    (sparse vectors make proper submodules much more likely).
    """
    kinds = ("Delta", "L", "T")
    for _ in range(60):
        k1, k2 = rng.choice(kinds), rng.choice(kinds)
        n1, n2 = rng.randint(0, max_weight), rng.randint(0, max_weight)
        f1 = {"Delta": weyl_module, "L": simple_module, "T": tilting_module}[k1]
        f2 = {"Delta": weyl_module, "L": simple_module, "T": tilting_module}[k2]
        B = tensor_module(f1(field, n1), f2(field, n2))
        if B.dim < 2:
            continue
        support = rng.choice((1, 1, 2, min(3, B.dim)))
        idx = rng.sample(range(B.dim), support)
        vec = {i: field.scalar(rng.choice((-2, -1, 1, 2))) for i in idx}
        A, incl = submodule_generated(B, [vec])
        if A.dim == 0 or A.dim == B.dim:
            continue
        C, _ = quotient_module(B, incl)
        desc = (
            f"{k1}({n1})x{k2}({n2}) dim {B.dim}; sub dim {A.dim}; "
            f"support {sorted(idx)}"
        )
        return SampledSES(A, B, C, desc)
    return None


def verify_two_out_of_three(handle: RepIdealHandle, budget: int, seed: int, max_weight: int = 4):
    """Sample short exact sequences and check the 2/3 property of the handle.

    Returns a report dict with every sampled sequence and its membership
    pattern; violations would appear in 'failures'.
    """
    field = handle.ideal.field
    rng = random.Random(seed)
    cases = []
    failures = []
    produced = 0
    dry_runs = 0
    while produced < budget and dry_runs < 10:
        ses = sample_ses(field, rng, max_weight=max_weight)
        if ses is None:
            dry_runs += 1
            continue
        pattern = (
            handle.membership(ses.sub),
            handle.membership(ses.total),
            handle.membership(ses.quotient),
        )
        ok = not (sum(pattern) == 2)
        case = {
            "ses": ses.description,
            "pattern": list(pattern),
            "ok": ok,
        }
        cases.append(case)
        if not ok:
            failures.append(case)
        produced += 1
    return {
        "ideal": handle.ideal.sorted_members(),
        "budget": budget,
        "seed": seed,
        "cases": cases,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# the bijection verifier


def default_module_pool(field: CycloField, max_weight: int = 6):
    """L, Delta, Nabla and T modules up to a weight bound."""
    from tiltlab.standard import dual_weyl_module

    pool = []
    for n in range(max_weight + 1):
        pool.append((f"L({n})", simple_module(field, n)))
        pool.append((f"Delta({n})", weyl_module(field, n)))
        pool.append((f"Nabla({n})", dual_weyl_module(field, n)))
        pool.append((f"T({n})", tilting_module(field, n)))
    return pool


def verify_bijection(field: CycloField, window: int, pool=None):
    """Desk-scale verification that I -> <I> is inverted by J -> J cap Tilt.

    (a) round trip on every enumerated ideal, (b) separating tilting witnesses
    for distinct ideals, (c) membership in <I cap I'> agrees with the
    conjunction on the pool, (d) monotone minimality probe on the pool.
    """
    if pool is None:
        pool = default_module_pool(field)
    ideals = enumerate_tilt_ideals(field, window)
    handles = [RepIdealHandle(i) for i in ideals]
    report = {"ell": field.ell, "window": window, "n_ideals": len(ideals), "cases": [], "failures": []}

    def record(name, ok, detail):
        case = {"case": name, "ok": bool(ok), "detail": detail}
        report["cases"].append(case)
        if not ok:
            report["failures"].append(case)

    # (a) round trip
    for h in handles:
        back = intersect_with_tilt(h, window)
        record(
            f"roundtrip members={h.ideal.sorted_members()}",
            back == h.ideal,
            {"members": h.ideal.sorted_members()},
        )
    # (b) separation witnesses
    for i, hi in enumerate(handles):
        for hj in handles[i + 1 :]:
            diff = hi.ideal.members ^ hj.ideal.members
            if not diff:
                record("separation", False, {"reason": "distinct ideals with equal members"})
                continue
            witness = min(diff)
            Tw = tilting_module(field, witness)
            separated = hi.membership(Tw) != hj.membership(Tw)
            record(
                f"separation {hi.ideal.sorted_members()} vs {hj.ideal.sorted_members()}",
                separated,
                {"witness": f"T({witness})"},
            )
    # (c) intersections agree with conjunction of memberships
    for i, hi in enumerate(handles):
        for hj in handles[i + 1 :]:
            meet = TiltIdeal(field, window, hi.ideal.members & hj.ideal.members)
            hmeet = RepIdealHandle(meet)
            for name, M in pool:
                lhs = hmeet.membership(M)
                rhs = hi.membership(M) and hj.membership(M)
                if lhs != rhs:
                    record(
                        f"intersection {name}",
                        False,
                        {"lhs": lhs, "rhs": rhs, "ideals": [hi.ideal.sorted_members(), hj.ideal.sorted_members()]},
                    )
            record(
                f"intersection {hi.ideal.sorted_members()} & {hj.ideal.sorted_members()}",
                True,
                {"pool": len(pool)},
            )
    # (d) minimality probe: members of <I> lie in every sampled 2/3 ideal above I
    for hi in handles:
        for hj in handles:
            if hi.ideal.members <= hj.ideal.members and hi is not hj:
                bad = [
                    name
                    for name, M in pool
                    if hi.membership(M) and not hj.membership(M)
                ]
                record(
                    f"minimality {hi.ideal.sorted_members()} <= {hj.ideal.sorted_members()}",
                    not bad,
                    {"violations": bad},
                )
    return report

"""Thick tensor ideals of tilting modules in a weight window, and the
ideals of the module category they generate through minimal tilting
complexes.

Ideals live in [0, W].  Closure and primality decompose products of two
labels of the window against the label limit 2W, which always holds: the
labels of T(m) (x) T(n) are at most m + n.  `tensor_labels` still raises
`WindowOverflowError` for a label above the limit its caller gives.  The
category-side ideal attached to a window ideal I is handled through its
membership test: every term of the minimal tilting complex lies in I.

Two per-process memos serve the closure.  One decomposition is kept per
unordered pair: the character product commutes, so T(m) (x) T(n) and
T(n) (x) T(m) share the entry (ell, min(m, n), max(m, n)).  And the reach
set of a label n in a window W, the labels <= W of T(n) (x) T(m) over every
m <= W, is kept per (ell, n, W), so a closure walks reach sets and tensors
nothing once they are known.
"""

from __future__ import annotations

from tiltlab.cache import active_cmin_labels
from tiltlab.cyclotomic import CycloField
from tiltlab.modules import UModule
from tiltlab.standard import decompose_tilting_character, tilting_character, tilting_module


class WindowOverflowError(RuntimeError):
    """A label escaped the window; the verdict would need a larger W."""


_tensor_label_cache: dict = {}
_reach_cache: dict = {}


def tensor_labels(field: CycloField, m: int, n: int, limit: int):
    """Multiset {k: mult} with T(m) (x) T(n) = sum of T(k).

    Computed by exact character arithmetic against the unitriangular tilting
    character basis; the tensor product of tiltings is tilting, so this is a
    complete description.  One decomposition serves both orders of a pair,
    under (ell, min(m, n), max(m, n)).  Labels above `limit` raise, and the
    caller gets its own copy of the cached multiset.
    """
    a, b = (m, n) if m <= n else (n, m)
    key = (field.ell, a, b)
    dec = _tensor_label_cache.get(key)
    if dec is None:
        ch = tilting_character(field, a) * tilting_character(field, b)
        dec = decompose_tilting_character(field, ch)
        _tensor_label_cache[key] = dec
    if any(k > limit for k in dec):
        raise WindowOverflowError(
            f"T({m}) (x) T({n}) produced a label above {limit}"
        )
    return dict(dec)


def _reach(field: CycloField, n: int, window: int) -> frozenset:
    """The labels k <= W of T(n) (x) T(m) over every m <= W, memoized per
    (ell, n, W).  The limit 2W of each product always holds, since its
    labels are at most n + m."""
    key = (field.ell, n, window)
    reach = _reach_cache.get(key)
    if reach is None:
        reach = frozenset(
            k
            for m in range(window + 1)
            for k in tensor_labels(field, n, m, 2 * window)
            if k <= window
        )
        _reach_cache[key] = reach
    return reach


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
    """Least closed superset of the generators under tensor-decompose-and-collect.

    The closure walks reach sets (`_reach`): each round adds the reach of
    every label that the last round added, members_{r+1} = members_r united
    with reach(n) over that frontier, which is the member set that
    tensoring each frontier label with every m in [0, W] collects.
    """
    generators = set(generators)
    outside = sorted(g for g in generators if g < 0 or g > window)
    if outside:
        raise ValueError(
            f"generators must lie in the window [0, {window}], got {', '.join(map(str, outside))}"
        )
    members = set(generators)
    frontier = generators
    while frontier:
        reached = set()
        for n in frontier:
            reached |= _reach(field, n, window)
        frontier = reached - members
        members |= frontier
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
    ideal forces m or n inside.  Requires a proper ideal.  The product
    commutes, so each unordered pair of non-members is tested once."""
    if not ideal.is_proper():
        raise ValueError("primality is only defined for proper ideals")
    field = ideal.field
    W = ideal.window
    outside = [n for n in range(W + 1) if n not in ideal]
    for i, m in enumerate(outside):
        for n in outside[i:]:
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
# short exact sequences


class SampledSES:
    """0 -> sub -> total -> quotient -> 0, with a one-line description."""

    __slots__ = ("sub", "total", "quotient", "description")

    def __init__(self, sub, total, quotient, description):
        self.sub = sub
        self.total = total
        self.quotient = quotient
        self.description = description

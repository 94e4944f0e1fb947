"""Thick tensor ideals of tilting modules in a weight window, and the
ideals of the module category they generate through minimal tilting
complexes.

Ideals live in [0, W]; tensor closure is tracked in the extended window
[0, 2W] and any conclusion that would need labels beyond that aborts loudly.
The category-side ideal attached to a window ideal I is handled through its
membership test: every term of the minimal tilting complex lies in I.
"""

from __future__ import annotations

from tiltlab.cache import active_cmin_labels
from tiltlab.cyclotomic import CycloField
from tiltlab.modules import UModule
from tiltlab.standard import decompose_tilting_character, tilting_character, tilting_module


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

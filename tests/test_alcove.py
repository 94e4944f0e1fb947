import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tiltlab.alcove import (
    build_root_system,
    dot_orbit,
    is_negligible_weight,
    is_p_regular,
    is_p_restricted,
    linkage_class,
    root_system,
    separating_hyperplane_count,
    separating_hyperplane_count_bruteforce,
    steinberg_decompose,
    steinberg_twist_example,
)

from oracles import filter_dot_orbit, translated_weyl_orbit


def test_root_counts_and_coxeter_numbers():
    expected = {
        "A1": (1, 2), "A2": (3, 3), "A4": (10, 5),
        "B2": (4, 4), "B3": (9, 6), "C3": (9, 6), "D4": (12, 6),
        "E6": (36, 12), "E7": (63, 18), "E8": (120, 30),
        "F4": (24, 12), "G2": (6, 6),
    }
    for label, (count, h) in expected.items():
        rs = root_system(label)
        assert len(rs.positive_roots) == count, label
        assert rs.coxeter_number == h, label


def test_simple_pairings_with_rho():
    rs = root_system("G2")
    for k in range(rs.rank):
        simple = [r for r in rs.positive_roots if sum(r.simple_coords) == 1]
        assert all(r.pairing(rs.rho) == 1 for r in simple)


def test_invalid_type():
    with pytest.raises(ValueError):
        build_root_system("H3")
    with pytest.raises(ValueError):
        build_root_system("E9")


def test_d_examples():
    A1 = root_system("A1")
    assert separating_hyperplane_count(A1, (0,), 3) == 0
    assert separating_hyperplane_count(A1, (3,), 3) == 1
    assert separating_hyperplane_count(A1, (6,), 3) == 2
    A2 = root_system("A2")
    assert separating_hyperplane_count(A2, (3, 3), 5) == 1
    assert separating_hyperplane_count(A2, (0, 0), 7) == 0


def test_d_zero_iff_not_negligible_or_walls():
    # d(lam) = 0 iff no (beta, r) pair separates; brute force over a box
    for label in ("A1", "A2", "B2"):
        rs = root_system(label)
        for p in (2, 3, 5):
            for lam in _box(rs.rank, 2 * p):
                a = separating_hyperplane_count(rs, lam, p)
                b = separating_hyperplane_count_bruteforce(rs, lam, p)
                assert a == b, (label, p, lam)


def _box(rank, radius):
    out = [()]
    for _ in range(rank):
        out = [w + (x,) for w in out for x in range(radius + 1)]
    return out


def test_p_regular_examples():
    A1 = root_system("A1")
    assert not is_p_regular(A1, (2,), 3)
    assert is_p_regular(A1, (3,), 3)
    A2 = root_system("A2")
    assert is_p_regular(A2, (3, 3), 5)


def test_steinberg_examples():
    A1 = root_system("A1")
    assert steinberg_decompose(A1, (7,), 3) == ((1,), (2,))
    A2 = root_system("A2")
    assert steinberg_decompose(A2, (7, 3), 5) == ((2, 3), (1, 0))
    assert steinberg_decompose(A2, (2, 3), 5) == ((2, 3), (0, 0))


def test_negligible_examples():
    A1 = root_system("A1")
    assert is_negligible_weight(A1, (2,), 3)
    A2 = root_system("A2")
    assert is_negligible_weight(A2, (2, 2), 5)
    assert not is_negligible_weight(A2, (1, 1), 5)


def test_dot_orbit_examples():
    A1 = root_system("A1")
    assert [m[0] for m in dot_orbit(A1, (0,), 3, 14)] == [0, 4, 6, 10, 12]
    assert [m[0] for m in dot_orbit(A1, (2,), 3, 14)] == [2, 8, 14]
    # the orbit always contains the weight itself
    A2 = root_system("A2")
    assert (1, 2) in dot_orbit(A2, (1, 2), 5, 30)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["A1", "A2", "B2"]),
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=9),
)
def test_orbit_symmetry(label, p, a, b):
    rs = root_system(label)
    lam = (a,) if rs.rank == 1 else (a, b)
    bound = 4 * p + rs.highest_coroot.pairing(lam)
    orb = dot_orbit(rs, lam, p, bound)
    assert tuple(lam) in orb
    for mu in orb[:4]:
        back = dot_orbit(rs, tuple(mu), p, bound)
        assert tuple(lam) in back


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["A2", "G2"]),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
)
def test_steinberg_roundtrip(label, p, a, b):
    rs = root_system(label)
    lam = (a, b)
    lam0, lam1 = steinberg_decompose(rs, lam, p)
    assert tuple(x0 + p * x1 for x0, x1 in zip(lam0, lam1)) == lam
    assert all(0 <= x < p for x in lam0)
    assert all(x >= 0 for x in lam1)


def test_twist_example_assertions():
    A1 = root_system("A1")
    info = steinberg_twist_example(A1, 3)
    assert info["weight"] == [6] and info["p_regular"] and info["negligible"]
    A2 = root_system("A2")
    info2 = steinberg_twist_example(A2, 5)
    assert info2["weight"] == [20, 20] and info2["p_regular"] and info2["negligible"]
    # p = h edge is allowed
    edge = steinberg_twist_example(A1, 2)
    assert edge["weight"] == [2] and edge["p_regular"]
    # below h the regularity claim is skipped with a notice
    below = steinberg_twist_example(root_system("G2"), 5)
    assert below["p_regular"] is None and "notice" in below


def test_nonrank_weight_rejected():
    A2 = root_system("A2")
    with pytest.raises(ValueError):
        separating_hyperplane_count(A2, (1,), 3)
    with pytest.raises(ValueError):
        separating_hyperplane_count(A2, (-1, 0), 3)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_dot_orbit_matches_bfs(label):
    # every dominant weight under the bound, one oracle orbit per orbit it
    # meets: the breadth-first Weyl orbit of lam + rho, translated by pZPhi
    rs = root_system(label)
    for p in (2, 3, 5):
        for bound in (5, 8):
            box = [
                lam for lam in itertools.product(range(bound + 1), repeat=rs.rank)
                if rs.highest_coroot.pairing(lam) <= bound
            ]
            seen = set()
            for lam in box:
                if lam in seen:
                    continue
                orbit = translated_weyl_orbit(rs, lam, p, bound)
                assert lam in orbit
                for mu in orbit:
                    assert dot_orbit(rs, mu, p, bound) == orbit, (p, bound, mu)
                seen.update(orbit)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "C3"])
def test_dot_orbit_matches_filter(label):
    # every weight of a box, against the filter over all dominant weights
    # under the bound; bounds below home's level leave the orbit empty, and
    # the box reaches weights above every bound but the largest
    rs = root_system(label)
    radius, bounds = {1: (12, (-3, -1, 0, 4, 10, 24)), 2: (7, (-3, -1, 0, 4, 10, 18)), 3: (3, (-2, 0, 3, 8))}[rs.rank]
    for p in (1, 2, 3, 5, 7):
        for bound in bounds:
            for lam in itertools.product(range(radius + 1), repeat=rs.rank):
                assert dot_orbit(rs, lam, p, bound) == filter_dot_orbit(rs, lam, p, bound), (p, bound, lam)


def _dot_reflect(rs, lam, beta, shift):
    """s_{beta, shift} . lam = s_{beta, shift}(lam + rho) - rho."""
    delta = beta.pairing(tuple(l + r for l, r in zip(lam, rs.rho))) - shift
    return tuple(l - delta * w for l, w in zip(lam, beta.weight_coords))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["A1", "A2", "B2", "G2", "A3", "C3"]),
    st.sampled_from([1, 2, 3, 5, 7]),
    st.lists(st.integers(min_value=-15, max_value=15), min_size=3, max_size=3),
)
def test_linkage_class_is_in_the_alcove_and_invariant(label, p, coords):
    rs = root_system(label)
    lam = tuple(coords[: rs.rank])
    nu = linkage_class(rs, lam, p)
    assert all(x >= 0 for x in nu)
    assert rs.highest_coroot.pairing(nu) <= p
    for beta in rs.positive_roots:
        for r in range(-3, 4):
            assert linkage_class(rs, _dot_reflect(rs, lam, beta, r * p), p) == nu, (beta, r)


def test_linkage_class_examples():
    A1 = root_system("A1")
    # A1, p = 3: the closed alcove holds nu = 0..3
    assert [linkage_class(A1, (x,), 3) for x in (0, 4, 6, -2, 2, 8)] == [(1,)] * 4 + [(3,)] * 2
    A2 = root_system("A2")
    assert linkage_class(A2, (0, 0), 5) == (1, 1)
    assert linkage_class(A2, (-1, -1), 5) == (0, 0)


def test_alcove_inputs_rejected():
    A2 = root_system("A2")
    with pytest.raises(ValueError):
        is_p_regular(A2, (1,), 3)
    with pytest.raises(ValueError):
        is_p_restricted(A2, (1, 2, 0), 3)
    for p in (0, -3):
        with pytest.raises(ValueError, match="p must be positive"):
            dot_orbit(A2, (1, 1), p, 8)
        with pytest.raises(ValueError, match="p must be positive"):
            linkage_class(A2, (1, 1), p)
        for query in (steinberg_decompose, is_negligible_weight):
            with pytest.raises(ValueError, match="p must be positive"):
                query(A2, (1, 1), p)
        with pytest.raises(ValueError, match="p must be positive"):
            steinberg_twist_example(A2, p)
    with pytest.raises(ValueError):
        linkage_class(A2, (1,), 3)

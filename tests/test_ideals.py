import itertools
import random
from collections import Counter

import pytest

import tiltlab.ideals
from tiltlab.cyclotomic import CycloField
from tiltlab.ideals import (
    RepIdealHandle,
    TiltIdeal,
    WindowOverflowError,
    enumerate_tilt_ideals,
    generate_tilt_ideal,
    intersect_with_tilt,
    is_negligible_window,
    is_prime_on_window,
    negligible_ideal,
    tensor_labels,
)
from tiltlab.modules import UModule
from tiltlab.modules import tensor_module
from tiltlab.standard import simple_module, tilting_module, weyl_module
from tiltlab.suites import sample_ses, verify_bijection, verify_two_out_of_three

from oracles import closure_by_tensoring, peeled_tilting_module, prime_by_ordered_pairs, search_peel

F3 = CycloField(3)
F5 = CycloField(5)


def test_tensor_labels_match_witness_decomposition():
    # character route against a search that uses no tilting character
    rng = random.Random(4)
    for _ in range(5):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        by_char = tensor_labels(F3, m, n, 50)
        M = tensor_module(peeled_tilting_module(F3, m), peeled_tilting_module(F3, n))
        labels, rest = search_peel(M, m + n + 1)
        assert rest.dim == 0, (m, n)
        assert by_char == dict(Counter(labels)), (m, n)


def test_generate_examples():
    full = generate_tilt_ideal(F3, {0}, 12)
    assert full.sorted_members() == list(range(13))
    g2 = generate_tilt_ideal(F3, {2}, 12)
    assert g2.sorted_members() == list(range(2, 13))
    g3 = generate_tilt_ideal(F3, {3}, 12)
    assert g3.sorted_members() == list(range(2, 13))
    full5 = generate_tilt_ideal(F5, {0}, 12)
    assert full5.sorted_members() == list(range(13))


def test_enumerate_ideals():
    ids3 = enumerate_tilt_ideals(F3, 12)
    assert [i.sorted_members() for i in ids3] == [
        [],
        list(range(2, 13)),
        list(range(13)),
    ]
    ids5 = enumerate_tilt_ideals(F5, 12)
    assert [i.sorted_members() for i in ids5] == [
        [],
        list(range(4, 13)),
        list(range(13)),
    ]


@pytest.mark.parametrize("ell", [3, 5, 7, 9])
def test_closure_matches_tensoring_oracle(ell):
    # every single generator and every pair, in every window up to 12
    F = CycloField(ell)
    for window in range(13):
        for k in (1, 2):
            for gens in itertools.combinations(range(window + 1), k):
                got = generate_tilt_ideal(F, gens, window).members
                assert got == closure_by_tensoring(F, gens, window), (ell, window, gens)


@pytest.mark.parametrize("ell", [3, 5, 7, 9])
def test_enumerate_is_the_lattice_of_oracle_closures(ell):
    # every ideal is the join of the principal closures of its members, so
    # the lattice is the empty set and the principal closures, closed under
    # the closure of pairwise unions
    F = CycloField(ell)
    for window in range(13):
        got = [i.members for i in enumerate_tilt_ideals(F, window)]
        assert len(set(got)) == len(got), (ell, window)
        assert frozenset() in got
        for members in got:
            assert closure_by_tensoring(F, members, window) == members, (ell, window, members)
        for g in range(window + 1):
            assert closure_by_tensoring(F, {g}, window) in got, (ell, window, g)
        for a, b in itertools.combinations(got, 2):
            assert closure_by_tensoring(F, a | b, window) in got, (ell, window, a, b)


def test_closure_is_fixed_point():
    for ideal in enumerate_tilt_ideals(F3, 12):
        again = generate_tilt_ideal(F3, ideal.members, 12)
        assert again.members == ideal.members


def test_negligible_window():
    assert is_negligible_window(2, 3) and not is_negligible_window(1, 3)
    assert is_negligible_window(4, 5)
    neg = negligible_ideal(F5, 12)
    ids = enumerate_tilt_ideals(F5, 12)
    assert neg.members == ids[1].members
    with pytest.raises(ValueError):
        is_negligible_window(-1, 3)


def test_primality():
    assert is_prime_on_window(negligible_ideal(F3, 12))
    empty = TiltIdeal(F3, 12, frozenset())
    assert is_prime_on_window(empty)
    full = TiltIdeal(F3, 12, frozenset(range(13)))
    with pytest.raises(ValueError):
        is_prime_on_window(full)
    # T(1) (x) T(1) = T(0) + T(2) at ell 3, and 1 lies outside {0, 2}
    assert tensor_labels(F3, 1, 1, 2) == {0: 1, 2: 1}
    assert not is_prime_on_window(TiltIdeal(F3, 2, {0, 2}))


@pytest.mark.parametrize("ell, not_prime", [(3, 33), (5, 28)])
def test_primality_matches_ordered_pair_oracle(ell, not_prime):
    # every proper member set of [0, W], W <= 5, closed or not: 120 sets
    F = CycloField(ell)
    verdicts = []
    for window in range(6):
        for bits in range(2 ** (window + 1) - 1):
            members = frozenset(n for n in range(window + 1) if bits >> n & 1)
            got = is_prime_on_window(TiltIdeal(F, window, members))
            assert got == prime_by_ordered_pairs(F, members, window), (ell, window, members)
            verdicts.append(got)
    assert len(verdicts) == 120
    assert verdicts.count(False) == not_prime


def test_negative_window_rejected():
    with pytest.raises(ValueError):
        TiltIdeal(F3, -1, frozenset())
    with pytest.raises(ValueError):
        enumerate_tilt_ideals(F3, -1)


def test_membership_examples():
    neg = RepIdealHandle(negligible_ideal(F3, 12))
    assert neg.membership(tilting_module(F3, 2))
    assert not neg.membership(simple_module(F3, 3))
    empty = RepIdealHandle(TiltIdeal(F3, 12, frozenset()))
    assert empty.membership(UModule.zero_module(F3))
    assert not empty.membership(UModule.trivial(F3))


def test_membership_window_overflow():
    tiny = RepIdealHandle(TiltIdeal(F3, 2, frozenset({2})))
    with pytest.raises(WindowOverflowError):
        tiny.membership(simple_module(F3, 3))  # labels reach 3 > 2


def test_intersect_with_tilt():
    for ideal in enumerate_tilt_ideals(F3, 12):
        handle = RepIdealHandle(ideal)
        assert intersect_with_tilt(handle, 12).members == ideal.members


def test_monotonicity_of_membership():
    ids = enumerate_tilt_ideals(F3, 12)
    handles = [RepIdealHandle(i) for i in ids]
    mods = [simple_module(F3, n) for n in range(7)] + [weyl_module(F3, n) for n in range(7)]
    for i, hi in enumerate(handles):
        for hj in handles:
            if hi.ideal.members <= hj.ideal.members:
                for M in mods:
                    if hi.membership(M):
                        assert hj.membership(M)


def test_two_out_of_three_sampled():
    handle = RepIdealHandle(negligible_ideal(F3, 12))
    cases = verify_two_out_of_three(handle, 15, seed=5)
    assert len(cases) >= 10
    assert all(c["ok"] for c in cases)
    patterns = {tuple(c["pattern"]) for c in cases}
    assert all(sum(p) != 2 for p in patterns)


def test_sample_ses_is_exact():
    rng = random.Random(8)
    ses = None
    while ses is None:
        ses = sample_ses(F3, rng)
    assert ses.sub.dim + ses.quotient.dim == ses.total.dim


def test_bijection_report():
    cases = verify_bijection(F3, 12)
    assert all(c["ok"] for c in cases)
    assert len([c for c in cases if c["case"].startswith("roundtrip")]) == 3


def test_tensor_labels_window_guard():
    with pytest.raises(WindowOverflowError):
        tensor_labels(F3, 12, 12, 20)


def test_tensor_labels_one_entry_per_unordered_pair(monkeypatch):
    def refuse(*args):
        raise AssertionError("a character product was built again")

    monkeypatch.setattr(tiltlab.ideals, "_tensor_label_cache", {})
    first = tensor_labels(F3, 4, 7, 30)
    monkeypatch.setattr(tiltlab.ideals, "tilting_character", refuse)
    assert tensor_labels(F3, 7, 4, 30) == first
    assert len(tiltlab.ideals._tensor_label_cache) == 1


def test_tensor_labels_returns_a_copy_and_checks_a_cached_entry():
    labels = tensor_labels(F3, 12, 12, 24)
    expected = dict(labels)
    labels.clear()
    labels[99] = 1
    assert tensor_labels(F3, 12, 12, 24) == expected
    # the entry is cached now, and a smaller limit still raises
    with pytest.raises(WindowOverflowError):
        tensor_labels(F3, 12, 12, 23)


def test_closure_stays_in_window_when_products_overflow():
    ideal = generate_tilt_ideal(F3, {2}, 3)
    assert ideal.sorted_members() == [2, 3]
    # the products the closure decomposes have labels beyond W, which it drops
    labels = {k for n in ideal.members for m in range(4) for k in tensor_labels(F3, n, m, 6)}
    assert any(k > 3 for k in labels)


def rep_ideal_membership(handle, M):
    return handle.membership(M)


def test_rep_ideal_membership_function():
    handle = RepIdealHandle(negligible_ideal(F3, 12))
    assert rep_ideal_membership(handle, tilting_module(F3, 2))
    assert not rep_ideal_membership(handle, tilting_module(F3, 0))

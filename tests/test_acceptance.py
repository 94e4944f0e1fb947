"""Acceptance gate: one test per criterion, at the stated budgets and
tolerances, each printing a PASS/FAIL line.  Run with `pytest -s
tests/test_acceptance.py -v` to see the per-criterion lines.
"""

import random
import time

from tiltlab.alcove import (
    is_negligible_weight,
    is_p_regular,
    is_p_restricted,
    root_system,
    separating_hyperplane_count,
    separating_hyperplane_count_bruteforce,
    steinberg_decompose,
    steinberg_twist_example,
)
from tiltlab.cyclotomic import CycloField
from tiltlab.ideals import (
    RepIdealHandle,
    enumerate_tilt_ideals,
    is_prime_on_window,
    negligible_ideal,
)
from tiltlab.minimal import minimal_tilting_complex
from tiltlab.modules import find_isomorphism
from tiltlab.standard import simple_module, weyl_module
from tiltlab.suites import (
    check_direct_sums,
    check_ses_containments,
    check_tensor_lemma,
    random_pool_pairs,
    sample_ses,
    suite_alcove_cross,
    verify_bijection,
)

from oracles import is_minimal

F3 = CycloField(3)
F5 = CycloField(5)


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_direct_sums():
    t0 = time.time()
    cases = []
    for field, seed in ((F3, 101), (F5, 102)):
        rng = random.Random(seed)
        pairs = random_pool_pairs(rng, 15, max_n=8)
        cases += check_direct_sums(field, pairs)
    bad = [c for c in cases if not c["ok"]]
    elapsed = time.time() - t0
    _report(
        1,
        "direct sums",
        len(cases) == 30 and not bad and elapsed < 300,
        f"{len(cases)} pairs, {len(bad)} violations, {elapsed:.1f}s (target < 300s)",
    )


def test_criterion_02_ses_containments():
    cases = check_ses_containments(F3, 50, seed=202)
    bad = [c for c in cases if not c["ok"]]
    _report(
        2,
        "short exact sequences",
        len(cases) >= 50 and not bad,
        f"{len(cases)} sampled SES, {len(bad)} violations",
    )


def test_criterion_03_tensor_lemma():
    cases = []
    for field, seed in ((F3, 303), (F5, 304)):
        rng = random.Random(seed)
        pairs = random_pool_pairs(rng, 10, max_n=8)
        cases += check_tensor_lemma(field, pairs)
    bad = [c for c in cases if not c["ok"]]
    _report(
        3,
        "tensor lemma",
        len(cases) == 20 and not bad,
        f"{len(cases)} pairs, {len(bad)} violations",
    )


def test_criterion_04_fixed_points():
    cL = minimal_tilting_complex(simple_module(F3, 3))
    cD = minimal_tilting_complex(weyl_module(F3, 3))
    ok_labels = cL.label_table() == {-1: [1], 0: [3], 1: [1]} and cD.label_table() == {
        0: [3],
        1: [1],
    }
    # brute-force cohomology oracle on both complexes
    cohL = cL.complex.cohomology()
    cohD = cD.complex.cohomology()
    ok_oracle = (
        set(cohL) == {0}
        and find_isomorphism(cohL[0], simple_module(F3, 3)) is not None
        and set(cohD) == {0}
        and find_isomorphism(cohD[0], weyl_module(F3, 3)) is not None
        and is_minimal(cL.complex)
        and is_minimal(cD.complex)
    )
    _report(
        4,
        "fixed points",
        ok_labels and ok_oracle,
        f"C_min(L(3)) = {cL.label_table()}, C_min(Delta(3)) = {cD.label_table()}",
    )


def test_criterion_05_ideal_lattice():
    ok = True
    details = []
    for field in (F3, F5):
        ideals = enumerate_tilt_ideals(field, 12)
        neg = negligible_ideal(field, 12)
        threefold = len(ideals) == 3
        shape = (
            ideals[0].members == frozenset()
            and ideals[1].members == neg.members
            and ideals[2].members == frozenset(range(13))
        )
        prime = is_prime_on_window(ideals[1])
        ok = ok and threefold and shape and prime
        details.append(
            f"ell={field.ell}: {len(ideals)} ideals, middle={ideals[1].sorted_members()[:2]}..., prime={prime}"
        )
    _report(5, "ideal lattice", ok, "; ".join(details))


def test_criterion_06_bijection():
    t0 = time.time()
    ok = True
    details = []
    for field in (F3, F5):
        cases = verify_bijection(field, 12)
        failures = [c for c in cases if not c["ok"]]
        ok = ok and not failures and len(enumerate_tilt_ideals(field, 12)) == 3
        details.append(f"ell={field.ell}: {len(cases)} checks, {len(failures)} failures")
    elapsed = time.time() - t0
    ok = ok and elapsed < 600
    _report(6, "bijection", ok, "; ".join(details) + f", {elapsed:.1f}s (target < 600s)")


def test_criterion_07_two_out_of_three():
    handles = [
        RepIdealHandle(i) for i in enumerate_tilt_ideals(F3, 12) if i.is_proper()
    ]
    assert len(handles) == 2
    rng = random.Random(707)
    samples = []
    while len(samples) < 100:
        ses = sample_ses(F3, rng)
        if ses is not None:
            samples.append(ses)
    violations = []
    for handle in handles:
        for ses in samples:
            pattern = (
                handle.membership(ses.sub),
                handle.membership(ses.total),
                handle.membership(ses.quotient),
            )
            if sum(pattern) == 2:
                violations.append((handle.ideal.sorted_members(), ses.description, pattern))
    _report(
        7,
        "two out of three",
        len(samples) >= 100 and not violations,
        f"{len(samples)} SES x {len(handles)} handles, {len(violations)} violations",
    )


def suite_alcove_box(types=("A1", "A2", "B2", "G2"), primes=(2, 3, 5, 7), radius_factor=3):
    """Exhaustive box validation of the alcove operations against brute force."""
    cases = []
    for label in types:
        rs = root_system(label)
        for p in primes:
            radius = radius_factor * p
            box = _box_weights(rs.rank, radius)
            d_bad = []
            reg_bad = []
            st_bad = []
            neg_bad = []
            for lam in box:
                if separating_hyperplane_count(rs, lam, p) != separating_hyperplane_count_bruteforce(rs, lam, p):
                    d_bad.append(lam)
                shifted = tuple(l + r for l, r in zip(lam, rs.rho))
                brute_regular = all(
                    not any(beta.pairing(shifted) == r * p for r in range(1, beta.pairing(shifted) // p + 2))
                    for beta in rs.positive_roots
                )
                if is_p_regular(rs, lam, p) != brute_regular:
                    reg_bad.append(lam)
                lam0, lam1 = steinberg_decompose(rs, lam, p)
                recomposed = tuple(a + p * b for a, b in zip(lam0, lam1))
                if recomposed != lam or not is_p_restricted(rs, lam0, p) or not rs.is_dominant(lam1):
                    st_bad.append(lam)
                brute_neg = any(beta.pairing(shifted) >= p for beta in rs.positive_roots)
                if is_negligible_weight(rs, lam, p) != brute_neg:
                    neg_bad.append(lam)
            cases.append(
                {
                    "case": f"{label} p={p} box radius {radius}",
                    "ok": not (d_bad or reg_bad or st_bad or neg_bad),
                    "weights_checked": len(box),
                    "d_mismatches": d_bad[:3],
                    "regularity_mismatches": reg_bad[:3],
                    "steinberg_mismatches": st_bad[:3],
                    "negligible_mismatches": neg_bad[:3],
                }
            )
            if p >= rs.coxeter_number:
                info = steinberg_twist_example(rs, p)
                cases.append(
                    {
                        "case": f"{label} p={p} twisted Steinberg weight",
                        "ok": bool(info["p_regular"]) and info["negligible"],
                        "weight": info["weight"],
                    }
                )
    failures = [c for c in cases if not c["ok"]]
    return {"suite": "alcove-box", "cases": cases, "failures": failures}


def _box_weights(rank, radius):
    out = [()]
    for _ in range(rank):
        out = [w + (x,) for w in out for x in range(radius + 1)]
    return out


def test_criterion_08_alcove_box():
    t0 = time.time()
    rep = suite_alcove_box(types=("A1", "A2", "B2", "G2"), primes=(2, 3, 5, 7), radius_factor=3)
    elapsed = time.time() - t0
    ok = not rep["failures"] and elapsed < 60
    checked = sum(c.get("weights_checked", 0) for c in rep["cases"])
    _report(
        8,
        "alcove suite",
        ok,
        f"{checked} weights validated, {len(rep['failures'])} failures, {elapsed:.1f}s (target < 60s)",
    )


def test_criterion_09_gfd_cross_check():
    ok = True
    details = []
    for ell in (3, 5):
        rep = suite_alcove_cross(ell, 12)
        hard_ok = not rep["failures"]
        mismatches = [o for o in rep["observations"] if o.get("match") is False]
        ok = ok and hard_ok
        details.append(
            f"ell={ell}: table={[(r['lambda'], r['gfd'], r['d']) for r in rep['table']]}, "
            f"observation mismatches={len(mismatches)}"
        )
    _report(9, "gfd vs d cross-check", ok, "; ".join(details))

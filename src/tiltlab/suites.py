"""Verification suites: the lemma-level properties of minimal tilting
complexes, the two-out-of-three property, the ideal bijection, and the
alcove cross-checks.  Every suite returns a JSON-ready report with one entry
per case and a (hopefully empty) list of failures.
"""

from __future__ import annotations

import random

from tiltlab.alcove import (
    is_p_regular,
    linkage_class,
    root_system,
    separating_hyperplane_count,
)
from tiltlab.cyclotomic import CycloField
from tiltlab.ideals import (
    RepIdealHandle,
    default_module_pool,
    enumerate_tilt_ideals,
    is_prime_on_window,
    negligible_ideal,
    sample_ses,
    tensor_labels,
    verify_bijection,
    verify_two_out_of_three,
)
from tiltlab.minimal import filtration_dimensions, minimal_tilting_complex
from tiltlab.modules import direct_sum, tensor_module
from tiltlab.standard import (
    dual_weyl_module,
    simple_module,
    tilting_module,
    weyl_module,
)

KIND_BUILDERS = {
    "L": simple_module,
    "Delta": weyl_module,
    "Nabla": dual_weyl_module,
    "T": tilting_module,
}


def build_module(field, kind, n):
    return KIND_BUILDERS[kind](field, n)


def random_pool_pairs(field, rng, count, max_n=8):
    kinds = sorted(KIND_BUILDERS)
    out = []
    for _ in range(count):
        k1, k2 = rng.choice(kinds), rng.choice(kinds)
        n1, n2 = rng.randint(0, max_n), rng.randint(0, max_n)
        out.append(((k1, n1), (k2, n2)))
    return out


def cmin_labels(M):
    from tiltlab.cache import active_cmin_labels

    return active_cmin_labels(M)


def pmap(fn, items, workers=1):
    """Order-preserving map, optionally through a process pool.  The
    workers share the active disk cache whatever the start method."""
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    import multiprocessing

    from tiltlab import cache

    with multiprocessing.Pool(workers, initializer=cache.set_active_cache,
                              initargs=(cache.active_cache(),)) as pool:
        return pool.map(fn, items)


def multiset_union(*tables):
    out = {}
    for t in tables:
        for deg, labels in t.items():
            out.setdefault(deg, []).extend(labels)
    return {deg: sorted(v) for deg, v in out.items()}


def multiset_contained(small, big):
    """Per-degree multiset containment of label tables."""
    for deg, labels in small.items():
        pool = list(big.get(deg, []))
        for x in labels:
            if x in pool:
                pool.remove(x)
            else:
                return False
    return True


def shift_table(table, k):
    return {deg + k: labels for deg, labels in table.items()}


# ---------------------------------------------------------------------------
# lemma suite


def _direct_sum_case(args):
    ell, (k1, n1), (k2, n2) = args
    field = CycloField(ell)
    M = build_module(field, k1, n1)
    N = build_module(field, k2, n2)
    left = cmin_labels(direct_sum(M, N))
    right = multiset_union(cmin_labels(M), cmin_labels(N))
    return {
        "case": f"{k1}({n1}) + {k2}({n2})",
        "ok": left == right,
        "sum": {str(k): v for k, v in sorted(left.items())},
        "expected": {str(k): v for k, v in sorted(right.items())},
    }


def check_direct_sums(field, pairs, workers=1):
    """C_min(M + N) has exactly the disjoint union of label multisets."""
    items = [(field.ell, a, b) for a, b in pairs]
    return pmap(_direct_sum_case, items, workers)

def check_ses_containments(field, count, seed, max_weight=4):
    """Termwise split-embedding containments for sampled short exact sequences."""
    rng = random.Random(seed)
    cases = []
    produced = 0
    dry_runs = 0
    while produced < count and dry_runs < 10:
        ses = sample_ses(field, rng, max_weight=max_weight)
        if ses is None:
            dry_runs += 1
            continue
        a = cmin_labels(ses.sub)
        b = cmin_labels(ses.total)
        c = cmin_labels(ses.quotient)
        checks = [
            multiset_contained(a, multiset_union(b, shift_table(c, 1))),
            multiset_contained(b, multiset_union(a, c)),
            multiset_contained(c, multiset_union(shift_table(a, -1), b)),
        ]
        cases.append(
            {
                "case": ses.description,
                "ok": all(checks),
                "containments": checks,
                "labels": {
                    "A": {str(k): v for k, v in sorted(a.items())},
                    "B": {str(k): v for k, v in sorted(b.items())},
                    "C": {str(k): v for k, v in sorted(c.items())},
                },
            }
        )
        produced += 1
    return cases


def tensor_label_table(field, table_x, table_y, limit):
    """Labels of the tensor product complex, degreewise, by exact character
    arithmetic on tilting labels."""
    out = {}
    for i, labs_x in table_x.items():
        for j, labs_y in table_y.items():
            acc = out.setdefault(i + j, [])
            for a in labs_x:
                for b in labs_y:
                    for k, mult in tensor_labels(field, a, b, limit).items():
                        acc.extend([k] * mult)
    return {deg: sorted(v) for deg, v in out.items()}


def _tensor_case(args):
    from tiltlab.complexes import tensor_complexes

    ell, (k1, n1), (k2, n2), limit = args
    field = CycloField(ell)
    M = build_module(field, k1, n1)
    N = build_module(field, k2, n2)
    P = tensor_module(M, N)
    cP = cmin_labels(P)
    cM = minimal_tilting_complex(M)
    cN = minimal_tilting_complex(N)
    big_table = tensor_label_table(field, cM.label_table(), cN.label_table(), limit)
    contained = multiset_contained(cP, big_table)
    # when H is concentrated in degree 0, ch H^0 is the Euler character
    tensor = tensor_complexes(cM.complex, cN.complex)
    dims = tensor.cohomology_dimensions()
    kunneth = set(dims) <= {0} and dims.get(0, 0) == P.dim and tensor.euler_character() == P.character
    return {
        "case": f"{k1}({n1}) x {k2}({n2})",
        "ok": contained and kunneth,
        "containment": contained,
        "kunneth_concentrated": kunneth,
        "cmin_labels": {str(k): v for k, v in sorted(cP.items())},
        "tensor_labels": {str(k): v for k, v in sorted(big_table.items())},
    }


def check_tensor_lemma(field, pairs, limit=200, workers=1):
    """C_min(M (x) N) embeds termwise into C_min(M) (x) C_min(N), and the
    tensor complex has cohomology M (x) N concentrated in degree zero."""
    items = [(field.ell, a, b, limit) for a, b in pairs]
    return pmap(_tensor_case, items, workers)


def suite_lemmas(ell, window, budget, seed, workers=1):
    field = CycloField(ell)
    rng = random.Random(seed)
    n_sum = max(1, budget // 2)
    n_ses = budget
    n_tensor = max(1, budget // 3)
    cases = []
    cases += check_direct_sums(field, random_pool_pairs(field, rng, n_sum, max_n=6), workers=workers)
    cases += check_ses_containments(field, n_ses, rng.randint(0, 10**6))
    cases += check_tensor_lemma(field, random_pool_pairs(field, rng, n_tensor, max_n=4), workers=workers)
    failures = [c for c in cases if not c["ok"]]
    return {
        "suite": "lemmas",
        "ell": ell,
        "window": window,
        "budget": budget,
        "seed": seed,
        "cases": cases,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# two-out-of-three and bijection suites


def suite_two_out_of_three(ell, window, budget, seed):
    field = CycloField(ell)
    handles = [
        RepIdealHandle(i)
        for i in enumerate_tilt_ideals(field, window)
        if i.is_proper()
    ]
    cases = []
    failures = []
    for k, handle in enumerate(handles):
        rep = verify_two_out_of_three(handle, budget, seed + k)
        for case in rep["cases"]:
            entry = dict(case)
            entry["ideal"] = rep["ideal"]
            cases.append(entry)
        failures.extend(rep["failures"])
    return {
        "suite": "two-out-of-three",
        "ell": ell,
        "window": window,
        "budget": budget,
        "seed": seed,
        "handles": [h.ideal.sorted_members() for h in handles],
        "cases": cases,
        "failures": failures,
    }


def suite_bijection(ell, window, budget, seed):
    field = CycloField(ell)
    ideals = enumerate_tilt_ideals(field, window)
    neg = negligible_ideal(field, window)
    lattice_cases = [
        {
            "case": "ideal count",
            "ok": len(ideals) == 3,
            "ideals": [i.sorted_members() for i in ideals],
        },
        {
            "case": "middle ideal is the negligible set",
            "ok": any(i.members == neg.members for i in ideals if i.is_proper() and i.members),
            "negligible": neg.sorted_members(),
        },
        {
            "case": "negligible ideal is prime on the window",
            "ok": is_prime_on_window(neg),
        },
        {
            "case": "empty ideal is prime on the window",
            "ok": is_prime_on_window(enumerate_tilt_ideals(field, window)[0]),
        },
    ]
    pool = default_module_pool(field, max_weight=6)
    rep = verify_bijection(field, window, pool)
    cases = lattice_cases + rep["cases"]
    failures = [c for c in cases if not c.get("ok", True)]
    return {
        "suite": "bijection",
        "ell": ell,
        "window": window,
        "budget": budget,
        "seed": seed,
        "pool_size": len(pool),
        "cases": cases,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# alcove suites


def suite_alcove_cross(ell, window):
    """gfd(L(lam)) against the hyperplane count d(lam) for type A1, p = ell,
    for lam = 0..window.

    Equality is asserted only below ell (where L = T forces both to vanish);
    elsewhere a mismatch is an observation, not a failure.  Degree-bound and
    linkage probes on the labels of C_min(L(lam)) are also recorded as
    observations.
    """
    field = CycloField(ell)
    rs = root_system("A1")
    cases = []
    observations = []
    table = []
    for lam in range(window + 1):
        if not is_p_regular(rs, (lam,), ell):
            continue
        gfd, wfd = filtration_dimensions(simple_module(field, lam))
        d = separating_hyperplane_count(rs, (lam,), ell)
        table.append({"lambda": lam, "gfd": gfd, "wfd": wfd, "d": d})
        if lam < ell:
            cases.append(
                {
                    "case": f"gfd(L({lam})) = d({lam}) = 0 below ell",
                    "ok": gfd == d == 0,
                    "gfd": gfd,
                    "d": d,
                }
            )
        else:
            observations.append(
                {
                    "case": f"gfd(L({lam})) vs d({lam})",
                    "match": gfd == d,
                    "gfd": gfd,
                    "d": d,
                }
            )
        labels = cmin_labels(simple_module(field, lam))
        bound_ok = []
        linkage_ok = []
        home = linkage_class(rs, (lam,), ell)
        for deg, labs in labels.items():
            for nu in labs:
                dnu = separating_hyperplane_count(rs, (nu,), ell)
                bound_ok.append(abs(deg) <= d - dnu)
                linkage_ok.append(linkage_class(rs, (nu,), ell) == home)
        observations.append(
            {
                "case": f"degree bound probe L({lam})",
                "match": all(bound_ok),
                "checked": len(bound_ok),
            }
        )
        observations.append(
            {
                "case": f"linkage probe L({lam})",
                "match": all(linkage_ok),
                "checked": len(linkage_ok),
            }
        )
    failures = [c for c in cases if not c["ok"]]
    return {
        "suite": "alcove-cross",
        "ell": ell,
        "window": window,
        "table": table,
        "cases": cases,
        "observations": observations,
        "failures": failures,
    }


def run_suite(name, ell, window, budget, seed, workers=1):
    if name == "lemmas":
        return suite_lemmas(ell, window, budget, seed, workers=workers)
    if name == "two-out-of-three":
        return suite_two_out_of_three(ell, window, budget, seed)
    if name == "bijection":
        return suite_bijection(ell, window, budget, seed)
    if name == "alcove-cross":
        return suite_alcove_cross(ell, window)
    raise ValueError(f"unknown suite {name!r}")


SUITE_NAMES = ("lemmas", "two-out-of-three", "bijection", "alcove-cross")

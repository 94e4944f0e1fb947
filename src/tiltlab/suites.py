"""Verification suites: the lemma-level properties of minimal tilting
complexes, the two-out-of-three property of <I>, the bijection I -> <I>
(inverted by J -> J cap Tilt), and the alcove cross-checks.  Every suite
returns a JSON-ready report with one entry per case and a (hopefully empty)
list of failures.
"""

from __future__ import annotations

import random

from tiltlab.alcove import (
    is_p_regular,
    linkage_class,
    root_system,
    separating_hyperplane_count,
)
from tiltlab.cache import active_cache, active_cmin_labels, set_active_cache
from tiltlab.cyclotomic import CycloField
from tiltlab.ideals import (
    RepIdealHandle,
    SampledSES,
    TiltIdeal,
    enumerate_tilt_ideals,
    intersect_with_tilt,
    is_prime_on_window,
    negligible_ideal,
    tensor_labels,
)
from tiltlab.minimal import filtration_dimensions, minimal_tilting_complex
from tiltlab.modules import direct_sum, quotient_module, submodule_generated, tensor_module
from tiltlab.serialize import degrees_json
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

# the factors of a sampled middle term: kinds, in draw order, and the
# largest highest weight
SES_KINDS = ("Delta", "L", "T")
SES_MAX_WEIGHT = 4
# draws of sample_ses before it gives up, and empty draws before a stream stops
SES_TRIES = 60
SES_DRY_RUNS = 10
# the bijection's module pool: every kind up to this highest weight
POOL_MAX_WEIGHT = 6
# a label above this in the tensor lemma's products raises WindowOverflowError
TENSOR_LABEL_LIMIT = 200


def build_module(field, kind, n):
    return KIND_BUILDERS[kind](field, n)


def random_pool_pairs(rng, count, max_n=8):
    kinds = sorted(KIND_BUILDERS)
    out = []
    for _ in range(count):
        k1, k2 = rng.choice(kinds), rng.choice(kinds)
        n1, n2 = rng.randint(0, max_n), rng.randint(0, max_n)
        out.append(((k1, n1), (k2, n2)))
    return out


def pmap(fn, items, workers=1):
    """Order-preserving map, optionally through a process pool.  The
    workers share the active disk cache whatever the start method."""
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    import multiprocessing

    with multiprocessing.Pool(workers, initializer=set_active_cache,
                              initargs=(active_cache(),)) as pool:
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
# short exact sequence sampling


def sample_ses(field: CycloField, rng: random.Random):
    """One random short exact sequence 0 -> A -> B -> C -> 0, or None after
    SES_TRIES draws that gave none.

    B is a tensor product of two standard-family modules with bounded highest
    weights; A is generated by a random vector of small support and height
    (sparse vectors make proper submodules much more likely).
    """
    for _ in range(SES_TRIES):
        k1, k2 = rng.choice(SES_KINDS), rng.choice(SES_KINDS)
        n1, n2 = rng.randint(0, SES_MAX_WEIGHT), rng.randint(0, SES_MAX_WEIGHT)
        B = tensor_module(build_module(field, k1, n1), build_module(field, k2, n2))
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


def sampled_sequences(field, count, seed):
    """Up to `count` sampled sequences from one seeded stream, which stops
    early after SES_DRY_RUNS draws of sample_ses that gave none."""
    rng = random.Random(seed)
    produced = 0
    dry_runs = 0
    while produced < count and dry_runs < SES_DRY_RUNS:
        ses = sample_ses(field, rng)
        if ses is None:
            dry_runs += 1
            continue
        yield ses
        produced += 1


# ---------------------------------------------------------------------------
# lemma suite


def _direct_sum_case(args):
    ell, (k1, n1), (k2, n2) = args
    field = CycloField(ell)
    M = build_module(field, k1, n1)
    N = build_module(field, k2, n2)
    left = active_cmin_labels(direct_sum(M, N))
    right = multiset_union(active_cmin_labels(M), active_cmin_labels(N))
    return {
        "case": f"{k1}({n1}) + {k2}({n2})",
        "ok": left == right,
        "sum": degrees_json(left),
        "expected": degrees_json(right),
    }


def check_direct_sums(field, pairs, workers=1):
    """C_min(M + N) has exactly the disjoint union of label multisets."""
    items = [(field.ell, a, b) for a, b in pairs]
    return pmap(_direct_sum_case, items, workers)


def check_ses_containments(field, count, seed):
    """Termwise split-embedding containments for sampled short exact sequences."""
    cases = []
    for ses in sampled_sequences(field, count, seed):
        a = active_cmin_labels(ses.sub)
        b = active_cmin_labels(ses.total)
        c = active_cmin_labels(ses.quotient)
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
                "labels": {"A": degrees_json(a), "B": degrees_json(b), "C": degrees_json(c)},
            }
        )
    return cases


def tensor_label_table(field, table_x, table_y):
    """Labels of the tensor product complex, degreewise, by exact character
    arithmetic on tilting labels."""
    out = {}
    for i, labs_x in table_x.items():
        for j, labs_y in table_y.items():
            acc = out.setdefault(i + j, [])
            for a in labs_x:
                for b in labs_y:
                    for k, mult in tensor_labels(field, a, b, TENSOR_LABEL_LIMIT).items():
                        acc.extend([k] * mult)
    return {deg: sorted(v) for deg, v in out.items()}


def _tensor_case(args):
    from tiltlab.complexes import tensor_complexes

    ell, (k1, n1), (k2, n2) = args
    field = CycloField(ell)
    M = build_module(field, k1, n1)
    N = build_module(field, k2, n2)
    P = tensor_module(M, N)
    cP = active_cmin_labels(P)
    cM = minimal_tilting_complex(M)
    cN = minimal_tilting_complex(N)
    big_table = tensor_label_table(field, cM.label_table(), cN.label_table())
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
        "cmin_labels": degrees_json(cP),
        "tensor_labels": degrees_json(big_table),
    }


def check_tensor_lemma(field, pairs, workers=1):
    """C_min(M (x) N) embeds termwise into C_min(M) (x) C_min(N), and the
    tensor complex has cohomology M (x) N concentrated in degree zero."""
    items = [(field.ell, a, b) for a, b in pairs]
    return pmap(_tensor_case, items, workers)


def suite_lemmas(ell, window, budget, seed, workers=1):
    field = CycloField(ell)
    rng = random.Random(seed)
    n_sum = max(1, budget // 2)
    n_ses = budget
    n_tensor = max(1, budget // 3)
    cases = []
    cases += check_direct_sums(field, random_pool_pairs(rng, n_sum, max_n=6), workers=workers)
    cases += check_ses_containments(field, n_ses, rng.randint(0, 10**6))
    cases += check_tensor_lemma(field, random_pool_pairs(rng, n_tensor, max_n=4), workers=workers)
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
# two-out-of-three suite


def verify_two_out_of_three(handle: RepIdealHandle, budget: int, seed: int):
    """One case per sampled short exact sequence, with the membership pattern
    of its three terms in <I>; a pattern with exactly two members fails."""
    members = handle.ideal.sorted_members()
    cases = []
    for ses in sampled_sequences(handle.ideal.field, budget, seed):
        pattern = [handle.membership(ses.sub), handle.membership(ses.total), handle.membership(ses.quotient)]
        cases.append({"ideal": members, "ses": ses.description, "pattern": pattern, "ok": sum(pattern) != 2})
    return cases


def suite_two_out_of_three(ell, window, budget, seed):
    field = CycloField(ell)
    handles = [
        RepIdealHandle(i)
        for i in enumerate_tilt_ideals(field, window)
        if i.is_proper()
    ]
    cases = []
    for k, handle in enumerate(handles):
        cases += verify_two_out_of_three(handle, budget, seed + k)
    return {
        "suite": "two-out-of-three",
        "ell": ell,
        "window": window,
        "budget": budget,
        "seed": seed,
        "handles": [h.ideal.sorted_members() for h in handles],
        "cases": cases,
        "failures": [c for c in cases if not c["ok"]],
    }


# ---------------------------------------------------------------------------
# bijection suite


def default_module_pool(field: CycloField):
    """(name, module) for every kind of KIND_BUILDERS up to POOL_MAX_WEIGHT."""
    return [
        (f"{kind}({n})", build(field, n))
        for n in range(POOL_MAX_WEIGHT + 1)
        for kind, build in KIND_BUILDERS.items()
    ]


def verify_bijection(field: CycloField, window: int):
    """Desk-scale verification that I -> <I> is inverted by J -> J cap Tilt.

    (a) round trip on every enumerated ideal, (b) separating tilting witnesses
    for distinct ideals, (c) membership in <I cap I'> agrees with the
    conjunction on the pool, (d) monotone minimality probe on the pool.
    Returns the list of cases.
    """
    pool = default_module_pool(field)
    handles = [RepIdealHandle(i) for i in enumerate_tilt_ideals(field, window)]
    cases = []

    def record(name, ok, detail):
        cases.append({"case": name, "ok": bool(ok), "detail": detail})

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
    return cases


def suite_bijection(ell, window, budget, seed):
    field = CycloField(ell)
    ideals = enumerate_tilt_ideals(field, window)
    neg = negligible_ideal(field, window)
    cases = [
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
            "ok": is_prime_on_window(ideals[0]),
        },
    ]
    cases += verify_bijection(field, window)
    return {
        "suite": "bijection",
        "ell": ell,
        "window": window,
        "budget": budget,
        "seed": seed,
        "pool_size": len(KIND_BUILDERS) * (POOL_MAX_WEIGHT + 1),
        "cases": cases,
        "failures": [c for c in cases if not c["ok"]],
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
        labels = active_cmin_labels(simple_module(field, lam))
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

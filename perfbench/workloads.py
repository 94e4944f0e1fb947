"""Seeded inputs, item runners and output oracles for the four workloads.

Each workload turns a seed into a list of items (plain data), runs one item
through the same public library functions the CLI subcommands call, and
checks the item's output with an oracle that does not share the code path
under test.  A failed check is returned as a message; it never raises.

Library functions are always reached through their module attribute
(``lib.cache.active_cmin_labels``), so that the tracer's wrappers see
every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import tempfile

SIZES = ("full", "tiny")


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()[:16]


class _Lib:
    """The library's modules, imported on first use: the parent process that
    starts the workload interpreters never imports tiltlab."""

    def __getattr__(self, name):
        import importlib

        module = importlib.import_module(f"tiltlab.{name}")
        setattr(self, name, module)
        return module


lib = _Lib()


class Workload:
    """One seeded item list plus the code that runs and checks an item."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: str):
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}")
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.items = self.make_items(random.Random(f"{self.name}:{seed}"))
        ids = [item["id"] for item in self.items]
        if len(set(ids)) != len(ids):
            raise ValueError(f"{self.name}: item ids repeat")

    def make_items(self, rng):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out):
        """None when the output passes the oracle, else a message."""
        raise NotImplementedError

    def finish(self, outputs):
        """Checks over the whole answer set: item index -> message."""
        return {}


# ---------------------------------------------------------------------------
# cmin: certified label tables of minimal tilting complexes

KINDS = ("Delta", "Nabla", "L", "T")

# (ell, kind, n) of the fixed standard-family core.  Cold cost in a fresh
# interpreter is dominated by the T(mu) the embedding and cover windows need
# (top weight + 2(ell - 1)), so ell 5 stops at weight 4: the first weight-5
# module there builds T(6..13) in about 7 s, over half of a pass.  L(6) and
# L(7) at ell 3 (2 to 5 s each) would take over the pass too.
CMIN_CORE = {
    "full": [(3, k, n) for k in KINDS for n in range(9) if (k, n) not in (("L", 6), ("L", 7))]
    + [(5, k, n) for k in KINDS for n in range(5)],
    "tiny": [(3, "Delta", 3), (3, "Nabla", 3), (3, "T", 3), (3, "L", 2)],
}
# composites: (count, ell, operation, max weight of each factor).  They are
# drawn once from a fixed stream, not from the seed: item costs span four
# orders of magnitude, and a seeded draw moved a pass by a fifth.
# Factors L(n) with n >= ell are left out; their sums cost up to 100 times
# more than the rest.
CMIN_COMPOSITES = {
    "full": [(30, 3, "sum", 5), (15, 3, "tensor", 2), (16, 5, "sum", 4)],
    "tiny": [(2, 3, "sum", 2)],
}


def _same_as_delta(ell, kind, n):
    """The library builds these as the very matrices of Delta(n) (same
    fingerprint), so they would repeat an input: weight 0, and T(n) for
    n < ell or n = -1 mod ell."""
    if kind == "Delta":
        return False
    return n == 0 or (kind == "T" and (n < ell or n % ell == ell - 1))


def _top_weight(spec):
    if spec[0] == "sum":
        return max(_top_weight(spec[1]), _top_weight(spec[2]))
    if spec[0] == "tensor":
        return _top_weight(spec[1]) + _top_weight(spec[2])
    return spec[1]


def _spec_name(spec):
    if spec[0] in ("sum", "tensor"):
        sep = "+" if spec[0] == "sum" else "*"
        return _spec_name(spec[1]) + sep + _spec_name(spec[2])
    kind, n = spec
    return f"{kind}({n})"


class CminWorkload(Workload):
    """Label tables of C_min for distinct modules; no disk cache."""

    name = "cmin"

    def make_items(self, rng):
        items = []

        def add(ell, spec):
            items.append({"id": f"{ell}:{_spec_name(spec)}", "ell": ell, "spec": spec})

        for ell, kind, n in CMIN_CORE[self.size]:
            if not _same_as_delta(ell, kind, n):
                add(ell, (kind, n))
        fixed = random.Random("cmin-composites")
        for count, ell, op, top in CMIN_COMPOSITES[self.size]:
            factors = [
                (kind, n) for kind in KINDS for n in range(1, top + 1)
                if (kind != "L" or n < ell) and not _same_as_delta(ell, kind, n)
            ]
            for a, b in fixed.sample(list(itertools.combinations(factors, 2)), count):
                add(ell, (op, a, b))
        # Items come by ascending top weight, in seeded order within one top
        # weight, so that the one-time T(n) builds a new top weight needs are
        # paid inside the same group of items whatever the seed.
        rng.shuffle(items)
        items.sort(key=lambda item: _top_weight(item["spec"]))
        self.fields = {ell: lib.cyclotomic.CycloField(ell) for ell in sorted({i["ell"] for i in items})}
        self.weights = {}  # item id -> weights of the module the item built
        return items

    def build(self, field, spec):
        if spec[0] == "sum":
            return lib.modules.direct_sum(self.build(field, spec[1]), self.build(field, spec[2]))
        if spec[0] == "tensor":
            return lib.modules.tensor_module(self.build(field, spec[1]), self.build(field, spec[2]))
        return lib.cache.cached_standard_module(None, field, spec[0], spec[1])

    def run(self, item):
        module = self.build(self.fields[item["ell"]], item["spec"])
        self.weights[item["id"]] = module.weights
        table = lib.cache.active_cmin_labels(module)
        return {"degrees": {str(k): list(v) for k, v in sorted(table.items())}}

    def check(self, item, out):
        """Euler characteristic: sum_i (-1)^i sum ch T(label) = ch M."""
        field = self.fields[item["ell"]]
        lhs = {}
        for degree, labels in out["degrees"].items():
            sign = -1 if int(degree) % 2 else 1
            for label in labels:
                for w, m in lib.standard.tilting_character(field, label).coeffs.items():
                    lhs[w] = lhs.get(w, 0) + sign * m
        rhs = {}
        for w in self.weights[item["id"]]:
            rhs[w] = rhs.get(w, 0) + 1
        lhs = {w: m for w, m in lhs.items() if m}
        if lhs != rhs:
            return f"Euler character {sorted(lhs.items())} != ch M {sorted(rhs.items())}"
        return None


# ---------------------------------------------------------------------------
# ideals: tensor ideals of tiltings over a sweep of windows

# ell -> largest window; windows from 2 up come in ascending order, ells in a
# fixed order inside a window.  Each (ell, window) opens with `enumerate`,
# which tensors every pair in the window: that item pays the new T(n) builds
# and tensor labels (0.1 to 1.5 s), so the seeded `generate` queries after it
# are the warm case (about 0.1 ms) whatever the seed.  With 15 cold items in
# 105, item_p90_ms falls on the fourth and fifth cheapest cold item and
# item_p50_ms in the middle of the warm ones, never on the edge between the
# two.  ell 9 adds three cheap cold windows; below ell - 1 its lattice is
# just {empty, all}.
IDEAL_WINDOWS = {"full": {3: 6, 5: 5, 7: 4, 9: 4}, "tiny": {3: 3}}
IDEAL_GENERATE_PER_WINDOW = {"full": 6, "tiny": 2}


def _closed_form_ideal(ell, window, generators):
    """The 3-ideal lattice: empty, {n >= ell - 1}, everything."""
    if not generators:
        return []
    if min(generators) < ell - 1:
        return list(range(window + 1))
    return list(range(ell - 1, window + 1))


class IdealsWorkload(Workload):
    """`ideals generate` and `ideals enumerate` queries, windows ascending."""

    name = "ideals"

    def make_items(self, rng):
        items = []
        windows = IDEAL_WINDOWS[self.size]
        for window in range(2, max(windows.values()) + 1):
            for ell in sorted(windows):
                if window > windows[ell]:
                    continue
                # Generators inside {n >= ell - 1} give that proper ideal, any
                # other set gives the whole window; the two kinds cost
                # differently, so their split is fixed and the seed only
                # picks the sets of each kind.
                subsets = [
                    list(c) for k in (1, 2, 3) for c in itertools.combinations(range(window + 1), k)
                ]
                inside = [gens for gens in subsets if gens[0] >= ell - 1]
                outside = [gens for gens in subsets if gens[0] < ell - 1]
                wanted = IDEAL_GENERATE_PER_WINDOW[self.size]
                generators = rng.sample(inside, min(len(inside), wanted // 2))
                generators += rng.sample(outside, wanted - len(generators))
                rng.shuffle(generators)
                base = {"ell": ell, "window": window}
                items.append(dict(base, id=f"{ell}:{window}:enumerate", op="enumerate"))
                items.extend(
                    dict(base, id=f"{ell}:{window}:{','.join(map(str, gens))}", op="generate", gens=gens)
                    for gens in generators
                )
        self.fields = {ell: lib.cyclotomic.CycloField(ell) for ell in windows}
        return items

    def run(self, item):
        field = self.fields[item["ell"]]
        if item["op"] == "enumerate":
            ideals = lib.ideals.enumerate_tilt_ideals(field, item["window"])
        else:
            ideals = [lib.ideals.generate_tilt_ideal(field, set(item["gens"]), item["window"])]
        rows = [
            {
                "members": ideal.sorted_members(),
                "prime": lib.ideals.is_prime_on_window(ideal) if ideal.is_proper() else None,
            }
            for ideal in ideals
        ]
        return {"ell": item["ell"], "window": item["window"], "ideals": rows}

    def check(self, item, out):
        ell, window = item["ell"], item["window"]
        full = list(range(window + 1))
        if item["op"] == "enumerate":
            lattice = [[], list(range(ell - 1, window + 1)), full]
            # below ell - 1 the window holds no negligible weight
            expect = [m for k, m in enumerate(lattice) if m not in lattice[:k]]
        else:
            expect = [_closed_form_ideal(ell, window, item["gens"])]
        got = [row["members"] for row in out["ideals"]]
        if got != expect:
            return f"ideals {got} != closed form {expect}"
        for row in out["ideals"]:
            if row["prime"] is not (None if row["members"] == full else True):
                return f"primality of {row['members']} reported as {row['prime']}"
        return None


# ---------------------------------------------------------------------------
# alcove: integral root-system queries

# (type, p, items with a dot orbit, orbit bound, items without) per stratum.
# The weights are fixed, not seeded, because an item's cost varies with its
# weight (is_p_regular stops at the first wall); the seed draws the symmetry
# probes and the order.  65 of the 100 items compute an orbit (15 ms and up)
# and 35 do not (well under a millisecond), so item_p50_ms falls in the
# middle of the 30 A2, p = 7 orbits and item_p90_ms among the A2, p = 2 and
# B2 orbits, each well inside one group of items of like cost.
ALCOVE_STRATA = {
    "full": [("A1", p, 0, 0, 1) for p in (2, 3, 5, 7)]
    + [("A2", 2, 18, 12, 0), ("A2", 7, 30, 8, 0), ("A2", 3, 3, 8, 1), ("A2", 5, 4, 8, 1)]
    + [("B2", 2, 3, 8, 1)]
    + [("B2", p, 2, 8, 1) for p in (3, 5, 7)]
    + [("G2", 5, 1, 8, 1)]
    + [("G2", p, 0, 0, 1) for p in (2, 3, 7)]
    + [(t, p, 0, 0, 1) for t in ("A3", "B3", "C3", "D4", "F4", "E6", "E8") for p in (2, 3, 7)],
    "tiny": [("A1", 3, 1, 24, 1), ("A2", 5, 1, 8, 1), ("B3", 2, 0, 0, 1)],
}


def _generic_weights(rs, p, bound):
    """Dominant weights of the orbit box on the fewest affine walls.

    A weight on a wall (lambda + rho, beta^vee) = rp has a smaller orbit and
    a far cheaper dot_orbit, so orbit items take their weights from these.
    """
    box = [
        lam for lam in itertools.product(range(bound + 1), repeat=rs.rank)
        if rs.highest_coroot.pairing(lam) <= bound
    ]

    def walls(lam):
        shifted = [x + 1 for x in lam]
        return sum(1 for beta in rs.positive_roots if beta.pairing(shifted) % p == 0)

    fewest = min(walls(lam) for lam in box)
    return [list(lam) for lam in box if walls(lam) == fewest]


class AlcoveWorkload(Workload):
    """`alcove d|regular|steinberg|negligible|orbit` on one weight per item."""

    name = "alcove"

    def make_items(self, rng):
        items = []
        self.systems = {}
        for label, p, with_orbit, bound, without in ALCOVE_STRATA[self.size]:
            rs = self.systems.setdefault(label, lib.alcove.root_system(label))
            fixed = random.Random(f"alcove-weights:{label}:{p}")
            if with_orbit:
                generic = _generic_weights(rs, p, bound)
            for k in range(with_orbit + without):
                item = {"id": f"{label}:{p}:{k}", "type": label, "p": p}
                if k < with_orbit:
                    # evenly spaced, not seeded: orbit cost varies with the weight
                    item["lambda"] = generic[k * len(generic) // with_orbit]
                    item["bound"] = bound
                    item["probe"] = rng.random()
                else:
                    item["lambda"] = [fixed.randint(0, 3 * p) for _ in range(rs.rank)]
                items.append(item)
        rng.shuffle(items)
        return items

    def run(self, item):
        rs, lam, p = self.systems[item["type"]], tuple(item["lambda"]), item["p"]
        lam0, lam1 = lib.alcove.steinberg_decompose(rs, lam, p)
        out = {
            "d": lib.alcove.separating_hyperplane_count(rs, lam, p),
            "p_regular": lib.alcove.is_p_regular(rs, lam, p),
            "lambda0": list(lam0),
            "lambda1": list(lam1),
            "negligible": lib.alcove.is_negligible_weight(rs, lam, p),
        }
        if "bound" in item:
            out["orbit"] = [list(m) for m in lib.alcove.dot_orbit(rs, lam, p, item["bound"])]
        return out

    def check(self, item, out):
        rs, lam, p = self.systems[item["type"]], tuple(item["lambda"]), item["p"]
        brute = lib.alcove.separating_hyperplane_count_bruteforce(rs, lam, p)
        if out["d"] != brute:
            return f"d = {out['d']}, brute force gives {brute}"
        lam0, lam1 = out["lambda0"], out["lambda1"]
        if any(not 0 <= x < p for x in lam0) or [a + p * b for a, b in zip(lam0, lam1)] != list(lam):
            return f"Steinberg pieces {lam0}, {lam1} do not recombine to {list(lam)}"
        if "bound" in item:
            orbit = [tuple(m) for m in out["orbit"]]
            if lam not in orbit:
                return f"{list(lam)} missing from its own orbit"
            # symmetry on one seeded orbit element: lambda lies in orbit(mu)
            mu = orbit[int(item["probe"] * len(orbit))]
            back = lib.alcove.dot_orbit(rs, mu, p, item["bound"])
            if lam not in back:
                return f"{list(lam)} in orbit but not in the orbit of {list(mu)}"
        return None


# ---------------------------------------------------------------------------
# membership: two-out-of-three through the disk cache

MEMBERSHIP_ELL = 3
MEMBERSHIP_WINDOW = 8
# middle terms B = X (x) Y cycle through every ordered pair of these factors,
# and each round of pairs takes the next support size of A's generating
# vector, so the seed draws only the vector's positions and coefficients; a
# seeded draw of the factors too (as sample_ses does) moved the median item
# by a fifth
MEMBERSHIP_FACTORS = [(kind, n) for kind in ("Delta", "L", "T") for n in (1, 2)]
MEMBERSHIP_SUPPORT = (1, 2, 3)
MEMBERSHIP_ITEMS = {"full": 216, "tiny": 3}


class MembershipWorkload(Workload):
    """0 -> A -> B -> C -> 0 with B a tensor product and A generated by one
    sparse vector, each term tested against every proper ideal."""

    name = "membership"

    def make_items(self, rng):
        self.field = lib.cyclotomic.CycloField(MEMBERSHIP_ELL)
        window = MEMBERSHIP_WINDOW
        # the proper ideals of the window lattice, in closed form
        self.handles = [
            lib.ideals.RepIdealHandle(lib.ideals.TiltIdeal(self.field, window, ())),
            lib.ideals.RepIdealHandle(lib.ideals.negligible_ideal(self.field, window)),
        ]
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        lib.cache.set_active_cache(lib.cache.CacheDir(self.cache_dir))
        self.sequences = {}
        pairs = list(itertools.product(MEMBERSHIP_FACTORS, repeat=2))
        items = []
        for k in range(MEMBERSHIP_ITEMS[self.size]):
            left, right = pairs[k % len(pairs)]
            support = MEMBERSHIP_SUPPORT[k // len(pairs) % len(MEMBERSHIP_SUPPORT)]
            items.append({
                "id": f"ses{k}",
                "factors": [list(left), list(right)],
                # positions in [0, 1) of the vector's nonzero coordinates
                "support": [rng.random() for _ in range(support)],
                "coeffs": [rng.choice((-2, -1, 1, 2)) for _ in range(support)],
            })
        rng.shuffle(items)
        return items

    def patterns(self, ses):
        return [
            [h.membership(ses.sub), h.membership(ses.total), h.membership(ses.quotient)]
            for h in self.handles
        ]

    def run(self, item):
        field = self.field
        left, right = (
            lib.cache.cached_standard_module(None, field, kind, n) for kind, n in item["factors"]
        )
        total = lib.modules.tensor_module(left, right)
        vec = [field.zero] * total.dim
        for u, c in zip(item["support"], item["coeffs"]):
            vec[int(u * total.dim)] = field.scalar(c)
        sub, incl = lib.modules.submodule_generated(total, [vec])
        quotient, _ = lib.modules.quotient_module(total, incl)
        (k1, n1), (k2, n2) = item["factors"]
        ses = lib.ideals.SampledSES(
            sub, total, quotient,
            f"{k1}({n1})x{k2}({n2}) dim {total.dim}; sub dim {sub.dim}; quotient dim {quotient.dim}",
        )
        self.sequences[item["id"]] = ses
        return {"ses": ses.description, "patterns": self.patterns(ses)}

    def check(self, item, out):
        for members, pattern in zip(
            (h.ideal.sorted_members() for h in self.handles), out["patterns"]
        ):
            if sum(pattern) == 2:
                return f"2/3 violation {pattern} for ideal {members}"
        return None

    def finish(self, outputs):
        """A second, warm pass over the cache reproduces the cold report."""
        bad = {}
        for k, (item, out) in enumerate(zip(self.items, outputs)):
            ses = self.sequences.get(item["id"])
            if ses is None or out is None:
                continue
            warm = {"ses": ses.description, "patterns": self.patterns(ses)}
            if canonical(warm) != canonical(out):
                bad[k] = "warm cache pass differs from the cold pass"
        return bad


WORKLOADS = {
    w.name: w for w in (CminWorkload, IdealsWorkload, AlcoveWorkload, MembershipWorkload)
}

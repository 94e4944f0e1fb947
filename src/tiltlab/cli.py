"""Command-line surface.

Subcommands: cmin, ideals, verify, alcove.  All output is single-object JSON
on stdout (canonical key order, no timestamps), so identical configuration
and seed give byte-identical reports.  Exit codes: 0 pass, 1 suite failure,
2 resource, window or input errors (a stdout closed by its reader, a path
that cannot be opened, an ideal window too small for its labels and a step
cap of the C_min construction included), 3 an internal result that failed
its exact check (a program fault, such as an embedding missing from its
exact window; nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import os
import sys

from tiltlab.alcove import (
    dot_orbit,
    is_negligible_weight,
    is_p_regular,
    root_system,
    separating_hyperplane_count,
    steinberg_decompose,
    steinberg_twist_example,
)
from tiltlab.cache import (
    CacheDir,
    active_cmin_labels,
    cached_standard_module,
    set_active_cache,
)
from tiltlab.cyclotomic import CertificationError, CycloField
from tiltlab.ideals import (
    WindowOverflowError,
    enumerate_tilt_ideals,
    generate_tilt_ideal,
    is_prime_on_window,
)
from tiltlab.minimal import WindowError
from tiltlab.serialize import canonical_dumps, degrees_json
from tiltlab.suites import SUITE_NAMES, run_suite

EXIT_PASS = 0
EXIT_FAILURE = 1
EXIT_RESOURCE = 2
EXIT_INTERNAL = 3

CACHE_ENV_VAR = "TILTLAB_CACHE"

DEFAULTS = {
    "ell": 3,
    "window": 12,
    "budget": 25,
    "seed": 0,
    "workers": 1,
    "cache": None,
}

# smallest accepted value of each numeric setting
MINIMUM = {"window": 0, "budget": 1, "workers": 1}

# the level (mu, highest coroot) up to which `alcove orbit` walks the orbit,
# unless --bound is given
ORBIT_BOUND = 48


def load_config_file(path):
    """Flat key=value configuration; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, value = (s.strip() for s in line.split("=", 1))
            out[key] = value
    return out


def resolve_config(args, unused=()):
    """Flags override config file entries, which override defaults.

    Keys in `unused` are ones the command ignores; setting one by flag or in
    the config file is an error, not silently dropped.
    """
    cfg = dict(DEFAULTS)
    given = set()
    if getattr(args, "config", None):
        file_cfg = load_config_file(args.config)
        for key, value in file_cfg.items():
            if key not in cfg:
                raise ValueError(f"unknown config key {key!r}")
            cfg[key] = type(DEFAULTS[key])(value) if DEFAULTS[key] is not None else value
            given.add(key)
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
            given.add(key)
    for key in unused:
        if key in given:
            raise ValueError(f"{key} is not used by this command; remove --{key} or its config entry")
    for key, least in MINIMUM.items():
        if cfg[key] < least:
            raise ValueError(f"{key} must be at least {least}, got {cfg[key]}")
    return cfg


def open_cache(cfg):
    """The disk cache from --cache or the config file, else from TILTLAB_CACHE,
    else none."""
    path = cfg["cache"] or os.environ.get(CACHE_ENV_VAR)
    return CacheDir(path) if path else None


def parse_module_spec(spec):
    kinds = {"L": "L", "delta": "Delta", "nabla": "Nabla", "T": "T"}
    if ":" not in spec:
        raise ValueError(f"module spec must look like kind:n, got {spec!r}")
    kind, _, num = spec.partition(":")
    if kind not in kinds:
        raise ValueError(f"module kind must be one of L|delta|nabla|T, got {kind!r}")
    n = int(num)
    if n < 0:
        raise ValueError("highest weight must be nonnegative")
    return kinds[kind], n


def parse_weight(text, rank):
    parts = [int(x) for x in text.split(",")]
    if len(parts) != rank:
        raise ValueError(f"weight needs {rank} coordinates, got {len(parts)}")
    return tuple(parts)


def emit(obj, output=None):
    text = canonical_dumps(obj)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        # flushed here, so that a closed pipe is reported by main
        print(text, flush=True)


def cmd_cmin(args):
    cfg = resolve_config(args, ("window", "budget", "seed", "workers"))
    field = CycloField(cfg["ell"])
    kind, n = parse_module_spec(args.module)
    cache = open_cache(cfg)
    set_active_cache(cache)
    module = cached_standard_module(cache, field, kind, n)
    table = active_cmin_labels(module)
    pretty_kind = {"Delta": "delta", "Nabla": "nabla"}.get(kind, kind)
    emit(
        {
            "ell": cfg["ell"],
            "module": f"{pretty_kind}({n})",
            "degrees": degrees_json(table),
        },
        args.output,
    )
    return EXIT_PASS


def cmd_ideals(args):
    cfg = resolve_config(args, ("budget", "seed", "workers"))
    field = CycloField(cfg["ell"])
    window = cfg["window"]
    if args.action == "enumerate":
        ideals = enumerate_tilt_ideals(field, window)
    else:
        gens = {int(x) for x in args.generators.split(",")}
        ideals = [generate_tilt_ideal(field, gens, window)]
    rows = []
    for ideal in ideals:
        rows.append(
            {
                "members": ideal.sorted_members(),
                "prime": is_prime_on_window(ideal) if ideal.is_proper() else None,
            }
        )
    emit({"ell": cfg["ell"], "window": window, "ideals": rows}, args.output)
    return EXIT_PASS


# settings each suite would ignore: lemmas has no window, alcove-cross and
# bijection draw no samples, and only lemmas dispatches to worker processes
UNUSED_BY_SUITE = {
    "lemmas": ("window",),
    "two-out-of-three": ("workers",),
    "bijection": ("budget", "seed", "workers"),
    "alcove-cross": ("budget", "seed", "workers"),
}


def cmd_verify(args):
    cfg = resolve_config(args, UNUSED_BY_SUITE[args.suite])
    set_active_cache(open_cache(cfg))
    report = run_suite(
        args.suite, cfg["ell"], cfg["window"], cfg["budget"], cfg["seed"],
        workers=cfg["workers"],
    )
    report["config"] = {k: cfg[k] for k in sorted(cfg) if cfg[k] is not None}
    report["cases"] = sorted(report["cases"], key=lambda c: str(c.get("case", "")))
    emit(report, args.output)
    return EXIT_FAILURE if report["failures"] else EXIT_PASS


def cmd_alcove(args):
    if args.bound is not None and args.action != "orbit":
        raise ValueError(f"alcove {args.action} does not use --bound")
    if args.lam is not None and args.action == "twist":
        raise ValueError("alcove twist chooses its own weight; remove --lambda")
    rs = root_system(args.type)
    out = {"type": rs.label, "p": args.p}
    lam = None
    if args.lam is not None:
        lam = parse_weight(args.lam, rs.rank)
        out["lambda"] = list(lam)
    elif args.action != "twist":
        raise ValueError(f"alcove {args.action} needs --lambda")
    if args.action == "d":
        out["d"] = separating_hyperplane_count(rs, lam, args.p)
    elif args.action == "regular":
        out["p_regular"] = is_p_regular(rs, lam, args.p)
    elif args.action == "steinberg":
        lam0, lam1 = steinberg_decompose(rs, lam, args.p)
        out["lambda0"] = list(lam0)
        out["lambda1"] = list(lam1)
    elif args.action == "negligible":
        out["negligible"] = is_negligible_weight(rs, lam, args.p)
    elif args.action == "orbit":
        bound = ORBIT_BOUND if args.bound is None else args.bound
        out["bound"] = bound
        out["orbit"] = [list(m) for m in dot_orbit(rs, lam, args.p, bound)]
    elif args.action == "twist":
        out.update(steinberg_twist_example(rs, args.p))
    emit(out, args.output)
    return EXIT_PASS


def build_parser():
    top = argparse.ArgumentParser(
        prog="tiltlab",
        description="Exact tilting-complex and tensor-ideal workbench for quantum sl2",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, window=True):
        p.add_argument("--ell", type=int, default=None, help="order of the root of unity (odd, >= 3)")
        p.add_argument("--config", default=None, help="key=value configuration file")
        p.add_argument("--cache", default=None, help="cache directory (or set TILTLAB_CACHE)")
        p.add_argument("--output", default=None, help="write the JSON report to this path")
        if window:
            p.add_argument("--window", type=int, default=None, help="weight window W")

    p_cmin = sub.add_parser("cmin", help="minimal tilting complex of a standard-family module")
    common(p_cmin, window=False)
    p_cmin.add_argument("--module", required=True, help="kind:n with kind in L|delta|nabla|T")
    p_cmin.set_defaults(func=cmd_cmin)

    p_ideals = sub.add_parser("ideals", help="enumerate or generate tensor ideals of tiltings")
    # the settings follow the action; each action parser holds them
    sub_i = p_ideals.add_subparsers(dest="action", required=True)
    p_enum = sub_i.add_parser("enumerate", help="all thick tensor ideals in the window")
    p_enum.set_defaults(func=cmd_ideals, action="enumerate")
    common(p_enum)
    p_gen = sub_i.add_parser("generate", help="the ideal generated by the given weights")
    p_gen.add_argument("generators", help="comma-separated weights")
    p_gen.set_defaults(func=cmd_ideals, action="generate")
    common(p_gen)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    common(p_verify)
    p_verify.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p_verify.add_argument("--budget", type=int, default=None, help="sample budget")
    p_verify.add_argument("--seed", type=int, default=None, help="RNG seed (recorded in the report)")
    p_verify.add_argument("--workers", type=int, default=None, help="worker processes for case dispatch (lemmas suite only)")
    p_verify.set_defaults(func=cmd_verify)

    p_alcove = sub.add_parser("alcove", help="root-system combinatorics")
    p_alcove.add_argument("action", choices=("d", "regular", "steinberg", "negligible", "orbit", "twist"))
    p_alcove.add_argument("--type", required=True, help="root system type, e.g. A2 or G2")
    p_alcove.add_argument("--p", type=int, required=True)
    p_alcove.add_argument("--lambda", dest="lam", default=None, help="comma-separated fundamental coordinates")
    p_alcove.add_argument("--bound", type=int, default=None, help=f"orbit truncation bound (orbit only, default {ORBIT_BOUND})")
    p_alcove.add_argument("--output", default=None)
    p_alcove.set_defaults(func=cmd_alcove)
    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so that the interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        # an --output, --config or --cache path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (WindowError, WindowOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except CertificationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())

"""Layer tracing from outside the program.

`Tracer.install()` wraps tiltlab's public functions without editing the
library: each traced function is replaced at every binding that holds it
(the defining module, every ``from tiltlab.x import f`` in another module,
and values of module-level dicts such as dispatch tables), and
`Tracer.uninstall()` puts every original back.

A wrapped call records a span (name, start, end, parent span, item id) in
flat in-memory arrays; spans are only read when the pass ends.  Scalar
operations on `CyclotomicScalar` are far too frequent for spans, so they feed
plain call and time accumulators instead.

A traced function that the program no longer defines stops the traced pass
with an error, and so does a failing counter hook: a metric that silently
fell to zero would read as a gain.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter

# (module, attribute path, span name).  The span name's prefix is the layer.
SPANS = [
    ("linalg", "ExactMatrix.rank", "linalg.echelon"),
    ("linalg", "ExactMatrix.kernel", "linalg.echelon"),
    ("linalg", "ExactMatrix.solve", "linalg.echelon"),
    ("linalg", "ExactMatrix.inverse", "linalg.echelon"),
    ("linalg", "ExactMatrix.determinant", "linalg.echelon"),
    ("linalg", "ExactMatrix.image_basis", "linalg.echelon"),
    ("linalg", "ExactMatrix.__matmul__", "linalg.matmul"),
    ("linalg", "ExactMatrix.kron", "linalg.kron"),
    ("linalg", "SparseSystem.kernel_basis", "linalg.sparse"),
    ("linalg", "SparseSystem.particular_solution", "linalg.sparse"),
    ("characters", "Character.__add__", "characters.op"),
    ("characters", "Character.__sub__", "characters.op"),
    ("characters", "Character.__mul__", "characters.op"),
    ("characters", "weyl_character", "characters.op"),
    ("characters", "decompose_into_weyl", "characters.op"),
    ("characters", "is_nonneg_weyl_sum", "characters.op"),
    ("modules", "hom_space", "modules.hom"),
    ("modules", "tensor_module", "modules.tensor"),
    ("modules", "submodule_generated", "modules.subquot"),
    ("modules", "quotient_module", "modules.subquot"),
    ("modules", "kernel_module", "modules.subquot"),
    ("modules", "image_module", "modules.subquot"),
    ("modules", "dual_module", "modules.dual"),
    ("modules", "find_isomorphism", "modules.iso"),
    ("standard", "tilting_module", "standard.tilting"),
    ("standard", "peel_standard_filtration", "standard.peel"),
    ("standard", "decompose_indecomposables", "standard.decompose"),
    ("standard", "decompose_tilting_character", "standard.decompose"),
    ("complexes", "minimalize", "complexes.minimalize"),
    ("complexes", "ChainComplex.cohomology", "complexes.cohomology"),
    ("minimal", "minimal_tilting_complex", "minimal.cmin"),
    ("minimal", "embed_into_tilting", "minimal.embed"),
    ("minimal", "cover_by_tilting", "minimal.cover"),
    ("minimal", "tilting_complex_of", "minimal.totalize"),
    ("minimal", "_certify_cmin", "minimal.certify"),
    ("ideals", "tensor_labels", "ideals.tensor_labels"),
    ("ideals", "generate_tilt_ideal", "ideals.generate"),
    ("ideals", "is_prime_on_window", "ideals.prime"),
    ("ideals", "RepIdealHandle.membership", "ideals.membership"),
    ("cache", "CacheDir.load_cmin_labels", "cache.read"),
    ("cache", "CacheDir.load_module", "cache.read"),
    ("cache", "CacheDir.store_cmin_labels", "cache.write"),
    ("cache", "CacheDir.store_module", "cache.write"),
    ("serialize", "module_fingerprint", "serialize.fingerprint"),
    ("alcove", "dot_orbit", "alcove.orbit"),
    ("alcove", "separating_hyperplane_count", "alcove.query"),
    ("alcove", "is_p_regular", "alcove.query"),
    ("alcove", "steinberg_decompose", "alcove.query"),
    ("alcove", "is_negligible_weight", "alcove.query"),
    ("alcove", "root_system", "alcove.root_system"),
]
LAYERS = sorted({name.split(".")[0] for _, _, name in SPANS})
# spans whose arguments or result feed a counter in Tracer._hook
HOOKED = {
    "linalg.sparse", "modules.hom", "modules.tensor", "standard.tilting",
    "complexes.minimalize", "minimal.cmin", "ideals.tensor_labels",
    "cache.read", "cache.write", "alcove.orbit",
}

# CyclotomicScalar method -> accumulator; is_zero is counted, not timed
SCALAR_OPS = {
    "__mul__": "mul",
    "__add__": "addsub",
    "__sub__": "addsub",
    "inverse": "inverse",
    "is_zero": "is_zero",
}


class TraceError(RuntimeError):
    """A traced function is missing from the program."""


def _total_dim(complex_):
    return sum(term.dim for term in complex_.terms.values())


class Tracer:
    def __init__(self):
        self.names = []  # span name -> code
        self.codes = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_outer = array("b")  # no enclosing span of the same name
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.depth = []  # per code: open spans of that name
        self.item = -1
        self.counts = {}  # extra counters fed by the hooks below
        self.scalar_calls = {op: 0 for op in SCALAR_OPS.values()}
        self.scalar_time = {op: 0.0 for op in SCALAR_OPS.values()}
        self.patched = []  # (owner, key, original, is_dict)
        self.seen_tiltings = set()
        self.seen_tensor_pairs = set()
        self._cmin_cache = None  # the library's in-memory C_min cache
        self._cmin_code = -1

    # -- counters fed after the traced call returns -------------------------

    def _add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _hook(self, span, fn_name, args, result, before):
        if span == "linalg.sparse":
            system = args[0]
            self._add("linalg.sparse_unknowns", system.ncols)
            self._add("linalg.sparse_rows", len(system.rows))
        elif span == "modules.hom":
            blocks_m, blocks_n = args[0].weight_blocks(), args[1].weight_blocks()
            self._add("modules.hom_unknowns", sum(
                len(cols) * len(blocks_n.get(w, ())) for w, cols in blocks_m.items()
            ))
            self._add("modules.hom_nonempty", 1 if result else 0)
        elif span == "modules.tensor":
            self._add("modules.tensor_dim", result.dim)
        elif span == "standard.tilting":
            key = (args[0].ell, args[1])
            if key not in self.seen_tiltings:
                self.seen_tiltings.add(key)
                self._add("standard.tilting_builds")
        elif span == "complexes.minimalize":
            self._add("complexes.minimalize_in_dim", _total_dim(args[0]))
            self._add("complexes.minimalize_out_dim", _total_dim(result.complex))
        elif span == "minimal.cmin":
            self._add("minimal.cmin_dim", _total_dim(result.complex))
            self._add("minimal.cmin_builds", len(self._cmin_cache) - before)
        elif span == "ideals.tensor_labels":
            key = (args[0].ell, args[1], args[2])
            if key not in self.seen_tensor_pairs:
                self.seen_tensor_pairs.add(key)
                self._add("ideals.tensor_labels_misses")
        elif span == "cache.read":
            self._add("cache.lookups")
            self._add("cache.hits", 1 if result is not None else 0)
        elif span == "cache.write":
            cache = args[0]
            if fn_name == "store_cmin_labels":
                name = cache.cmin_key(args[1])
            else:
                name = cache.module_key(*args[1:4])
            self._add("cache.bytes_written", os.path.getsize(os.path.join(cache.path, name)))
        elif span == "alcove.orbit":
            self._add("alcove.orbit_size", len(result))

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, span):
        code = self.codes.get(span)
        if code is None:
            code = self.codes[span] = len(self.names)
            self.names.append(span)
            self.depth.append(0)
        hooked = span in HOOKED
        tracer = self
        fn_name = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.span_name)
            stack = tracer.stack
            tracer.span_name.append(code)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_item.append(tracer.item)
            tracer.span_outer.append(tracer.depth[code] == 0)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            before = None
            if code == tracer._cmin_code:
                before = len(tracer._cmin_cache)
            stack.append(sid)
            tracer.depth[code] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.depth[code] -= 1
                stack.pop()
                tracer.span_start[sid] = start
                tracer.span_end[sid] = end
            if hooked:
                tracer._hook(span, fn_name, args, result, before)
            return result

        return wrapper

    def _scalar_wrapper(self, fn, op):
        calls, times = self.scalar_calls, self.scalar_time
        if op == "is_zero":
            @functools.wraps(fn)
            def counted(self_):
                calls["is_zero"] += 1
                return fn(self_)

            return counted

        @functools.wraps(fn)
        def timed(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                times[op] += perf_counter() - start
                calls[op] += 1

        return timed

    # -- install / uninstall -------------------------------------------------

    def _patch_everywhere(self, original, wrapper):
        """Replace `original` in every loaded tiltlab module, at top level and
        inside module-level dicts."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("tiltlab"):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self.patched.append((module, key, original, False))
                    setattr(module, key, wrapper)
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self.patched.append((value, dkey, original, True))
                            value[dkey] = wrapper

    def install(self):
        import importlib

        self._cmin_cache = importlib.import_module("tiltlab.minimal")._cmin_cache
        for mod_name, path, span in SPANS:
            module = importlib.import_module(f"tiltlab.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            # a method must be defined on the class itself, so that restoring
            # it leaves the class as it was
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                raise TraceError(f"tiltlab.{mod_name}.{path} is not defined; update tracer.SPANS")
            wrapper = self._span_wrapper(original, span)
            if span == "minimal.cmin":
                self._cmin_code = self.codes[span]
            if owner_name:
                self.patched.append((owner, attr, original, False))
                setattr(owner, attr, wrapper)
            else:
                self._patch_everywhere(original, wrapper)
        scalar_cls = importlib.import_module("tiltlab.cyclotomic").CyclotomicScalar
        for attr, op in SCALAR_OPS.items():
            original = vars(scalar_cls).get(attr)
            if not callable(original):
                raise TraceError(f"CyclotomicScalar.{attr} is not defined; update tracer.SCALAR_OPS")
            self.patched.append((scalar_cls, attr, original, False))
            setattr(scalar_cls, attr, self._scalar_wrapper(original, op))

    def uninstall(self):
        for owner, key, original, is_dict in reversed(self.patched):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def restored(self) -> bool:
        """Every binding the tracer replaced holds its original again."""
        for owner, key, original, is_dict in self.patched:
            current = owner.get(key) if is_dict else getattr(owner, key, None)
            if current is not original:
                return False
        return True

    # -- per-layer metrics ---------------------------------------------------

    def span_totals(self):
        """name -> (calls, busy seconds, self seconds), plus self seconds per
        item-loop layer.  Busy time counts only outermost spans of a name, so
        recursion is not counted twice; self time subtracts direct children."""
        n = len(self.span_name)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        totals = {name: [0, 0.0, 0.0] for name in self.names}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i in range(n):
            name = self.names[self.span_name[i]]
            row = totals[name]
            own = dur[i] - child[i]
            row[0] += 1
            row[2] += own
            if self.span_outer[i]:
                row[1] += dur[i]
            if self.span_item[i] >= 0:
                layer_self[name.split(".")[0]] += own
        return totals, layer_self

    def metrics(self, wall_s: float):
        totals, layer_self = self.span_totals()

        def calls(span):
            return totals.get(span, (0, 0.0, 0.0))[0]

        def busy(span):
            return totals.get(span, (0, 0.0, 0.0))[1]

        def own(span):
            return totals.get(span, (0, 0.0, 0.0))[2]

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts.get
        out = {}
        for op in ("mul", "addsub", "inverse"):
            out[f"cyclotomic.{op}_calls"] = self.scalar_calls[op]
            out[f"cyclotomic.{op}_s"] = self.scalar_time[op]
        out["cyclotomic.is_zero_calls"] = self.scalar_calls["is_zero"]
        out["linalg.sparse_solves"] = calls("linalg.sparse")
        out["linalg.sparse_unknowns"] = c("linalg.sparse_unknowns", 0)
        out["linalg.sparse_rows"] = c("linalg.sparse_rows", 0)
        out["linalg.sparse_s"] = busy("linalg.sparse")
        for kind in ("echelon", "matmul", "kron"):
            out[f"linalg.{kind}_calls"] = calls(f"linalg.{kind}")
            out[f"linalg.{kind}_s"] = busy(f"linalg.{kind}")
        out["characters.calls"] = calls("characters.op")
        out["characters.s"] = busy("characters.op")
        out["modules.hom_calls"] = calls("modules.hom")
        out["modules.hom_s"] = busy("modules.hom")
        out["modules.hom_unknowns"] = c("modules.hom_unknowns", 0)
        out["modules.hom_nonzero_ratio"] = ratio(c("modules.hom_nonempty", 0), calls("modules.hom"))
        out["modules.tensor_calls"] = calls("modules.tensor")
        out["modules.tensor_s"] = busy("modules.tensor")
        out["modules.tensor_dim"] = c("modules.tensor_dim", 0)
        for kind in ("subquot", "dual", "iso"):
            out[f"modules.{kind}_calls"] = calls(f"modules.{kind}")
            out[f"modules.{kind}_s"] = busy(f"modules.{kind}")
        out["standard.tilting_calls"] = calls("standard.tilting")
        out["standard.tilting_builds"] = c("standard.tilting_builds", 0)
        out["standard.tilting_self_s"] = own("standard.tilting")
        for kind in ("peel", "decompose"):
            out[f"standard.{kind}_calls"] = calls(f"standard.{kind}")
            out[f"standard.{kind}_s"] = busy(f"standard.{kind}")
        out["complexes.minimalize_calls"] = calls("complexes.minimalize")
        out["complexes.minimalize_s"] = busy("complexes.minimalize")
        out["complexes.minimalize_keep_ratio"] = ratio(
            c("complexes.minimalize_out_dim", 0), c("complexes.minimalize_in_dim", 0)
        )
        out["complexes.cohomology_calls"] = calls("complexes.cohomology")
        out["complexes.cohomology_s"] = busy("complexes.cohomology")
        out["minimal.cmin_calls"] = calls("minimal.cmin")
        out["minimal.cmin_builds"] = c("minimal.cmin_builds", 0)
        out["minimal.cmin_dim"] = c("minimal.cmin_dim", 0)
        out["minimal.embed_s"] = busy("minimal.embed")
        out["minimal.cover_s"] = busy("minimal.cover")
        out["minimal.totalize_self_s"] = own("minimal.totalize")
        out["minimal.certify_s"] = busy("minimal.certify")
        out["ideals.tensor_labels_calls"] = calls("ideals.tensor_labels")
        out["ideals.tensor_labels_misses"] = c("ideals.tensor_labels_misses", 0)
        out["ideals.tensor_labels_s"] = busy("ideals.tensor_labels")
        out["ideals.generate_s"] = busy("ideals.generate")
        out["ideals.prime_s"] = busy("ideals.prime")
        out["ideals.membership_calls"] = calls("ideals.membership")
        out["ideals.membership_s"] = busy("ideals.membership")
        out["cache.lookups"] = c("cache.lookups", 0)
        out["cache.hit_ratio"] = ratio(c("cache.hits", 0), c("cache.lookups", 0))
        out["cache.read_s"] = busy("cache.read")
        out["cache.write_s"] = busy("cache.write")
        out["cache.bytes_written"] = c("cache.bytes_written", 0)
        out["serialize.fingerprint_calls"] = calls("serialize.fingerprint")
        out["serialize.fingerprint_s"] = busy("serialize.fingerprint")
        out["alcove.orbit_calls"] = calls("alcove.orbit")
        out["alcove.orbit_s"] = busy("alcove.orbit")
        out["alcove.orbit_size"] = c("alcove.orbit_size", 0)
        out["alcove.query_calls"] = calls("alcove.query")
        out["alcove.query_s"] = busy("alcove.query")
        out["alcove.root_system_s"] = busy("alcove.root_system")
        traced_self = sum(layer_self.values())
        for layer in LAYERS:
            out[f"share.{layer}"] = ratio(layer_self[layer], wall_s)
        out["share.untraced"] = ratio(max(0.0, wall_s - traced_self), wall_s)
        return out, traced_self

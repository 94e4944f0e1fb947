"""On-disk JSON cache.

Standard modules are keyed by (ell, kind, n); minimal-complex label tables
are content-addressed by the SHA-256 of the module's canonical serialization.
Every key carries CACHE_VERSION, so entries written under another basis or
format are never read.  Corrupt entries (a malformed scalar, such as one
with a zero denominator, included), modules whose stored K is not
zeta^weight, that fail their defining relations or that are not the module
their key names (`_check_named_module`), and label tables with a negative
label or whose Euler character is not ch M are rebuilt with a warning, never
trusted.

Module files and label tables share one version, so a bump orphans both.  A
label table is addressed by its module's content, so a new basis of T(n)
already changes the key of each table it reaches, and a bump orphans the
tables that did not change as well.  The version is bumped only when the
bytes of a module file or of an entry's format change; a new split of a
tilting module into Parts writes neither and keeps it.

A `CacheDir` keeps in memory every label table it has stored, or has read
and validated, so a C_min lookup asks this directory's memory first, then
its file, validated once, and only then builds and stores the table.  Each
CLI command opens a new `CacheDir`, so a file changed between two commands
is validated again.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

from tiltlab.serialize import canonical_dumps, module_from_json, module_text

# Bump whenever a cached module basis or entry format changes.  Version 2:
# T(n) above 2ell-2 is T(ell-1+b) (x) L(a)^[1] instead of tensor-and-peel.
# Version 3: T(n) files no longer carry a delta_filtration list.
# Version 4: T(ell-1+b) glued.
CACHE_VERSION = 4

# numbers this process's temporary files, so that no two writers share one
_tmp_ids = itertools.count()


class CacheDir:
    def __init__(self, path: str):
        self.path = path
        # fingerprint -> label table that this instance stored, or read and
        # validated (`cmin_label_table_cached`)
        self._cmin_tables = {}

    def __reduce__(self):
        # a pickled copy, such as a spawned pool worker's, starts with an
        # empty memory and validates what it reads itself
        return CacheDir, (self.path,)

    def _ensure(self):
        os.makedirs(self.path, exist_ok=True)

    def _read(self, name):
        """The entry's JSON, or None when it is absent or unreadable (the
        latter with a warning).  An OSError raised while the directory
        itself cannot be searched and written, such as a path under a
        regular file, is the directory's fault, not the entry's: it is
        raised, since no entry could be rebuilt there."""
        try:
            with open(os.path.join(self.path, name)) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
            if isinstance(exc, OSError) and not (
                    os.path.isdir(self.path) and os.access(self.path, os.W_OK | os.X_OK)):
                raise
            print(f"warning: cache entry {name} unreadable ({exc}); rebuilding", file=sys.stderr)
            return None

    def _write(self, name, text):
        """Write text to the entry atomically.  Each write goes through its
        own temporary file (process id and a per-process count), so writers
        of one key, in this process or in others, never replace each
        other's temporary file; the last replace wins."""
        self._ensure()
        fp = os.path.join(self.path, name)
        tmp = f"{fp}.{os.getpid()}.{next(_tmp_ids)}.tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, fp)
        finally:
            if os.path.exists(tmp):  # the write or the replace failed
                os.remove(tmp)

    # -- standard modules -------------------------------------------------

    def module_key(self, ell, kind, n):
        return f"module_v{CACHE_VERSION}_{ell}_{kind}_{n}.json"

    def load_module(self, ell, kind, n):
        """The cached module, or None when it is absent or fails validation.

        A loaded module must store K as zeta^weight, be weight graded,
        satisfy the defining relations and be the module kind(n).
        """
        from tiltlab.modules import check_relations

        data = self._read(self.module_key(ell, kind, n))
        if data is None:
            return None
        try:
            module = module_from_json(data["module"])
            if module.field.ell != ell:
                raise ValueError(f"stored for ell {module.field.ell}")
            module.assert_weight_graded()
            failures = check_relations(module).failures
            if failures:
                raise ValueError(f"relation {failures[0][0]} fails")
            _check_named_module(module, kind, n)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            print(f"warning: cache module {kind}({n}) invalid ({exc}); rebuilding", file=sys.stderr)
            return None
        return module

    def store_module(self, ell, kind, n, module):
        # canonical_dumps of {"ell", "kind", "module", "n"}, keys sorted
        text = f'{{"ell":{ell},"kind":{canonical_dumps(kind)},"module":{module_text(module)},"n":{n}}}'
        self._write(self.module_key(ell, kind, n), text)

    # -- minimal complex label tables -------------------------------------

    def cmin_key(self, fingerprint):
        return f"cmin_v{CACHE_VERSION}_{fingerprint}.json"

    def load_cmin_labels(self, fingerprint):
        """The cached label table, or None when it is absent or malformed:
        not a dict of degrees to lists of nonnegative integer labels."""
        data = self._read(self.cmin_key(fingerprint))
        if data is None:
            return None
        try:
            out = {int(k): sorted(int(x) for x in v) for k, v in data["degrees"].items()}
            if any(x < 0 for labels in out.values() for x in labels):
                raise ValueError("negative label")
        except (AttributeError, KeyError, TypeError, ValueError):
            print("warning: corrupt cmin cache entry; rebuilding", file=sys.stderr)
            return None
        return out

    def store_cmin_labels(self, fingerprint, table):
        self._write(
            self.cmin_key(fingerprint),
            canonical_dumps({"degrees": {str(k): list(v) for k, v in table.items()}}),
        )


def _check_named_module(M, kind: str, n: int):
    """Raise ValueError unless M is kind(n), up to isomorphism.

    Delta(n): ch M = chi(n) and M is generated by a vector of weight n (M is
    then a quotient of Delta(n) of the same dimension); Nabla(n): the same
    on the dual of M.  L(n): ch M = ch L(n), since a module with the
    character of a simple module has that simple module as its only
    composition factor.  T(n): ch M = ch T(n) and M is tilting by the flag
    counts (standard.is_tilting), since a tilting module is fixed by its
    character; T(n) is not built.
    """
    from tiltlab.characters import weyl_character
    from tiltlab.modules import dual_module, submodule_generated
    from tiltlab.standard import is_tilting, simple_character, tilting_character

    field = M.field
    if kind == "L":
        expected = simple_character(field, n)
    elif kind == "T":
        expected = tilting_character(field, n)
    else:
        expected = weyl_character(n)
    if M.character != expected:
        raise ValueError(f"not the character of {kind}({n})")
    if kind in ("Delta", "Nabla"):
        G = M if kind == "Delta" else dual_module(M)
        (top,) = G.weight_blocks()[n]
        if submodule_generated(G, [{top: field.one}])[0].dim != G.dim:
            dual = "" if kind == "Delta" else "dual "
            raise ValueError(f"{dual}not generated by a vector of weight {n}")
    elif kind == "T" and not is_tilting(M):
        raise ValueError("not tilting")


def cmin_label_table_cached(cache: CacheDir | None, M):
    """Label table of C_min(M), consulting the disk cache when available.

    With a cache, the table comes from the directory's memory when this
    `CacheDir` has stored or validated it before, else from its file, used
    only when well formed and its Euler character equals ch M, else it is
    built, certified and stored (overwriting a bad file with a warning).
    The table is kept in the directory's memory either way, so repeated
    lookups return the same dict: callers read it and never change it.
    """
    from tiltlab.minimal import minimal_tilting_complex
    from tiltlab.standard import label_table_character

    if cache is None:
        return minimal_tilting_complex(M).label_table()
    fp = M.fingerprint()
    table = cache._cmin_tables.get(fp)
    if table is not None:
        return table
    table = cache.load_cmin_labels(fp)
    if table is not None and label_table_character(M.field, table) != M.character:
        print(
            f"warning: cache entry {cache.cmin_key(fp)} does not add up to ch M; rebuilding",
            file=sys.stderr,
        )
        table = None
    if table is None:
        table = minimal_tilting_complex(M).label_table()
        cache.store_cmin_labels(fp, table)
    cache._cmin_tables[fp] = table
    return table


def cached_standard_module(cache: CacheDir | None, field, kind: str, n: int):
    """Standard-family constructor backed by the disk cache, which stores
    the canonical JSON of the module under (ell, kind, n)."""
    from tiltlab.suites import build_module

    if cache is None:
        return build_module(field, kind, n)
    hit = cache.load_module(field.ell, kind, n)
    if hit is not None:
        return hit
    module = build_module(field, kind, n)
    cache.store_module(field.ell, kind, n, module)
    return module


_active_cache: CacheDir | None = None


def set_active_cache(cache: CacheDir | None):
    """Install a process-wide disk cache used by membership tests and suites."""
    global _active_cache
    _active_cache = cache


def active_cache() -> CacheDir | None:
    return _active_cache


def active_cmin_labels(M):
    return cmin_label_table_cached(_active_cache, M)

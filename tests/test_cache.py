"""The disk cache: concurrent writers of one key, worker processes that
share the active cache whatever their start method, and warm loads of a
closed-form tilting module."""

import json
import multiprocessing
import os

import pytest

import tiltlab.cache
from tiltlab.cache import CacheDir, cached_standard_module
from tiltlab.cyclotomic import CycloField
from tiltlab.standard import tilting_module
from tiltlab.suites import check_direct_sums

FINGERPRINT = "0" * 64


def test_nested_writers_of_one_key_both_succeed(tmp_path, monkeypatch):
    """A second writer of the key runs to completion inside the first
    writer's replace, as two pool workers storing one module's table can."""
    cache = CacheDir(str(tmp_path))
    first, second = {0: [3]}, {0: [3], 1: [1]}
    real_replace = os.replace
    nested = []

    def replace(src, dst):
        if not nested:
            nested.append(src)
            cache.store_cmin_labels(FINGERPRINT, second)
        real_replace(src, dst)

    monkeypatch.setattr(tiltlab.cache.os, "replace", replace)
    cache.store_cmin_labels(FINGERPRINT, first)
    assert nested
    assert cache.load_cmin_labels(FINGERPRINT) == first
    assert os.listdir(tmp_path) == [cache.cmin_key(FINGERPRINT)]


def test_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    cache = CacheDir(str(tmp_path))

    def replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(tiltlab.cache.os, "replace", replace)
    with pytest.raises(OSError, match="disk full"):
        cache.store_cmin_labels(FINGERPRINT, {0: [3]})
    assert os.listdir(tmp_path) == []


def test_spawned_workers_share_the_active_cache(tmp_path, monkeypatch):
    """Spawned workers inherit no module state, so they see the cache only
    through the pool's initializer."""
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("spawn").Pool)
    monkeypatch.setattr(tiltlab.cache, "_active_cache", CacheDir(str(tmp_path)))
    pairs = [(("Delta", 1), ("L", 2)), (("T", 3), ("Nabla", 2))]
    cases = check_direct_sums(CycloField(3), pairs, workers=2)
    assert [c["ok"] for c in cases] == [True, True]
    names = os.listdir(tmp_path)
    assert any(name.startswith("cmin_") for name in names)
    assert not any(name.endswith(".tmp") for name in names)


def _same_module(a, b):
    return (a.weights, a.E, a.F, a.El, a.Fl) == (b.weights, b.E, b.F, b.El, b.Fl)


@pytest.mark.parametrize("entry, reason", [
    (["1"], "expected 4 coefficients, got 1"),
    (["x", "0", "0", "0"], "Invalid literal for Fraction: 'x'"),
    (["1/0", "0", "0", "0"], "Fraction(1, 0)"),
], ids=["short", "not a number", "zero denominator"])
def test_warm_tilting_module_loads_as_built_and_a_corrupted_entry_is_rebuilt(entry, reason, tmp_path, capsys):
    """T(13) at ell 5 is T(5) (x) L(1)^[1]; a warm load must equal it, and a
    malformed stored entry must warn and be rebuilt, not trusted."""
    F = CycloField(5)
    cache = CacheDir(str(tmp_path))
    T = tilting_module(F, 13)
    assert cached_standard_module(cache, F, "T", 13) is T  # cold: built and stored
    path = tmp_path / cache.module_key(5, "T", 13)
    right = path.read_text()
    warm = cache.load_module(5, "T", 13)
    assert warm is not T and _same_module(warm, T)
    data = json.loads(right)
    data["module"]["E"]["entries"][7] = entry
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert _same_module(cached_standard_module(cache, F, "T", 13), T)
    assert f"warning: cache module T(13) invalid ({reason}); rebuilding" in capsys.readouterr().err
    assert path.read_text() == right


def test_warm_tilting_module_load_builds_no_tilting_module(tmp_path, monkeypatch):
    """A loaded T(n) is proved tilting by the flag counts, so a warm load
    builds no T(mu)."""
    import tiltlab.standard

    F = CycloField(5)
    cache = CacheDir(str(tmp_path))
    T = cached_standard_module(cache, F, "T", 13)

    def refuse(*args):
        raise AssertionError("a warm load built a tilting module")

    monkeypatch.setattr(tiltlab.standard, "tilting_module", refuse)
    warm = cache.load_module(5, "T", 13)
    assert warm is not None and _same_module(warm, T)


def test_a_tilting_character_that_is_not_tilting_is_rebuilt(tmp_path, capsys):
    """Delta(3) + Delta(1) has the character of T(3) at ell 3 but no
    Nabla-flag; stored under the key of T(3), it is rejected and rebuilt."""
    from tiltlab.modules import direct_sum
    from tiltlab.standard import weyl_module

    F = CycloField(3)
    cache = CacheDir(str(tmp_path))
    fake = direct_sum(weyl_module(F, 3), weyl_module(F, 1))
    cache.store_module(3, "T", 3, fake)
    capsys.readouterr()
    assert _same_module(cached_standard_module(cache, F, "T", 3), tilting_module(F, 3))
    assert "warning: cache module T(3) invalid (not tilting); rebuilding" in capsys.readouterr().err
    assert _same_module(cache.load_module(3, "T", 3), tilting_module(F, 3))


def test_a_tilting_module_of_the_previous_cache_version_is_not_read(tmp_path):
    """A version-3 T(4) at ell 3 is the tensor-and-peel summand: a valid T(4)
    in another basis, which the loader accepts, so only the version in the
    key keeps it from being read."""
    from oracles import peeled_tilting_module

    F = CycloField(3)
    old, fresh = peeled_tilting_module(F, 4), tilting_module(F, 4)
    assert old.fingerprint() != fresh.fingerprint()
    cache = CacheDir(str(tmp_path))
    cache.store_module(3, "T", 4, old)
    assert _same_module(cache.load_module(3, "T", 4), old)
    os.replace(tmp_path / cache.module_key(3, "T", 4), tmp_path / "module_v3_3_T_4.json")
    assert cached_standard_module(cache, F, "T", 4).fingerprint() == fresh.fingerprint()
    assert sorted(os.listdir(tmp_path)) == ["module_v3_3_T_4.json", "module_v4_3_T_4.json"]
    assert _same_module(cache.load_module(3, "T", 4), fresh)


L3_LABELS = {-1: [1], 0: [3], 1: [1]}  # C_min(L(3)) at ell 3


def test_cmin_table_is_read_and_validated_once_per_cache_dir(tmp_path, monkeypatch, capsys):
    """A `CacheDir` answers a repeated C_min lookup from its memory: it opens
    no file, so a file changed under it does not change the answer, while a
    fresh `CacheDir` on the same path validates the file and rebuilds."""
    from tiltlab.cache import cmin_label_table_cached
    from tiltlab.standard import simple_module

    M = simple_module(CycloField(3), 3)
    cache = CacheDir(str(tmp_path))
    assert cmin_label_table_cached(cache, M) == L3_LABELS
    path = tmp_path / cache.cmin_key(M.fingerprint())
    right = path.read_text()

    reads = []
    real_read = CacheDir._read

    def counted(self, name):
        reads.append(name)
        return real_read(self, name)

    monkeypatch.setattr(CacheDir, "_read", counted)
    assert cmin_label_table_cached(cache, M) == L3_LABELS
    assert reads == []

    path.write_text(json.dumps({"degrees": {"-1": [1], "0": [4], "1": [1]}}))
    assert cmin_label_table_cached(cache, M) == L3_LABELS
    assert reads == []
    capsys.readouterr()
    assert cmin_label_table_cached(CacheDir(str(tmp_path)), M) == L3_LABELS
    assert reads == [path.name]
    assert f"cache entry {path.name} does not add up to ch M; rebuilding" in capsys.readouterr().err
    assert path.read_text() == right


def test_cmin_table_built_without_a_cache_is_still_stored(tmp_path, monkeypatch):
    """A C_min built while no cache was active is written to the directory
    the first time it is asked for through one."""
    import tiltlab.minimal
    from tiltlab.cache import cmin_label_table_cached
    from tiltlab.minimal import minimal_tilting_complex
    from tiltlab.standard import simple_module

    monkeypatch.setattr(tiltlab.minimal, "_cmin_cache", {})
    M = simple_module(CycloField(3), 3)
    assert minimal_tilting_complex(M).label_table() == L3_LABELS
    cache = CacheDir(str(tmp_path))
    assert cmin_label_table_cached(cache, M) == L3_LABELS
    assert os.listdir(tmp_path) == [cache.cmin_key(M.fingerprint())]


def test_absent_entry_reads_as_none_without_a_warning(tmp_path, monkeypatch, capsys):
    """An absent entry is None with nothing on stderr, also when it was
    removed after a check said it existed (another process pruning the
    directory), since the read only opens the file."""
    cache = CacheDir(str(tmp_path))
    assert cache.load_cmin_labels(FINGERPRINT) is None
    monkeypatch.setattr(tiltlab.cache.os.path, "exists", lambda path: True)
    assert cache.load_cmin_labels(FINGERPRINT) is None
    assert capsys.readouterr().err == ""
    assert os.listdir(tmp_path) == []


def test_a_pickled_cache_dir_starts_with_an_empty_memory(tmp_path):
    import pickle

    cache = CacheDir(str(tmp_path))
    cache._cmin_tables[FINGERPRINT] = {0: [3]}
    copy = pickle.loads(pickle.dumps(cache))
    assert copy.path == cache.path and copy._cmin_tables == {}


def test_a_sequence_whose_sub_is_everything_builds_and_stores_one_cmin(tmp_path, monkeypatch):
    """0 -> A -> B -> 0 with A all of B: A is B itself, so the membership
    test of the sequence builds C_min once and stores one label table.
    B = L(1) (x) L(3) at ell 3 is L(4), simple and not tilting, and its
    basis is not weights descending."""
    import tiltlab.minimal
    from tiltlab.ideals import RepIdealHandle, SampledSES, negligible_ideal
    from tiltlab.modules import quotient_module, submodule_generated, tensor_module
    from tiltlab.standard import simple_module

    F = CycloField(3)
    B = tensor_module(simple_module(F, 1), simple_module(F, 3))
    assert list(B.weights) != sorted(B.weights, reverse=True)
    A, incl = submodule_generated(B, [{0: F.one}])
    assert A.dim == B.dim
    C, _ = quotient_module(B, incl)
    ses = SampledSES(A, B, C, "L(1)xL(3) generated by its first basis vector")

    builds = []
    real = tiltlab.minimal.tilting_complex_of

    def counted(M):
        builds.append(M.dim)
        return real(M)

    monkeypatch.setattr(tiltlab.minimal, "_cmin_cache", {})
    monkeypatch.setattr(tiltlab.minimal, "tilting_complex_of", counted)
    cache = CacheDir(str(tmp_path))
    monkeypatch.setattr(tiltlab.cache, "_active_cache", cache)
    handle = RepIdealHandle(negligible_ideal(F, 12))
    pattern = [handle.membership(M) for M in (ses.sub, ses.total, ses.quotient)]
    assert pattern[0] == pattern[1] and pattern[2]
    assert builds == [B.dim]
    assert os.listdir(tmp_path) == [cache.cmin_key(B.fingerprint())]

"""The disk cache's writes: concurrent writers of one key, and worker
processes that share the active cache whatever their start method."""

import multiprocessing
import os

import pytest

import tiltlab.cache
from tiltlab.cache import CacheDir
from tiltlab.cyclotomic import CycloField
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

import hashlib
import json
import os
import subprocess
import sys

import pytest

from tiltlab.cache import CacheDir
from tiltlab.cli import main, parse_module_spec
from tiltlab.cyclotomic import CycloField
from tiltlab.modules import UModule, direct_sum
from tiltlab.standard import dual_weyl_module, simple_module, tilting_module, weyl_module

from oracles import module_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def test_cmin_simple(capsys):
    code, out = run_cli(capsys, "cmin", "--ell", "3", "--module", "L:3")
    assert code == 0
    data = json.loads(out)
    assert data["degrees"] == {"-1": [1], "0": [3], "1": [1]}
    assert data["module"] == "L(3)"


def test_cmin_tilting_and_delta(capsys):
    code, out = run_cli(capsys, "cmin", "--ell", "3", "--module", "T:4")
    assert code == 0 and json.loads(out)["degrees"] == {"0": [4]}
    code, out = run_cli(capsys, "cmin", "--ell", "3", "--module", "delta:3")
    assert code == 0 and json.loads(out)["degrees"] == {"0": [3], "1": [1]}


def test_cmin_bad_spec(capsys):
    code = main(["cmin", "--ell", "3", "--module", "Q:3"])
    assert code == 2


def test_ideals_enumerate(capsys):
    code, out = run_cli(capsys, "ideals", "enumerate", "--ell", "3", "--window", "12")
    assert code == 0
    data = json.loads(out)
    members = [row["members"] for row in data["ideals"]]
    assert members == [[], list(range(2, 13)), list(range(13))]
    assert data["ideals"][1]["prime"] is True


def test_ideals_generate(capsys):
    code, out = run_cli(capsys, "ideals", "generate", "3", "--ell", "3", "--window", "12")
    assert code == 0
    data = json.loads(out)
    assert data["ideals"][0]["members"] == list(range(2, 13))
    code, out = run_cli(capsys, "ideals", "generate", "0", "--ell", "5", "--window", "12")
    assert json.loads(out)["ideals"][0]["members"] == list(range(13))


@pytest.mark.parametrize("flag", [["--ell", "5"], ["--window", "4"]])
def test_ideals_settings_before_the_action_are_rejected(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ideals", *flag, "enumerate"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_alcove_rejects_bound_outside_orbit(capsys):
    code = main(["alcove", "d", "--type", "A2", "--p", "5", "--lambda", "3,3", "--bound", "7"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--bound" in captured.err
    code, out = run_cli(capsys, "alcove", "orbit", "--type", "A1", "--p", "3", "--lambda", "0")
    assert code == 0 and json.loads(out)["bound"] == 48


def test_alcove_twist_rejects_lambda(capsys):
    code = main(["alcove", "twist", "--type", "A2", "--p", "5", "--lambda", "1,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--lambda" in captured.err


def test_alcove_commands(capsys):
    code, out = run_cli(capsys, "alcove", "d", "--type", "A2", "--p", "5", "--lambda", "3,3")
    assert code == 0 and json.loads(out)["d"] == 1
    code, out = run_cli(capsys, "alcove", "steinberg", "--type", "A1", "--p", "3", "--lambda", "7")
    data = json.loads(out)
    assert data["lambda0"] == [1] and data["lambda1"] == [2]
    code, out = run_cli(capsys, "alcove", "negligible", "--type", "A2", "--p", "5", "--lambda", "1,1")
    assert json.loads(out)["negligible"] is False
    code, out = run_cli(capsys, "alcove", "orbit", "--type", "A1", "--p", "3", "--lambda", "0", "--bound", "14")
    assert json.loads(out)["orbit"] == [[0], [4], [6], [10], [12]]
    code, out = run_cli(capsys, "alcove", "twist", "--type", "A1", "--p", "3")
    assert json.loads(out)["weight"] == [6]


def test_alcove_orbit_a4_walks_only_the_orbit(capsys):
    # a filter over every dominant weight under the default bound 48 would
    # reduce 270725 candidates; the walk visits only the orbit
    code, out = run_cli(capsys, "alcove", "orbit", "--type", "A4", "--p", "5", "--lambda", "0,0,0,0")
    orbit = json.loads(out)["orbit"]
    assert code == 0 and len(orbit) == 12100
    # the digest of oracles.filter_dot_orbit's list, which is not re-run
    # here: it takes over ten seconds
    assert hashlib.sha256(json.dumps(orbit).encode()).hexdigest()[:16] == "d67243d1fdf19481"


def test_alcove_malformed_weight(capsys):
    code = main(["alcove", "d", "--type", "A2", "--p", "5", "--lambda", "3"])
    assert code == 2


def test_alcove_missing_lambda(capsys):
    code = main(["alcove", "d", "--type", "A2", "--p", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--lambda" in captured.err


def test_alcove_orbit_nonpositive_p(capsys):
    code = main(["alcove", "orbit", "--type", "A2", "--p", "0", "--lambda", "1,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "p must be positive" in captured.err


def test_verify_suite_exit_codes(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "lemmas", "--ell", "3",
        "--budget", "4", "--seed", "11",
    )
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == []
    assert report["config"]["seed"] == 11
    assert report["config"]["budget"] == 4


def test_verify_determinism(capsys):
    args = ["verify", "--suite", "alcove-cross", "--ell", "3", "--window", "12"]
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ell = 3\nbudget = 2  # small\nseed = 9\n")
    code, out = run_cli(
        capsys, "verify", "--suite", "lemmas", "--config", str(cfg),
        "--seed", "4",
    )
    assert code == 0
    report = json.loads(out)
    assert report["config"]["budget"] == 2  # from file
    assert report["config"]["seed"] == 4  # flag wins


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 11\n")
    code = main(["verify", "--suite", "lemmas", "--config", str(cfg)])
    assert code == 2


def test_cache_cold_warm_identical(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ["cmin", "--ell", "3", "--module", "L:3", "--cache", cache]
    _, cold = run_cli(capsys, *args)
    assert os.listdir(cache)
    _, warm = run_cli(capsys, *args)
    assert cold == warm


def test_cache_stores_module_files(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    run_cli(capsys, "cmin", "--ell", "3", "--module", "T:3", "--cache", cache)
    path = os.path.join(cache, CacheDir(cache).module_key(3, "T", 3))
    data = json.loads(open(path).read())
    assert data["module"]["dim"] == 6


def test_cache_not_kept_by_later_commands(tmp_path, capsys):
    cache = tmp_path / "cache"
    run_cli(capsys, "cmin", "--ell", "3", "--module", "L:3", "--cache", str(cache))
    before = sorted(os.listdir(cache))
    assert before
    code, _ = run_cli(capsys, "cmin", "--ell", "3", "--module", "L:4")
    assert code == 0
    assert sorted(os.listdir(cache)) == before


def test_cache_corruption_rebuilds(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ["cmin", "--ell", "3", "--module", "L:3", "--cache", cache]
    _, cold = run_cli(capsys, *args)
    names = sorted(os.listdir(cache))
    for name in names:
        with open(os.path.join(cache, name), "w") as fh:
            fh.write("{broken json")
    code = main(args)
    captured = capsys.readouterr()
    assert code == 0 and captured.out.strip() == cold
    for name in names:
        assert f"warning: cache entry {name} unreadable" in captured.err
    assert captured.err.count("; rebuilding") == len(names)


@pytest.mark.parametrize("prefix", ["cmin_", "module_"])
def test_non_utf8_cache_entry_rebuilds(prefix, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ["cmin", "--ell", "3", "--module", "L:3", "--cache", cache]
    _, cold = run_cli(capsys, *args)
    (name,) = [n for n in os.listdir(cache) if n.startswith(prefix)]
    path = os.path.join(cache, name)
    right = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(b"\xff\xfe\x00")
    code = main(args)
    captured = capsys.readouterr()
    assert code == 0 and captured.out.strip() == cold
    assert f"warning: cache entry {name} unreadable" in captured.err
    assert open(path, "rb").read() == right


def _doubled_e(M):
    return module_to_json(UModule(M.field, M.weights, M.E.scale(M.field.scalar(2)), M.F, M.El, M.Fl))


def _k_off_diagonal(M):
    data = module_to_json(M)
    data["K"]["entries"][1] = data["K"]["entries"][0]
    return data


def _truncated_e(M):
    data = module_to_json(M)
    data["E"]["entries"] = data["E"]["entries"][:3]
    return data


@pytest.mark.parametrize("spec, stored, reason", [
    ("T:3", lambda F: module_to_json(weyl_module(F, 3)), "not the character of T(3)"),
    ("T:3", lambda F: _doubled_e(tilting_module(F, 3)), "relation [E,F] = (K - K^-1)/(z - z^-1) fails"),
    ("T:3", lambda F: _truncated_e(tilting_module(F, 3)), "3 entries for a 6 x 6 matrix"),
    ("T:3", lambda F: _k_off_diagonal(tilting_module(F, 3)), "stored K is not zeta^weight on the diagonal"),
    ("delta:5", lambda F: module_to_json(weyl_module(F, 3)), "not the character of Delta(5)"),
    ("L:4", lambda F: module_to_json(simple_module(F, 1)), "not the character of L(4)"),
    ("nabla:4", lambda F: module_to_json(weyl_module(F, 4)), "dual not generated by a vector of weight 4"),
    ("delta:4", lambda F: module_to_json(dual_weyl_module(F, 4)), "not generated by a vector of weight 4"),
    ("T:3", lambda F: module_to_json(direct_sum(weyl_module(F, 3), weyl_module(F, 1))), "not tilting"),
], ids=["Delta(3) as T(3)", "T(3) with E doubled", "T(3) with E truncated", "T(3) with K off the diagonal",
        "Delta(3) as Delta(5)", "L(1) as L(4)", "Delta(4) as Nabla(4)", "Nabla(4) as Delta(4)", "Delta(3)+Delta(1) as T(3)"])
def test_wrong_cached_module_is_rebuilt(spec, stored, reason, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    kind, n = parse_module_spec(spec)
    args = ["cmin", "--ell", "3", "--module", spec, "--cache", cache]
    _, cold = run_cli(capsys, *args)
    path = os.path.join(cache, CacheDir(cache).module_key(3, kind, n))
    right = open(path).read()
    # well-formed JSON of a module, but not the module the key names
    with open(path, "w") as fh:
        json.dump({"ell": 3, "kind": kind, "n": n, "module": stored(CycloField(3))}, fh)
    code = main(args)
    captured = capsys.readouterr()
    assert code == 0 and captured.out.strip() == cold
    assert f"warning: cache module {kind}({n}) invalid ({reason}); rebuilding" in captured.err
    assert open(path).read() == right
    code = main(args)
    captured = capsys.readouterr()
    assert code == 0 and captured.out.strip() == cold and captured.err == ""


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["alcove", "d", "--type", "A1", "--p", "3", "--lambda", "3", "--output", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text())["d"] == 1


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "tiltlab.cli", "alcove", "d", "--type", "A1", "--p", "3", "--lambda", "6"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d"] == 2


def test_workers_flag_matches_serial(capsys):
    base = ["verify", "--suite", "lemmas", "--ell", "3",
            "--budget", "3", "--seed", "2"]
    _, serial = run_cli(capsys, *base)
    _, parallel = run_cli(capsys, *base, "--workers", "2")
    a, b = json.loads(serial), json.loads(parallel)
    a["config"].pop("workers"), b["config"].pop("workers")
    assert a == b


def test_even_ell_rejected(capsys):
    code = main(["cmin", "--ell", "4", "--module", "L:1"])
    assert code == 2


def test_cross_process_byte_identical():
    cmd = [
        sys.executable, "-m", "tiltlab.cli", "verify", "--suite", "lemmas",
        "--ell", "3", "--budget", "2", "--seed", "5",
    ]
    a = subprocess.run(cmd, capture_output=True, text=True, timeout=590)
    b = subprocess.run(cmd, capture_output=True, text=True, timeout=590)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_failed_certification_exits_internal(monkeypatch, capsys):
    import tiltlab.cache
    import tiltlab.minimal

    minimalize = tiltlab.minimal.minimalize

    def corrupted(X):
        # add one to the first nonzero entry of the carried map in degree 0
        res = minimalize(X)
        f = res.chain_map[0]
        r, row = next((r, row) for r, row in enumerate(f.entries) if row)
        c = min(row)
        f[r, c] = row[c] + f.field.one
        return res

    monkeypatch.setattr(tiltlab.cache, "_active_cache", None)
    monkeypatch.delenv("TILTLAB_CACHE", raising=False)
    monkeypatch.setattr(tiltlab.minimal, "_cmin_cache", {})
    monkeypatch.setattr(tiltlab.minimal, "minimalize", corrupted)
    code = main(["cmin", "--ell", "3", "--module", "L:3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "degree-zero cohomology" in captured.err


def test_wrong_cmin_label_exits_internal(monkeypatch, capsys):
    import tiltlab.cache
    import tiltlab.minimal
    from tiltlab.complexes import ChainComplex

    monkeypatch.setattr(tiltlab.cache, "_active_cache", None)
    monkeypatch.delenv("TILTLAB_CACHE", raising=False)
    monkeypatch.setattr(tiltlab.minimal, "_cmin_cache", {})
    right = ChainComplex.tilting_label_table

    def one_label_wrong(self):
        table = right(self)
        table[0] = [n + 1 for n in table[0]]
        return table

    monkeypatch.setattr(ChainComplex, "tilting_label_table", one_label_wrong)
    code = main(["cmin", "--ell", "3", "--module", "L:3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "do not add up to ch M" in captured.err


def _rebuilds_cmin_table(tmp_path, capsys, table, warning):
    """Store `table` as the cached labels of C_min(L(3)) at ell 3; the next
    run must warn, print the cold report and overwrite the entry."""
    cache = str(tmp_path / "cache")
    args = ["cmin", "--ell", "3", "--module", "L:3", "--cache", cache]
    _, cold = run_cli(capsys, *args)
    (name,) = [n for n in os.listdir(cache) if n.startswith("cmin_")]
    path = os.path.join(cache, name)
    right = open(path).read()
    with open(path, "w") as fh:
        json.dump({"degrees": table}, fh)
    code = main(args)
    captured = capsys.readouterr()
    assert code == 0 and captured.out.strip() == cold
    assert warning.format(name=name) in captured.err
    assert open(path).read() == right
    code = main(args)
    captured = capsys.readouterr()
    assert code == 0 and captured.out.strip() == cold and captured.err == ""


def test_wrong_cached_cmin_table_is_rebuilt(tmp_path, capsys):
    # well-formed, but the labels of C_min(L(3)) are {-1: [1], 0: [3], 1: [1]}
    _rebuilds_cmin_table(tmp_path, capsys, {"-1": [1], "0": [4], "1": [1]},
                         "cache entry {name} does not add up to ch M; rebuilding")


def test_negative_cached_cmin_label_is_rebuilt(tmp_path, capsys):
    _rebuilds_cmin_table(tmp_path, capsys, {"0": [-1]}, "warning: corrupt cmin cache entry; rebuilding")


def test_cache_from_environment(tmp_path, monkeypatch, capsys):
    import tiltlab.cache

    monkeypatch.setattr(tiltlab.cache, "_active_cache", None)
    env_cache = tmp_path / "env"
    monkeypatch.setenv("TILTLAB_CACHE", str(env_cache))
    code, out = run_cli(capsys, "cmin", "--ell", "3", "--module", "L:3")
    assert code == 0 and json.loads(out)["degrees"] == {"-1": [1], "0": [3], "1": [1]}
    names = os.listdir(env_cache)
    assert CacheDir(str(env_cache)).module_key(3, "L", 3) in names
    assert any(name.startswith("cmin_") for name in names)
    code, _ = run_cli(capsys, "verify", "--suite", "alcove-cross", "--ell", "3", "--window", "4")
    assert code == 0
    assert len(os.listdir(env_cache)) > len(names)
    # an explicit --cache wins over the variable
    flag_cache = tmp_path / "flag"
    before = sorted(os.listdir(env_cache))
    run_cli(capsys, "cmin", "--ell", "3", "--module", "L:4", "--cache", str(flag_cache))
    assert os.listdir(flag_cache)
    assert sorted(os.listdir(env_cache)) == before


def test_alcove_cross_window_is_the_largest_lambda(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "alcove-cross", "--ell", "3", "--window", "5")
    assert code == 0
    report = json.loads(out)
    # lambda = 2 and 5 are p-singular at ell 3
    assert [row["lambda"] for row in report["table"]] == [0, 1, 3, 4]
    assert report["config"]["window"] == 5


@pytest.mark.parametrize("suite", ["alcove-cross", "bijection"])
def test_sample_free_suites_reject_budget_and_seed(suite, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 4\n")
    for extra, key in (
        (["--budget", "3"], "budget"),
        (["--seed", "1"], "seed"),
        (["--config", str(cfg)], "seed"),
    ):
        code = main(["verify", "--suite", suite, "--ell", "3", *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{key} is not used" in captured.err


@pytest.mark.parametrize("suite", ["two-out-of-three", "bijection", "alcove-cross"])
def test_serial_suites_reject_workers(suite, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers = 2\n")
    for extra in (["--workers", "2"], ["--config", str(cfg)]):
        code = main(["verify", "--suite", suite, "--ell", "3", "--window", "3", *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "workers is not used" in captured.err


@pytest.mark.parametrize("argv, config, message", [
    (["cmin", "--ell", "3", "--module", "L:3"], "budget = 4\n", "budget is not used"),
    (["cmin", "--ell", "3", "--module", "L:3"], "seed = 4\n", "seed is not used"),
    (["cmin", "--ell", "3", "--module", "L:3"], "workers = 2\n", "workers is not used"),
    (["cmin", "--ell", "3", "--module", "L:3"], "window = 6\n", "window is not used"),
    (["ideals", "enumerate", "--ell", "3"], "budget = 4\n", "budget is not used"),
    (["ideals", "generate", "3", "--ell", "3"], "seed = 4\n", "seed is not used"),
    (["ideals", "enumerate", "--ell", "3"], "workers = 2\n", "workers is not used"),
    (["ideals", "enumerate", "--ell", "3", "--window", "-1"], None, "window must be at least 0"),
    (["verify", "--suite", "two-out-of-three", "--ell", "3", "--budget", "-3"], None, "budget must be at least 1"),
    (["verify", "--suite", "lemmas", "--ell", "3", "--workers", "-1"], None, "workers must be at least 1"),
    (["verify", "--suite", "lemmas", "--ell", "3"], "budget = 0\n", "budget must be at least 1"),
    (["verify", "--suite", "lemmas", "--ell", "3", "--window", "12"], None, "window is not used"),
    (["verify", "--suite", "lemmas", "--ell", "3"], "window = 6\n", "window is not used"),
])
def test_ignored_or_out_of_range_settings_exit_resource(argv, config, message, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_closed_stdout_exits_resource(tmp_path, monkeypatch, capsys):
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
        code = main(["alcove", "d", "--type", "A1", "--p", "3", "--lambda", "6"])
        # the stream's descriptor now points at the null device
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    err = capsys.readouterr().err
    assert code == 2
    assert "stdout was closed" in err and "Traceback" not in err


def test_closed_stdout_pipe_subprocess():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tiltlab.cli", "alcove", "orbit", "--type", "A2",
             "--p", "2", "--lambda", "0,0", "--bound", "60"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: stdout was closed before the report was written\n"


def test_internal_invariant_failure_exits_internal(monkeypatch, capsys):
    import tiltlab.cache
    import tiltlab.standard

    monkeypatch.setattr(tiltlab.cache, "_active_cache", None)
    monkeypatch.delenv("TILTLAB_CACHE", raising=False)
    monkeypatch.setattr(tiltlab.standard, "_simple_cache", {})
    # the weight-5 vector of Nabla(5) is lost, so it generates nothing
    generated = tiltlab.standard.submodule_generated
    monkeypatch.setattr(tiltlab.standard, "submodule_generated", lambda M, vectors: generated(M, []))
    code = main(["cmin", "--ell", "3", "--module", "L:5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "the weight-5 vector of Nabla(5) does not generate L(5)" in captured.err


def test_a_lost_cover_solution_exits_internal(monkeypatch, capsys):
    import tiltlab.cache
    import tiltlab.minimal
    import tiltlab.standard

    monkeypatch.setattr(tiltlab.cache, "_active_cache", None)
    monkeypatch.delenv("TILTLAB_CACHE", raising=False)
    monkeypatch.setattr(tiltlab.minimal, "_cmin_cache", {})
    solve = tiltlab.standard.hom_space

    def lossy(M, N):
        basis = solve(M, N)
        # a cover solves Hom(T(mu), X) out of the cached T(mu)
        if M is tilting_module(M.field, M.character.max_weight()):
            return basis[:-1]
        return basis

    # the one certified solve of Hom(T(mu), X), for the cover and the split
    monkeypatch.setattr(tiltlab.standard, "hom_space", lossy)
    code = main(["cmin", "--ell", "3", "--module", "L:4"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "Hom(T(" in captured.err


def test_an_embedding_missing_from_its_window_exits_internal(monkeypatch, capsys):
    """The window of embed_into_tilting always holds an embedding, so a
    selection that is not injective is a program fault, not a resource
    limit."""
    import tiltlab.cache
    import tiltlab.minimal

    monkeypatch.setattr(tiltlab.cache, "_active_cache", None)
    monkeypatch.delenv("TILTLAB_CACHE", raising=False)
    monkeypatch.setattr(tiltlab.minimal, "_cmin_cache", {})
    monkeypatch.setattr(tiltlab.minimal, "_greedy_embedding", lambda components, M: None)
    code = main(["cmin", "--ell", "3", "--module", "L:4"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "mu <= 8, do not embed a dim-4 module" in captured.err


def test_a_failed_lift_exits_internal(monkeypatch, capsys):
    import tiltlab.cache
    import tiltlab.minimal

    monkeypatch.setattr(tiltlab.cache, "_active_cache", None)
    monkeypatch.delenv("TILTLAB_CACHE", raising=False)
    monkeypatch.setattr(tiltlab.minimal, "_cmin_cache", {})
    monkeypatch.setattr(tiltlab.minimal, "_lift_over_tiltings", lambda *args: None)
    # the coresolution of L(4) at ell 3 has two columns, joined by a lift
    assert len(tiltlab.minimal._coresolution(simple_module(CycloField(3), 4))[0]) == 1
    code = main(["cmin", "--ell", "3", "--module", "L:4"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "vertical lift at column 0, level 0 is inconsistent" in captured.err


def test_a_tilting_kernel_that_does_not_split_exits_internal(monkeypatch, capsys):
    """Once the flag counts prove a module tilting, a predicted summand that
    does not split is an internal fault, not a verdict on the module."""
    import tiltlab.cache
    import tiltlab.minimal
    import tiltlab.standard

    monkeypatch.setattr(tiltlab.cache, "_active_cache", None)
    monkeypatch.delenv("TILTLAB_CACHE", raising=False)
    monkeypatch.setattr(tiltlab.minimal, "_cmin_cache", {})
    for n in range(9):  # the tiltings the resolution of L(4) needs, built first
        tilting_module(CycloField(3), n)
    # the split's cover loses a component, so its labels are not those of
    # ch M; minimal holds its own binding, so the cover of the tail is intact
    cover = tiltlab.standard.minimal_tilting_cover
    monkeypatch.setattr(tiltlab.standard, "minimal_tilting_cover", lambda *args: cover(*args)[:-1])
    code = main(["cmin", "--ell", "3", "--module", "L:4"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "internal error: a tilting module does not split" in captured.err


@pytest.mark.parametrize("argv", [
    ["cmin", "--ell", "3", "--module", "L:3", "--output", "{tmp}/no/such/dir/x.json"],
    ["cmin", "--module", "L:3", "--config", "{tmp}/no-such.cfg"],
    # a cache directory under a regular file cannot be created
    ["cmin", "--ell", "3", "--module", "L:3", "--cache", "{tmp}/file/cache"],
], ids=["output", "config", "cache"])
def test_a_path_that_cannot_be_opened_exits_resource(argv, tmp_path, monkeypatch, capsys):
    import tiltlab.cache
    import tiltlab.minimal

    monkeypatch.setattr(tiltlab.cache, "_active_cache", None)
    monkeypatch.delenv("TILTLAB_CACHE", raising=False)
    monkeypatch.setattr(tiltlab.minimal, "_cmin_cache", {})
    (tmp_path / "file").write_text("")
    code = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: ")
    assert "Traceback" not in captured.err

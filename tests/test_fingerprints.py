"""Pinned module, complex and report fingerprints.

The disk cache is keyed by module_fingerprint, the SHA-256 of a module's
canonical JSON text (`module_text`, checked byte for byte against the JSON
oracle `module_to_json` in tests/oracles.py), in which every scalar
coefficient is printed as 'a/b' or 'a'.  Any drift in how a coefficient
prints, or in the constructions behind these modules, would silently orphan
every cached entry; these digests make it fail.

The C_min pipeline is pinned the same way: the SHA-256 of the oracle
complex_to_json for the totalized complex and for its minimalization, of the
differentials of a tensor product of complexes, and of the stdout of a few
CLI reports.  A refactor of the pipeline must keep every one of these bytes.
The basis of T(n) is part of what the module and complex digests pin: they
were last re-pinned when T(n) above 2ell-2 became T(ell-1+b) (x) L(a)^[1], a
change that left every CLI-report digest unchanged.

The witnesses of decompose_indecomposables are pinned too: the labels of the
Parts, in order, with their inclusion and projection matrices.  minimalize
cancels through these maps, so a reorder or basis change of the split must
fail here before it can move a complex or CLI digest.
"""

import hashlib

import pytest

from tiltlab.cache import CacheDir
from tiltlab.cli import main
from tiltlab.complexes import tensor_complexes
from tiltlab.cyclotomic import CycloField
from tiltlab.linalg import ExactMatrix
from tiltlab.minimal import minimal_tilting_complex, tilting_complex_of
from tiltlab.modules import (
    UModule,
    check_relations,
    direct_sum,
    frobenius_twist,
    quotient_module,
    submodule_generated,
    tensor_module,
)
from tiltlab.serialize import canonical_dumps, module_fingerprint, module_text
from tiltlab.standard import (
    decompose_indecomposables,
    dual_weyl_module,
    simple_module,
    tilting_module,
    weyl_module,
)

from oracles import complex_to_json, content_hash, matrix_to_json, module_to_json


def _delta3_submodule_and_quotient():
    F = CycloField(3)
    D = weyl_module(F, 3)
    vec = [F.zero] * 4
    vec[1] = F.one
    S, incl = submodule_generated(D, [vec])
    return S, quotient_module(D, incl)[0]


def _rescaled_tilting(ell, n):
    """T(n) in the basis scaled by diag(2^i + zeta*(i odd)).

    Fractions appear, some scalars with coefficients over different
    denominators, such as ['1/2', '1/4'], so each coefficient must be printed
    in its own lowest terms.
    """
    F = CycloField(ell)
    M = tilting_module(F, n)
    P = ExactMatrix(F, M.dim, M.dim)
    for i in range(M.dim):
        P[i, i] = F.scalar(2**i) + (F.zeta if i % 2 else F.zero)
    P_inv = P.inverse()
    mats = [P_inv @ X @ P for X in (M.E, M.F, M.El, M.Fl)]
    return UModule(F, M.weights, *mats)


CASES = {
    "T(4), ell 3": (
        lambda: tilting_module(CycloField(3), 4),
        "2f73e30e5994ffcd55adc06675a47d39ae7c632ce21a668b2874b39283a2649d",
    ),
    "T(7), ell 3": (
        lambda: tilting_module(CycloField(3), 7),
        "2fa8c9cee63e812f99b6229b956ae57f474d8be9f539247895a74e168ba3f8a3",
    ),
    "T(6), ell 5": (
        lambda: tilting_module(CycloField(5), 6),
        "a9c2bdd9617d263caf0d502d6c3bfc86547e7d483209b59df01718db153752c7",
    ),
    "T(8), ell 7": (
        lambda: tilting_module(CycloField(7), 8),
        "a4c88b127332ce340b4675e3235adc02c5fa1c4629b7536ecdedd80c5a974a98",
    ),
    "Delta(3) x Delta(1), ell 3": (
        lambda: tensor_module(weyl_module(CycloField(3), 3), weyl_module(CycloField(3), 1)),
        "92ef24408af55cedad4e84c65135da98a191c66ff0f72aad8140c9f194f8c86b",
    ),
    "L(2) x L(3), ell 5": (
        lambda: tensor_module(simple_module(CycloField(5), 2), simple_module(CycloField(5), 3)),
        "4ad957d7299886048e04e09179e6a9dac55e29a7ab08a9295e4a977809229f4e",
    ),
    "submodule of Delta(3), ell 3": (
        lambda: _delta3_submodule_and_quotient()[0],
        "f2c2d576776b38b0d9e96db8f35bc1688946eabcea429ec62b08246c63cde008",
    ),
    "quotient of Delta(3), ell 3": (
        lambda: _delta3_submodule_and_quotient()[1],
        "23088effd24694a6582a2284720996a78bbf03e75e119c4ac2e05069120b9115",
    ),
    "rescaled T(4), ell 3": (
        lambda: _rescaled_tilting(3, 4),
        "7d0eb4a6ebd5930cc46726eaa71b3a8eda63d550ad16946faf34aa179ac6cee0",
    ),
    "rescaled T(6), ell 5": (
        lambda: _rescaled_tilting(5, 6),
        "5f8c9a4b1573c9869764cfd9c26f35017bf844640f4184b858a8bc179f5078e7",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_module_fingerprint_is_pinned(name):
    build, digest = CASES[name]
    assert module_fingerprint(build()) == digest


def test_rescaled_modules_print_fractions():
    for ell, n in ((3, 4), (5, 6)):
        M = _rescaled_tilting(ell, n)
        assert check_relations(M).ok
        assert "/" in canonical_dumps(module_to_json(M))


def _with_zero_row(ell):
    """A tensor product whose E has an all-zero row inside the matrix and,
    for ell > 3, whose E^(l) and F^(l) are zero throughout."""
    F = CycloField(ell)
    M = tensor_module(weyl_module(F, 2), dual_weyl_module(F, 1))
    assert any(not row for row in M.E.entries[1:-1])
    return M


@pytest.mark.parametrize("ell", [3, 5, 7, 9])
def test_module_text_matches_the_json_oracle(ell):
    F = CycloField(ell)
    modules = [UModule.zero_module(F), UModule.trivial(F), _rescaled_tilting(ell, ell + 1),
               _with_zero_row(ell), frobenius_twist(F, 2)]
    if ell == 3:
        modules += [build() for build, _ in CASES.values()]
    for M in modules:
        text = module_text(M)
        assert text == canonical_dumps(module_to_json(M)), M
        assert module_fingerprint(M) == hashlib.sha256(text.encode()).hexdigest()


def test_store_module_writes_the_json_oracle(tmp_path):
    cache = CacheDir(str(tmp_path))
    for ell, kind, n, M in ((3, "T", 4, _rescaled_tilting(3, 4)), (5, "L", 7, simple_module(CycloField(5), 7)),
                            (3, "Delta", 0, UModule.trivial(CycloField(3)))):
        cache.store_module(ell, kind, n, M)
        with open(tmp_path / cache.module_key(ell, kind, n)) as fh:
            stored = fh.read()
        assert stored == canonical_dumps({"ell": ell, "kind": kind, "n": n, "module": module_to_json(M)})


def _tilting(ell, n):
    return tilting_module(CycloField(ell), n)


PART_CASES = {
    "T(4) + T(2), ell 3": (
        lambda: direct_sum(_tilting(3, 4), _tilting(3, 2)),
        "2faa820b060a819b310395919817e34cd991f81708ac5931ae6cc9461515e13d",
    ),
    "T(5) + T(3) + T(3), ell 3": (
        lambda: direct_sum(_tilting(3, 5), _tilting(3, 3), _tilting(3, 3)),
        "aaa2c57587b6957aafd3c85a7e1b815bd2492adee554d5ab7ec600f78c66bb21",
    ),
    "T(2) x T(1), ell 3": (
        lambda: tensor_module(_tilting(3, 2), _tilting(3, 1)),
        "390b57ef10b4e06f213dae349c8e16d2bbd87cf2944801fcd0256abd4a38c1fc",
    ),
    "T(3) x T(3), ell 3": (
        lambda: tensor_module(_tilting(3, 3), _tilting(3, 3)),
        "7b6116306cef1082bc8d5fd0e1a81b0db10a00c26838d96c1decb961348a5b55",
    ),
    "T(4) x T(2), ell 5": (
        lambda: tensor_module(_tilting(5, 4), _tilting(5, 2)),
        "8a24118f0142287b5441f154b204e0c7da7a971dc4290ca3709d6e9d05ae7b6e",
    ),
    "T(6) + T(2), ell 5": (
        lambda: direct_sum(_tilting(5, 6), _tilting(5, 2)),
        "6cdf2d95801f50b771b4904fea9186fde186cb382c7f136348952e396baa1642",
    ),
    "T(8), ell 7": (
        lambda: _tilting(7, 8),
        "45d94dc622b413b3b3dcf5f34f8f084aa7a97c16f58c10d5f18173e69eff575d",
    ),
}


@pytest.mark.parametrize("name", sorted(PART_CASES))
def test_decomposition_parts_are_pinned(name):
    build, digest = PART_CASES[name]
    data = [
        {
            "label": list(p.label),
            "inclusion": matrix_to_json(p.inclusion.matrix),
            "projection": matrix_to_json(p.projection.matrix),
        }
        for p in decompose_indecomposables(build())
    ]
    assert content_hash(data) == digest


# module -> (digest of the totalized complex, digest of C_min)
COMPLEX_CASES = {
    "L(4), ell 3": (
        lambda: simple_module(CycloField(3), 4),
        "0f564b172d5ecfeff12817cb25147497d6e12b26e9c5b845813235aa080bb6be",
        "e9eb13407208e4ffa3738a54fa4a7f5c56b30f8493470e83c8c0a44f1d5512bc",
    ),
    "Delta(6), ell 3": (
        lambda: weyl_module(CycloField(3), 6),
        "8a8639eb5a9374bd39db176224371796f8d2708fa314e6b3cd100b82dea7828d",
        "8a8639eb5a9374bd39db176224371796f8d2708fa314e6b3cd100b82dea7828d",
    ),
    "L(7), ell 5": (
        lambda: simple_module(CycloField(5), 7),
        "d5514d1f5d51c0a5b0e4982552fd5b1c500124250d994832d3b8d7bd7d271449",
        "77044b50d56c0a4a517105e46da4d68d53289b57f61a4a225cea8f12e913e31a",
    ),
    "Delta(3) + L(3), ell 3": (
        lambda: direct_sum(weyl_module(CycloField(3), 3), simple_module(CycloField(3), 3)),
        "c5942923ac11f83312c8928c6c3883b608bdba91b3ed36886ffb6fb2f98166e0",
        "f2cae228415fc6e692e648deeaac0f438998a3c99183d0a71c322a6e836e5a90",
    ),
    # five columns, joined by the projection onto the tail's cover and
    # three corrections down the tail's resolution
    "L(12), ell 3": (
        lambda: simple_module(CycloField(3), 12),
        "828fea878054f958ed2e4bdd100b302978a33aede0eee198cc8b07a6169b4819",
        "8234f53c00d6de87496b77876d4b750e928264ad8ff3ddc9df229f9e368b341e",
    ),
    # three columns and one correction
    "L(10), ell 5": (
        lambda: simple_module(CycloField(5), 10),
        "a4e63591f21ccdb25a17a5a8622c873848a7543cf04d0a5fc12ac02809367c49",
        "346776c7f26d2c5a4b70f8fc7d6f757a5dab99b6effa5284194ce8dbc2e558bc",
    ),
}


@pytest.mark.parametrize("name", sorted(COMPLEX_CASES))
def test_complex_fingerprints_are_pinned(name):
    build, total_digest, min_digest = COMPLEX_CASES[name]
    M = build()
    assert content_hash(complex_to_json(tilting_complex_of(M)[0])) == total_digest
    assert content_hash(complex_to_json(minimal_tilting_complex(M).complex)) == min_digest


def test_a_tilting_tail_needs_no_lift(monkeypatch):
    """The coresolution of Delta(6) at ell 3 has two tilting terms and a
    tilting tail, so every map of its complex is written down as it is."""
    import tiltlab.minimal

    def no_lift(*args):
        raise AssertionError("a lift was solved")

    monkeypatch.setattr(tiltlab.minimal, "_lift_over_tiltings", no_lift)
    build, total_digest, _ = COMPLEX_CASES["Delta(6), ell 3"]
    assert content_hash(complex_to_json(tilting_complex_of(build())[0])) == total_digest


def test_tensor_complex_differentials_are_pinned():
    F = CycloField(3)
    X = minimal_tilting_complex(simple_module(F, 3)).complex
    Y = minimal_tilting_complex(weyl_module(F, 3)).complex
    XY = tensor_complexes(X, Y)
    data = {
        "weights": {str(i): list(XY.terms[i].weights) for i in XY.degrees()},
        "differentials": {
            str(i): matrix_to_json(d.matrix) for i, d in sorted(XY.differentials.items())
        },
    }
    assert content_hash(data) == "9798540f0d8464543abfe95f215e996796d9c8130dd4fd03ccbafe1e69e75041"


CLI_CASES = {
    "cmin L:4 ell 3": (["cmin", "--ell", "3", "--module", "L:4"], "e0ba0ee1e79cf9084e7fac35de04161e16cc04d76e438c17d82bbfbea5015434"),
    "cmin L:7 ell 5": (["cmin", "--ell", "5", "--module", "L:7"], "a87e79ad57beabe2aa7b72a6819b08b2314b0d02198101972686b66468fca544"),
    "ideals enumerate ell 3 window 6": (
        ["ideals", "enumerate", "--ell", "3", "--window", "6"],
        "1fc63bb177106417b93b91f7f29e0e061b4ec74f6f5f9c193a7727775502766b",
    ),
    "ideals enumerate ell 3 window 12": (
        ["ideals", "enumerate", "--ell", "3", "--window", "12"],
        "16c11313b648f263fe4ed4d3c10a421e4362480633d10009468cabe9a9c4c61b",
    ),
    "ideals enumerate ell 5 window 12": (
        ["ideals", "enumerate", "--ell", "5", "--window", "12"],
        "02184887f422852772d34572d1dfa5361edf47bc8f75db8c836a62fb78e7586a",
    ),
    "ideals enumerate ell 9 window 10": (
        ["ideals", "enumerate", "--ell", "9", "--window", "10"],
        "84977432cb21e42e1d22fc88b8e596a99b91399599352365bfb4d70f5be949d6",
    ),
    # a closed-form tilting module, C_min read off its flag counts
    "cmin T:13 ell 5": (["cmin", "--ell", "5", "--module", "T:13"], "ddedd1d772d7d5b11bb5847d693c8248405773f236f99946b9ab74d7e9e2136d"),
    "cmin L:12 ell 5": (["cmin", "--ell", "5", "--module", "L:12"], "393aa77192c2deb7fa3e36e565123b0a0139d2408db78bc038603bf2789efe38"),
    "cmin L:10 ell 7": (["cmin", "--ell", "7", "--module", "L:10"], "1664c72d2db2b6f6cae6f4d6979496586f6d479cd150e755dd1156e8ef6b2089"),
    "verify bijection": (
        ["verify", "--suite", "bijection"],
        "a346dcbb44885946c8ee5d2534e1b8bf1ce8de3c78646db4617035c52bbff51d",
    ),
    # direct sums, tensor products and the Krull-Schmidt split
    "verify lemmas ell 3 seed 7": (
        ["verify", "--suite", "lemmas", "--ell", "3", "--window", "12", "--budget", "25", "--seed", "7"],
        "52951eeade41f8a7e1612564921b0e26a36e6ef5583f88cea14ec0f64ff24c75",
    ),
    "verify two-out-of-three ell 3 seed 1": (
        ["verify", "--suite", "two-out-of-three", "--ell", "3", "--window", "12", "--budget", "20", "--seed", "1"],
        "b3f3bf28e48d6a1c9b3132decea4cba26e0c31be0a99e116db3a28a3f75404d3",
    ),
    # the sampled short exact sequences at ell 5
    "verify lemmas ell 5 seed 2": (
        ["verify", "--suite", "lemmas", "--ell", "5", "--budget", "10", "--seed", "2"],
        "efdfbf57ce81b0247c55dbeeaeb001c6ebc5c7932443e4381ecb2c35cc28bd77",
    ),
    "verify two-out-of-three ell 5 seed 3": (
        ["verify", "--suite", "two-out-of-three", "--ell", "5", "--window", "12", "--budget", "30", "--seed", "3"],
        "65117a1641239035f764d5551d47e85603280b62ff678f406f2625296a2cb3df",
    ),
    # C_min(L(lam)) for lam = 0..12, most of it in the tilting covers
    "verify alcove-cross ell 3": (
        ["verify", "--suite", "alcove-cross", "--ell", "3", "--window", "12"],
        "ba92beca4d286dbf80ab06c68c4396bd2c5e69fb070967cf06763297dcfa560e",
    ),
    "verify alcove-cross ell 5": (
        ["verify", "--suite", "alcove-cross", "--ell", "5", "--window", "12"],
        "237d92f19fce033ea99062a192d4ba8307603ac7fb359860baacc5989bd846c2",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout_is_pinned(name, monkeypatch, capsys):
    monkeypatch.delenv("TILTLAB_CACHE", raising=False)
    argv, digest = CLI_CASES[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest

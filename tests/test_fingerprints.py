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
were re-pinned when T(n) above 2ell-2 became T(ell-1+b) (x) L(a)^[1], a
change that left every CLI-report digest unchanged, and last when T(ell-1+b)
became Delta(ell-1+b) glued to Delta(ell-1-b).  That basis change also moved
the two ell-3 sampling reports below: a middle term with a T(3) or T(4)
factor draws its random generating vector in the new basis, and each stream
first diverges at such a draw.  Every case of both still passes.

The witnesses of decompose_indecomposables are pinned too: the labels of the
Parts, in order, with their inclusion and projection matrices.  minimalize
cancels through these maps, so a reorder or basis change of the split must
fail here before it can move a complex or CLI digest.  They were re-pinned
when the split became the minimal tilting cover: each inclusion is now a
basis element of Hom(T(mu), M) and each projection a block of one inverse,
where the split-pair search found every part after the first inside a
complement.  Only the two tensor products with more than one part moved,
T(3) x T(3) at ell 3 and T(4) x T(2) at ell 5; the parts of the direct sums,
whose complements were coordinate ones, and every complex and CLI digest
stayed the same.
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
        "e8d3e2b22c0db37671ec93180d1b87606aca1e609ad71c7f6724f5c7297c0ecb",
    ),
    "T(7), ell 3": (
        lambda: tilting_module(CycloField(3), 7),
        "1000bb2c29bec79c56e64e650c4866b8e389e374db7f4e9c4e40b0e46f6727c1",
    ),
    "T(6), ell 5": (
        lambda: tilting_module(CycloField(5), 6),
        "46074c82a014236f4d90ba7887e48bc70cd69aeda52978d467653a09f7bcff7e",
    ),
    "T(8), ell 7": (
        lambda: tilting_module(CycloField(7), 8),
        "e24c53bdaa8b3d086faf49de4239a0344be6ea24377854cc03adbabad4184f20",
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
        "62e1fe7b0d31b95ec021bbae8ee365fa5f6f426418d6355a71d9cd4e8c8c99ae",
    ),
    "rescaled T(6), ell 5": (
        lambda: _rescaled_tilting(5, 6),
        "c3fd6ea18a73cd457f7fdaeb06faf28a5e68f879d368a122343d8f6baf0e35b7",
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
        "4e974e684b8757024e3a0a437b8b8f4326d24525039786985cc9de0a06cb57e8",
    ),
    "T(5) + T(3) + T(3), ell 3": (
        lambda: direct_sum(_tilting(3, 5), _tilting(3, 3), _tilting(3, 3)),
        "a5d6b6d9990859cecab21e0933eafec175fa455be98f8afb25d756b5f0647dac",
    ),
    "T(2) x T(1), ell 3": (
        lambda: tensor_module(_tilting(3, 2), _tilting(3, 1)),
        "98a374456d905fde8315a0f40fa02d14b7dd873661c32adc8292faf80875fa87",
    ),
    "T(3) x T(3), ell 3": (
        lambda: tensor_module(_tilting(3, 3), _tilting(3, 3)),
        "ee2e4657a22394a672fc8d1a251ae4e4b179929a99697792b5e807105e402b5f",
    ),
    "T(4) x T(2), ell 5": (
        lambda: tensor_module(_tilting(5, 4), _tilting(5, 2)),
        "cb1d991362bcbd14a16b296ab5c7927a52c3a43a2016757269313e727d2830b2",
    ),
    "T(6) + T(2), ell 5": (
        lambda: direct_sum(_tilting(5, 6), _tilting(5, 2)),
        "8962a1d0715fe89f4acbc31369fa9f024d6db73a72e4c654117f305a50ffa5f1",
    ),
    "T(8), ell 7": (
        lambda: _tilting(7, 8),
        "359802b82c693d99c65142c419e7588b2fb319e78836a92c8cecd49f905be188",
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
        "f025df9f93b24b9f31767f0f500753607a8ba6dfbb753689307fd96309589561",
        "b03c8e7a2879b9daa417f3722fed311933ccc506b3e767cf4e2db6102428d6e6",
    ),
    "Delta(6), ell 3": (
        lambda: weyl_module(CycloField(3), 6),
        "871b0c9469a44de3871b73a24b40c937e07e77f17835a0e6219fe978c8f0b3e5",
        "871b0c9469a44de3871b73a24b40c937e07e77f17835a0e6219fe978c8f0b3e5",
    ),
    "L(7), ell 5": (
        lambda: simple_module(CycloField(5), 7),
        "381f56f1c6d5f4c6aa7658375745a8f0477bdde15a10330399cf985d0a16a636",
        "613fc99a22141b8cb35217aebd8f879d6cee0b90d829715d72d3f93ba22af4fb",
    ),
    "Delta(3) + L(3), ell 3": (
        lambda: direct_sum(weyl_module(CycloField(3), 3), simple_module(CycloField(3), 3)),
        "cacc0933049497a58357abdbcf559ddd36f0ba47c1c38ed51dca27f19882a2bf",
        "77665387ca6d652a166ae8734cc667b01362a9e5c9a8e8bc42a0fff392b9b7f1",
    ),
    # five columns, joined by the projection onto the tail's cover and
    # three corrections down the tail's resolution
    "L(12), ell 3": (
        lambda: simple_module(CycloField(3), 12),
        "3f897bd3ba21c6b6205f63c770013deb70b4f31eca50483aacd088cc99cd2bef",
        "5774965dfb728903d99145a16e8a39ad85ffbf2d055957d053abaa8d0da4f0b3",
    ),
    # three columns and one correction
    "L(10), ell 5": (
        lambda: simple_module(CycloField(5), 10),
        "5c06a001d7727f61d6ed631aa2fd6b310173a9d4307bfb143ec6dbb5a829ecd8",
        "7f79e01f359549d0e39a0743ca538995f635ca76d4eb0a0fb23463492b8aa7f9",
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
    assert content_hash(data) == "d8506fc15bf961f4b5b16f50175796138be03c2f75c92ab85331ca31a36726bd"


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
        ["verify", "--suite", "lemmas", "--ell", "3", "--budget", "25", "--seed", "7"],
        "2e7e766dda6ddf59a4385bf1b070b317810f1715841f36dd56bb2662b5fa3e06",
    ),
    "verify two-out-of-three ell 3 seed 1": (
        ["verify", "--suite", "two-out-of-three", "--ell", "3", "--window", "12", "--budget", "20", "--seed", "1"],
        "46dc9d5215020c49f2136214cbc22a1452bb4ed28234f76762b57b85426d95b1",
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

"""Pinned module fingerprints.

The disk cache is keyed by module_fingerprint, the SHA-256 of a module's
canonical JSON, in which every scalar coefficient is printed as 'a/b' or 'a'.
Any drift in how a coefficient prints, or in the constructions behind these
modules, would silently orphan every cached entry; these digests make it fail.
"""

import pytest

from tiltlab.cyclotomic import CycloField
from tiltlab.linalg import ExactMatrix
from tiltlab.modules import (
    UModule,
    check_relations,
    quotient_module,
    submodule_generated,
    tensor_module,
)
from tiltlab.serialize import canonical_dumps, module_fingerprint, module_to_json
from tiltlab.standard import simple_module, tilting_module, weyl_module


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
        P.data[i][i] = F.scalar(2**i) + (F.zeta if i % 2 else F.zero)
    P_inv = P.inverse()
    mats = [P_inv @ X @ P for X in (M.K, M.E, M.F, M.El, M.Fl)]
    return UModule(F, M.weights, *mats)


CASES = {
    "T(4), ell 3": (
        lambda: tilting_module(CycloField(3), 4),
        "2f73e30e5994ffcd55adc06675a47d39ae7c632ce21a668b2874b39283a2649d",
    ),
    "T(7), ell 3": (
        lambda: tilting_module(CycloField(3), 7),
        "f03baa717b214b6fa3cd36f25b8bd224aa32f7b0f67370526ce4cd247f349711",
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

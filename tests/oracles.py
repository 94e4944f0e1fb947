"""Test oracles shared by several test files.

Production code never needs these checks: `minimalize` stops only when no
block is cancellable, and the pipeline certifies injectivity and
surjectivity through its own exact invariants.
"""

from tiltlab.complexes import ChainComplex, _find_cancellable, _part_blocks
from tiltlab.modules import tensor_module
from tiltlab.standard import _extract_top_summand, tilting_module, weyl_module

_peeled_tilting_cache = {}


def is_minimal(X: ChainComplex) -> bool:
    """No differential block between equal indecomposable summands is
    invertible."""
    X.ensure_parts(tilting_only=False)
    parts = {i: [(p.label, p.module) for p in X.parts[i]] for i in X.degrees()}
    return _find_cancellable(parts, _part_blocks(X)) is None


def is_injective(phi) -> bool:
    return phi.matrix.rank() == phi.source.dim


def is_surjective(phi) -> bool:
    return phi.matrix.rank() == phi.target.dim


def peeled_tilting_module(field, n):
    """T(n) by tensor-and-peel at every n: the summand of T(n-1) (x) Delta(1)
    at weight n, independent of Donkin's tensor product theorem above
    2ell-2 (below it, this is how `tilting_module` builds T(n))."""
    if n <= 2 * field.ell - 2:
        return tilting_module(field, n)
    key = (field.ell, n)
    if key not in _peeled_tilting_cache:
        big = tensor_module(peeled_tilting_module(field, n - 1), weyl_module(field, 1))
        _peeled_tilting_cache[key] = _extract_top_summand(big, n)
    return _peeled_tilting_cache[key]

"""Test oracles shared by several test files.

Production code never needs these checks: `minimalize` stops only when no
block is cancellable, and the pipeline certifies injectivity and
surjectivity through its own exact invariants.
"""

from tiltlab.complexes import ChainComplex, _find_cancellable, _part_blocks


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

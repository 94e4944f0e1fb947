"""Canonical JSON forms and content addressing.

Scalars are serialized as lists of 'a/b' strings (one per coefficient of the
power basis of Q(zeta_ell)); matrices row-major.  The SHA-256 of the canonical
encoding is used as a cache key.
"""

from __future__ import annotations

import hashlib
import json


def scalar_to_json(s):
    return s.as_strings()


def scalar_from_json(field, data):
    return field.from_coeffs(data)


def matrix_to_json(m):
    """Every entry, zeros included, row-major."""
    zero = scalar_to_json(m.field.zero)
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [scalar_to_json(row[j]) if j in row else list(zero)
                    for row in m.entries for j in range(m.cols)],
    }


def matrix_from_json(field, data):
    from tiltlab.linalg import ExactMatrix

    m = ExactMatrix(field, data["rows"], data["cols"])
    if len(data["entries"]) != m.rows * m.cols:
        raise ValueError(f"{len(data['entries'])} entries for a {m.rows} x {m.cols} matrix")
    it = iter(data["entries"])
    for i in range(m.rows):
        for j in range(m.cols):
            m[i, j] = scalar_from_json(field, next(it))
    return m


def module_to_json(M):
    return {
        "ell": M.field.ell,
        "dim": M.dim,
        "weights": list(M.weights),
        "K": matrix_to_json(M.K),
        "E": matrix_to_json(M.E),
        "F": matrix_to_json(M.F),
        "El": matrix_to_json(M.El),
        "Fl": matrix_to_json(M.Fl),
    }


def module_from_json(data):
    """The module stored by module_to_json; raises ValueError unless the
    stored K is zeta^weight on the diagonal, since K is read off the weights."""
    from tiltlab.cyclotomic import CycloField
    from tiltlab.modules import UModule

    field = CycloField(data["ell"])
    M = UModule(
        field,
        tuple(data["weights"]),
        *(matrix_from_json(field, data[name]) for name in ("E", "F", "El", "Fl")),
    )
    if matrix_from_json(field, data["K"]) != M.K:
        raise ValueError("stored K is not zeta^weight on the diagonal")
    return M


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()


def module_fingerprint(M) -> str:
    return content_hash(module_to_json(M))


def complex_to_json(X):
    """Degree range plus per-degree label multisets and block differentials."""
    out = {"ell": X.field.ell, "terms": {}, "differentials": {}}
    for i in sorted(X.terms):
        out["terms"][str(i)] = sorted(
            [list(lab) if isinstance(lab, tuple) else lab for lab in X.labels(i)]
        )
    for i in sorted(X.differentials):
        out["differentials"][str(i)] = matrix_to_json(X.differentials[i].matrix)
    return out

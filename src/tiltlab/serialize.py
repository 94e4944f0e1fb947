"""Canonical JSON forms and content addressing.

Scalars are serialized as lists of 'a/b' strings (one per coefficient of the
power basis of Q(zeta_ell)); matrices row-major with every entry, zeros
included.  A module's canonical text is written by `module_text`, which
visits only the nonzero entries: the text of a run of zeros is one repeated
piece, each distinct scalar's text is memoized per field, and K's diagonal
is read off the weights.  The SHA-256 of that text is the module's cache key.
"""

from __future__ import annotations

import hashlib
import json

_scalar_texts: dict = {}  # field -> {(num, den): canonical JSON text}


def scalar_from_json(field, data):
    return field.from_coeffs(data)


def matrix_from_json(field, data):
    """The matrix of the row-major JSON; each distinct entry text is parsed
    once, and no zero entry is stored."""
    from tiltlab.linalg import ExactMatrix

    rows, cols, entries = data["rows"], data["cols"], data["entries"]
    if len(entries) != rows * cols:
        raise ValueError(f"{len(entries)} entries for a {rows} x {cols} matrix")
    parsed = {}  # entry text -> its scalar, or None for zero
    out = [{} for _ in range(rows)]
    for index, entry in enumerate(entries):
        key = tuple(entry)
        if key in parsed:
            value = parsed[key]
        else:
            value = scalar_from_json(field, key)
            value = parsed[key] = None if value.is_zero() else value
        if value is not None:
            out[index // cols][index % cols] = value
    return ExactMatrix(field, rows, cols, out)


def module_from_json(data):
    """The module stored by `module_text`; raises ValueError unless the
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


def _scalar_text(field):
    """The memoized canonical text of a scalar of field."""
    memo = _scalar_texts.setdefault(field, {})

    def text(s):
        key = (s.num, s.den)
        out = memo.get(key)
        if out is None:
            out = memo[key] = canonical_dumps(s.as_strings())
        return out

    return text


def _matrix_text(m, scalar_text, zero):
    """canonical_dumps of the row-major JSON of m, every zero included."""
    pieces = []
    last = -1  # flat index of the last entry written
    cols = m.cols
    for i, row in enumerate(m.entries):
        base = i * cols
        for j in sorted(row):
            pieces.append(zero * (base + j - last - 1))
            pieces.append("," + scalar_text(row[j]))
            last = base + j
    pieces.append(zero * (m.rows * cols - last - 1))
    entries = "".join(pieces)[1:]  # no comma before the first entry
    return f'{{"cols":{cols},"entries":[{entries}],"rows":{m.rows}}}'


def module_text(M) -> str:
    """canonical_dumps of the module's JSON: its ell, dimension, weights,
    the generators E, F, E^(l), F^(l) and K = zeta^weight on the diagonal."""
    field = M.field
    scalar_text = _scalar_text(field)
    zero = "," + scalar_text(field.zero)  # one zero entry, preceded by a comma
    E, El, F, Fl = (_matrix_text(m, scalar_text, zero) for m in (M.E, M.El, M.F, M.Fl))
    d = M.dim
    diagonal = (zero * d + ",").join(scalar_text(field.zeta_power(w)) for w in M.weights)
    K = f'{{"cols":{d},"entries":[{diagonal}],"rows":{d}}}'
    weights = ",".join(map(str, M.weights))
    return (f'{{"E":{E},"El":{El},"F":{F},"Fl":{Fl},"K":{K},'
            f'"dim":{d},"ell":{field.ell},"weights":[{weights}]}}')


def module_fingerprint(M) -> str:
    return hashlib.sha256(module_text(M).encode()).hexdigest()

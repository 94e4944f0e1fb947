"""Bounded chain complexes of U-modules.

Cohomology, direct sums and tensor products of complexes with the usual sign,
totalization of modules placed on a grid, and minimalization by Gaussian
elimination on differential blocks between indecomposable summands.
"""

from __future__ import annotations

from tiltlab.cyclotomic import CertificationError
from tiltlab.linalg import ExactMatrix
from tiltlab.modules import (
    UModule,
    UMorphism,
    _first_bad_column,
    direct_sum,
    kernel_module,
    quotient_module,
    tensor_module,
)
from tiltlab.standard import Part, decompose_indecomposables


def labeled_direct_sum(field, labeled_modules):
    """Direct sum with coordinate inclusion/projection witnesses per part."""
    S = direct_sum(*(m for _, m in labeled_modules))
    total = S.dim
    parts = []
    offset = 0
    for label, m in labeled_modules:
        incl = ExactMatrix.from_columns(field, [{offset + i: field.one} for i in range(m.dim)], total)
        proj = ExactMatrix(field, m.dim, total, [{offset + i: field.one} for i in range(m.dim)])
        parts.append(Part(label, m, UMorphism(m, S, incl), UMorphism(S, m, proj)))
        offset += m.dim
    return S, parts


class ChainComplex:
    """Cohomologically graded: differentials raise degree by one."""

    def __init__(self, field, terms: dict, differentials: dict, parts: dict | None = None,
                 labels: dict | None = None):
        """parts[i] lists the indecomposable summands of term i with their
        witnesses; labels[i], for a term without parts, is the multiset
        {label: multiplicity} of its summands, which ensure_parts then
        splits off."""
        self.field = field
        self.terms = {i: t for i, t in terms.items() if t.dim > 0}
        self.differentials = {}
        for i, d in differentials.items():
            if i in self.terms and (i + 1) in self.terms and not d.matrix.is_zero():
                self.differentials[i] = d
        self.parts = {}
        if parts:
            for i, ps in parts.items():
                if i in self.terms:
                    self.parts[i] = list(ps)
        self._labels = {}
        if labels:
            for i, mults in labels.items():
                if i in self.terms and i not in self.parts:
                    self._labels[i] = sorted(lab for lab, m in mults.items() for _ in range(m))

    @classmethod
    def single(cls, M: UModule, degree: int = 0, label=None):
        if M.dim == 0:
            return cls(M.field, {}, {})
        parts = None
        if label is not None:
            parts = {degree: [Part(label, M, UMorphism.identity(M), UMorphism.identity(M))]}
        return cls(M.field, {degree: M}, {}, parts)

    @classmethod
    def zero(cls, field):
        return cls(field, {}, {})

    def term(self, i) -> UModule:
        t = self.terms.get(i)
        if t is None:
            return UModule.zero_module(self.field)
        return t

    def differential(self, i) -> UMorphism:
        d = self.differentials.get(i)
        if d is None:
            return UMorphism.zero(self.term(i), self.term(i + 1))
        return d

    def degrees(self):
        return sorted(self.terms)

    @property
    def min_degree(self):
        return min(self.terms) if self.terms else 0

    @property
    def max_degree(self):
        return max(self.terms) if self.terms else 0

    def is_zero(self):
        return not self.terms

    def check(self):
        """d o d = 0 exactly, and differentials match the terms."""
        for i, d in self.differentials.items():
            if d.source is not self.terms.get(i) or d.target is not self.terms.get(i + 1):
                raise ValueError(f"differential at degree {i} mismatched with terms")
        for i in self.differentials:
            if (i + 1) in self.differentials:
                comp = self.differentials[i + 1].compose(self.differentials[i])
                if not comp.is_zero():
                    raise ValueError(f"d^2 != 0 between degrees {i} and {i + 2}")
        return True

    def labels(self, i):
        """Multiset of summand labels in degree i (sorted list)."""
        if i not in self.terms:
            return []
        if i in self.parts:
            return sorted(p.label for p in self.parts[i])
        if i in self._labels:
            return list(self._labels[i])
        raise ValueError(f"no decomposition stored for degree {i}")

    def tilting_label_table(self):
        """degree -> ascending list of n for terms that are sums of T(n)."""
        out = {}
        for i in self.degrees():
            row = []
            for lab in self.labels(i):
                if not (isinstance(lab, tuple) and lab[0] == "T"):
                    raise ValueError(f"non-tilting label {lab} in degree {i}")
                row.append(lab[1])
            out[i] = sorted(row)
        return out

    def ensure_parts(self):
        for i, t in self.terms.items():
            if i not in self.parts:
                self.parts[i] = decompose_indecomposables(t)
        return self

    def euler_character(self):
        from tiltlab.characters import Character

        acc = Character()
        for i, t in self.terms.items():
            ch = t.character
            if i % 2:
                acc = acc - ch
            else:
                acc = acc + ch
        return acc

    def cohomology(self) -> dict:
        """degree -> cohomology UModule (nonzero ones only)."""
        out = {}
        for i in self.degrees():
            h = self.cohomology_at(i)
            if h.dim:
                out[i] = h
        return out

    def cohomology_at(self, i: int) -> UModule:
        t = self.terms.get(i)
        if t is None:
            return UModule.zero_module(self.field)
        if i in self.differentials:
            ker, kincl = kernel_module(self.differentials[i])
        else:
            ker, kincl = t, UMorphism.identity(t)
        din = self.differentials.get(i - 1)
        if din is None or din.matrix.is_zero():
            return ker
        # write the incoming differential into the kernel and take its cokernel
        sol = kincl.matrix.solve(din.matrix)
        if sol is None:
            raise CertificationError("image does not land in the kernel; not a complex")
        q, _ = quotient_module(ker, UMorphism(din.source, ker, sol))
        return q

    def __repr__(self):
        rng = ", ".join(f"{i}:{t.dim}" for i, t in sorted(self.terms.items()))
        return f"ChainComplex({{{rng}}})"


def tensor_complexes(X: ChainComplex, Y: ChainComplex) -> ChainComplex:
    """Tensor product complex: (X (x) Y)_i = sum over j+k=i of X_j (x) Y_k,
    with differential d_j (x) id + (-1)^j id (x) d'_k on the (j, k) block."""
    field = X.field
    grid = {}
    for j, xt in X.terms.items():
        for k, yt in Y.terms.items():
            grid[(j, k)] = tensor_module(xt, yt)
    components = {}
    for j, k in grid:
        dX = X.differentials.get(j)
        if dX is not None and (j + 1, k) in grid:
            idY = ExactMatrix.identity(field, Y.terms[k].dim)
            components[((j, k), (j + 1, k))] = dX.matrix.kron(idY)
        dY = Y.differentials.get(k)
        if dY is not None and (j, k + 1) in grid:
            idX = ExactMatrix.identity(field, X.terms[j].dim)
            block = idX.kron(dY.matrix)
            components[((j, k), (j, k + 1))] = -block if j % 2 else block
    return total_complex(field, grid, components)


def _place(out: ExactMatrix, block: ExactMatrix, row: int, col: int):
    """Write block into a zero region of out with its top left corner at
    (row, col)."""
    for orow, brow in zip(out.entries[row:row + block.rows], block.entries):
        orow.update((col + j, v) for j, v in brow.items())


def total_complex(field, grid: dict, components: dict, parts: dict | None = None) -> ChainComplex:
    """Totalize modules placed at grid positions (a, b) of degree a + b.

    components[(src, tgt)] is the matrix of the component grid[src] ->
    grid[tgt] of the differential, signs included; tgt has degree one above
    src.  In each degree the positions are summed in increasing order of a.
    parts[pos] optionally lists the indecomposable summands of grid[pos]; a
    degree gets parts when all of its positions have them.  Raises
    ValueError naming the grid position from which d^2 is not zero.
    """
    layout = {}  # degree -> its nonzero positions in increasing order
    for pos in sorted(grid):
        if grid[pos].dim:
            layout.setdefault(sum(pos), []).append(pos)
    offset = {}
    for row in layout.values():
        o = 0
        for pos in row:
            offset[pos] = o
            o += grid[pos].dim
    terms = {n: direct_sum(*(grid[p] for p in row)) for n, row in layout.items()}
    diffs = {}
    for (src, tgt), mat in components.items():
        if src not in offset or tgt not in offset:
            continue
        n = sum(src)
        if sum(tgt) != n + 1:
            raise ValueError(f"component {src} -> {tgt} does not raise the degree by one")
        if mat.shape != (grid[tgt].dim, grid[src].dim):
            raise ValueError(f"component {src} -> {tgt} has shape {mat.shape}")
        if n not in diffs:
            diffs[n] = ExactMatrix(field, terms[n + 1].dim, terms[n].dim)
        _place(diffs[n], mat, offset[tgt], offset[src])
    for n in sorted(diffs):
        if n + 1 in diffs:
            bad = _first_bad_column(diffs[n + 1] @ diffs[n])
            if bad is not None:
                pos = max(p for p in layout[n] if offset[p] <= bad)
                raise ValueError(f"d^2 != 0 on the component from grid position {pos}")
    total_parts = {}
    for n, row in layout.items():
        if parts is None or any(p not in parts for p in row):
            continue
        total = terms[n]
        total_parts[n] = []
        for p in row:
            for q in parts[p]:
                incl = ExactMatrix(field, total.dim, q.module.dim)
                _place(incl, q.inclusion.matrix, offset[p], 0)
                proj = ExactMatrix(field, q.module.dim, total.dim)
                _place(proj, q.projection.matrix, 0, offset[p])
                total_parts[n].append(
                    Part(q.label, q.module, UMorphism(q.module, total, incl),
                         UMorphism(total, q.module, proj))
                )
    morphisms = {n: UMorphism(terms[n], terms[n + 1], d) for n, d in diffs.items()}
    return ChainComplex(field, terms, morphisms, total_parts)


# ---------------------------------------------------------------------------
# minimalization


class MinimalizationResult:
    """The minimal complex produced by minimalize."""

    def __init__(self, complex_):
        self.complex = complex_


def minimalize(X: ChainComplex) -> MinimalizationResult:
    """Cancel invertible differential blocks until none remain.

    Terms without a stored decomposition are split into tilting summands.
    Scans lowest degree first, then lexicographic block order; a block
    A -> B between summands with equal labels is cancelled when its
    determinant is nonzero (the endomorphism rings are local).
    """
    field = X.field
    X.ensure_parts()
    degs = X.degrees()
    parts = {i: [(p.label, p.module) for p in X.parts[i]] for i in degs}
    blocks = _part_blocks(X)
    while True:
        hit = _find_cancellable(parts, blocks)
        if hit is None:
            break
        i, a, b = hit
        phi_inv = blocks[i][b][a].inverse()
        # for x != a, y != b: d[y][x] -= d[y][a] phi^-1 d[b][x]
        blocks[i] = [
            [
                blocks[i][y][x] - blocks[i][y][a] @ phi_inv @ blocks[i][b][x]
                for x in range(len(parts[i]))
                if x != a
            ]
            for y in range(len(parts[i + 1]))
            if y != b
        ]
        parts[i] = [p for x, p in enumerate(parts[i]) if x != a]
        parts[i + 1] = [p for y, p in enumerate(parts[i + 1]) if y != b]
        if (i - 1) in blocks:
            blocks[i - 1] = [row for y, row in enumerate(blocks[i - 1]) if y != a]
        if (i + 1) in blocks:
            blocks[i + 1] = [[blk for x, blk in enumerate(row) if x != b] for row in blocks[i + 1]]

    # rebuild the complex from the surviving parts
    terms = {}
    partrecs = {}
    for i in degs:
        if parts[i]:
            terms[i], partrecs[i] = labeled_direct_sum(field, parts[i])
    diffs = {}
    for i in degs:
        if i in blocks and parts.get(i) and parts.get(i + 1):
            mat = ExactMatrix(field, terms[i + 1].dim, terms[i].dim)
            offs_i = _offsets(parts[i])
            offs_i1 = _offsets(parts[i + 1])
            for y, row in enumerate(blocks[i]):
                for x, blk in enumerate(row):
                    _place(mat, blk, offs_i1[y], offs_i[x])
            diffs[i] = UMorphism(terms[i], terms[i + 1], mat)
    return MinimalizationResult(ChainComplex(field, terms, diffs, partrecs))


def _offsets(partlist):
    offs = []
    o = 0
    for _, m in partlist:
        offs.append(o)
        o += m.dim
    return offs


def _part_blocks(X: ChainComplex):
    """degree -> [target part][source part] blocks of the differential."""
    blocks = {}
    for i, d in X.differentials.items():
        blocks[i] = [
            [pb.projection.matrix @ d.matrix @ pa.inclusion.matrix for pa in X.parts[i]]
            for pb in X.parts[i + 1]
        ]
    return blocks


def _find_cancellable(parts, blocks):
    for i in sorted(blocks):
        if not parts.get(i) or not parts.get(i + 1):
            continue
        for b in range(len(parts[i + 1])):
            for a in range(len(parts[i])):
                la, ma = parts[i][a]
                lb, mb = parts[i + 1][b]
                if la != lb or ma.dim != mb.dim or ma.dim == 0:
                    continue
                blk = blocks[i][b][a]
                if not blk.determinant().is_zero():
                    return (i, a, b)
    return None

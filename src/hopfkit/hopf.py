"""Structure-constant Hopf algebras, axiom verification, standard
constructors, module actions and convolution inverses.

Every carrier is finite-dimensional with exact scalars.  Identities are
verified by sweeping all basis tuples, which suffices by multilinearity;
failed sweeps report the lexicographically first failing tuple together
with both evaluated sides.  Every element-level sweep in the package goes
through :func:`first_witness`; every check that a map is a coalgebra map
goes through :func:`coalgebra_map_failures`, and the middle-flip
coalgebra of H ⊗ K is built once, by :func:`tensor_coalgebra`.  Sweedler
sums of maps are built by two kernels that take the coproduct as a
``LinearOp`` (``h.comul`` or a middle-flip one): :func:`convolution`,
x ↦ Σ m(f(x_(1)) ⊗ g(x_(2))), and :func:`twisted_product`,
x ⊗ y ↦ Σ outer(f(x_(1)) ⊗ inner(g(x_(2)) ⊗ y)).  The
:func:`verify_hopf` sweeps run on the int columns of
:func:`~hopfkit.linalg.scaled_columns` and compare the two sides in ints
(modulo p over F_p); only the first failing tuple is evaluated as
elements, to render its witness.

Sweedler conventions: the coproduct is stored once, as the columns of
``h.comul``.  A two-leg sum reads column x and splits each flat index p
into the legs ``divmod(p, dim)``; longer sums take a per-call
:func:`leg_table`, whose iterates split the leftmost leg, i.e.
Δ²(x) = (Δ ⊗ id)Δ(x) = x_(1) ⊗ x_(2) ⊗ x_(3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (ConstructionInvalid, DimensionMismatch,
                     InternalTheoremViolation, NotCocommutative,
                     NotConvolutionInvertible, UnvalidatedInput)
from .linalg import (BasedSpace, Element, Field, LinearOp, QQ, _sum_mod,
                     _sum_ratio, accumulate, flip_tensor, scaled_columns,
                     tensor_elem, tensor_index, tensor_space, tensor_split,
                     rank)
from .report import AxiomReport, Witness

if TYPE_CHECKING:
    from .groups import FiniteGroup


def scalar_space(field: Field) -> BasedSpace:
    """The ground field as a one-dimensional based space."""
    return BasedSpace(("1",), field)


def apply2(op: LinearOp, x: Element, y: Element) -> Element:
    """Apply a map defined on a tensor-square domain to x ⊗ y without
    materializing the tensor element.

    One basis vector on each side whose coefficients multiply to exactly 1
    gives the map's own column object.  Any other product goes through the
    summation loop of :func:`~hopfkit.linalg.accumulate`: over Q as the
    int pair ``(cx.numerator * cy.numerator, cx.denominator *
    cy.denominator)``, without building a ``Fraction``; over F_p as the
    unreduced int ``cx * cy``, reduced modulo p with the sum."""
    xc, yc = x.coeffs, y.coeffs
    dim_y = y.space.dim
    cols = op.columns
    if len(xc) == 1 and len(yc) == 1:
        for i, cx in xc.items():
            for j, cy in yc.items():
                if cx * cy == 1:
                    return cols[i * dim_y + j]
    if op.codomain.field.p:
        return _sum_mod(op.codomain, ((cx * cy, cols[i * dim_y + j])
                                      for i, cx in xc.items()
                                      for j, cy in yc.items()))
    return _sum_ratio(op.codomain,
                      ((cx.numerator * cy.numerator,
                        cx.denominator * cy.denominator, cols[i * dim_y + j])
                       for i, cx in xc.items() for j, cy in yc.items()))


@dataclass(eq=False)
class HopfAlgebraData:
    """A Hopf algebra as sparse structure constants.

    ``validated`` is stamped by :func:`verify_hopf`; consumers that state
    a validated precondition refuse unvalidated data.
    """

    space: BasedSpace
    mul: LinearOp          # H ⊗ H -> H
    unit: Element
    comul: LinearOp        # H -> H ⊗ H
    counit: LinearOp       # H -> k
    antipode: LinearOp     # H -> H
    validated: bool = False

    def __post_init__(self):
        hh = tensor_space(self.space, self.space)
        if self.mul.domain != hh or self.mul.codomain != self.space:
            raise DimensionMismatch("mul must map H⊗H to H")
        if self.comul.domain != self.space or self.comul.codomain != hh:
            raise DimensionMismatch("comul must map H to H⊗H")
        if self.counit.domain != self.space or self.counit.codomain.dim != 1:
            raise DimensionMismatch("counit must map H to the ground field")
        if self.antipode.domain != self.space or self.antipode.codomain != self.space:
            raise DimensionMismatch("antipode must map H to H")
        if self.unit.space != self.space:
            raise DimensionMismatch("unit must live in H")
        self.hh = hh
        self._basis = [self.space.basis(i) for i in range(self.space.dim)]
        self._eps = [self.counit.columns[i].coefficient(0)
                     for i in range(self.space.dim)]

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def field(self) -> Field:
        return self.space.field

    def basis(self, i: int) -> Element:
        return self._basis[i]

    def label(self, i: int):
        return self.space.labels[i]

    def mul_basis(self, i: int, j: int) -> Element:
        return self.mul.columns[tensor_index(i, j, self.dim)]

    def product(self, x: Element, y: Element) -> Element:
        return apply2(self.mul, x, y)

    def product_many(self, elems) -> Element:
        elems = list(elems)
        out = elems[0]
        for e in elems[1:]:
            out = self.product(out, e)
        return out

    def counit_scalar(self, x: Element):
        field = self.field
        total = field.zero
        for i, c in x.coeffs.items():
            total = field.add(total, field.mul(c, self._eps[i]))
        return total

    def require_validated(self):
        if not self.validated:
            raise UnvalidatedInput("carrier was never stamped by verify_hopf")

    def structure_equal(self, other: "HopfAlgebraData") -> bool:
        """Bit-exact equality of all structure constants."""
        return (self.space == other.space and self.mul == other.mul
                and self.unit == other.unit and self.comul == other.comul
                and self.counit == other.counit
                and self.antipode == other.antipode)


def leg_table(h: HopfAlgebraData, legs: int) -> list[list]:
    """Entry i: the terms (coefficient, index tuple) of the iterated
    coproduct of e_i with ``legs`` legs, collected and sorted by index
    tuple.  Each pass splits the first leg through the Δ columns.  Callers
    build the table once per call and drop it."""
    dim, field = h.dim, h.field
    table = [[(field.one, (i,))] for i in range(dim)]
    for _ in range(legs - 1):
        nxt = []
        for terms in table:
            collected: dict = {}
            for coeff, idxs in terms:
                for p, c in h.comul.columns[idxs[0]].coeffs.items():
                    key = divmod(p, dim) + idxs[1:]
                    collected[key] = field.add(collected.get(key, field.zero),
                                               field.mul(coeff, c))
            nxt.append([(c, k) for k, c in sorted(collected.items()) if c != 0])
        table = nxt
    return table


def first_witness(spaces, sides) -> Witness | None:
    """The lexicographically first basis tuple ``at``, one index per based
    space in ``spaces``, where ``lhs, rhs = sides(*at)`` differ, as a
    Witness with both sides rendered; None when they agree everywhere."""
    for at in itertools.product(*(range(s.dim) for s in spaces)):
        lhs, rhs = sides(*at)
        if lhs != rhs:
            return Witness(tuple(s.labels[i] for s, i in zip(spaces, at)),
                           str(lhs), str(rhs))
    return None


def _witness(h: HopfAlgebraData, at: tuple[int, ...], lhs, rhs) -> Witness:
    labels = tuple(h.label(i) for i in at)
    return Witness(labels, str(lhs), str(rhs))


def _nonzero(diff: dict, p: int) -> bool:
    """Whether a scaled difference has a nonzero entry, modulo p over F_p."""
    return any(v % p if p else v for v in diff.values())


def _associativity_failure(dim: int, p: int,
                           mul: list) -> tuple[int, int, int] | None:
    """The lexicographically first basis triple (i, j, k) with
    (e_i e_j) e_k != e_i (e_j e_k), or None when the product is associative.

    ``mul`` holds the scaled int columns of the product.  When every column
    holds exactly one term with coefficient one, ``mul`` is an index table
    ``tab`` and both sides are single basis vectors (with the same factor),
    so comparing ``tab[tab[ij]k]`` with ``tab[i tab[jk]]`` as ints is exact.
    Otherwise both sides, which carry the same scale, are summed into one
    difference.
    """
    if all(len(col) == 1 and col[0][1] == 1 for col in mul):
        tab = [col[0][0] for col in mul]
        for i in range(dim):
            row_i = tab[i * dim:(i + 1) * dim]
            for j in range(dim):
                ij = tab[i * dim + j] * dim
                lhs = tab[ij:ij + dim]
                rhs = [row_i[a] for a in tab[j * dim:(j + 1) * dim]]
                if lhs != rhs:
                    return i, j, next(k for k in range(dim) if lhs[k] != rhs[k])
        return None
    for i in range(dim):
        row_i = mul[i * dim:(i + 1) * dim]
        for j in range(dim):
            left = mul[i * dim + j]
            for k in range(dim):
                diff: dict = {}
                for a, c in left:
                    for b, d in mul[a * dim + k]:
                        diff[b] = diff.get(b, 0) + c * d
                for a, c in mul[j * dim + k]:
                    for b, d in row_i[a]:
                        diff[b] = diff.get(b, 0) - c * d
                if _nonzero(diff, p):
                    return i, j, k
    return None


def verify_hopf(h: HopfAlgebraData) -> AxiomReport:
    """Check every Hopf axiom on all basis tuples; stamp ``validated``.

    Report lines: associativity, unit, coassociativity, counit,
    bialgebra-compatibility (Δ and ε are algebra maps), antipode.

    Every sweep runs on the int columns of :func:`scaled_columns`.  Per
    basis tuple each comparison sums ``lhs·s_r − rhs·s_l`` into an int
    dict, where ``s_l`` and ``s_r`` are the common denominators the two
    sides carry, and tests it for zero (modulo p over F_p).  Tuples are
    visited in lexicographic order; only the first failing one is
    evaluated as elements, to render its witness with both sides (for the
    one-element sweeps, the side that failed).
    """
    report = AxiomReport()
    dim = h.dim
    p = h.field.p
    dm, mul = scaled_columns(h.mul)
    dc, comul = scaled_columns(h.comul)
    ds, anti = scaled_columns(h.antipode)
    de, eps_cols = scaled_columns(h.counit)
    eps = [col[0][1] if col else 0 for col in eps_cols]
    du, (unit,) = scaled_columns(LinearOp(scalar_space(h.field), h.space,
                                          [h.unit]))

    w = None
    at = _associativity_failure(dim, p, mul)
    if at is not None:
        i, j, k = at
        w = _witness(h, at, h.product(h.mul_basis(i, j), h.basis(k)),
                     h.product(h.basis(i), h.mul_basis(j, k)))
    report.add("associativity", w)

    # 1·e_i and e_i·1 carry du·dm.
    w = None
    for i in range(dim):
        left = {i: -du * dm}
        right = {i: -du * dm}
        for a, u in unit:
            for b, c in mul[a * dim + i]:
                left[b] = left.get(b, 0) + u * c
            for b, c in mul[i * dim + a]:
                right[b] = right.get(b, 0) + u * c
        if _nonzero(left, p) or _nonzero(right, p):
            e = h.basis(i)
            side = (h.product(h.unit, e) if _nonzero(left, p)
                    else h.product(e, h.unit))
            w = _witness(h, (i,), side, e)
            break
    report.add("unit", w)

    # Both iterated coproducts carry dc², indexed flat in H⊗H⊗H.
    w = None
    for i in range(dim):
        diff: dict = {}
        for pair, c in comul[i]:
            a, b = divmod(pair, dim)
            for sub, c2 in comul[a]:
                key = sub * dim + b
                diff[key] = diff.get(key, 0) + c * c2
            base = a * dim * dim
            for sub, c2 in comul[b]:
                key = base + sub
                diff[key] = diff.get(key, 0) - c * c2
        if _nonzero(diff, p):
            w = _witness(h, (i,), "(Δ⊗id)Δ", "(id⊗Δ)Δ")
            break
    report.add("coassociativity", w)

    # (ε⊗id)Δ(e_i) and (id⊗ε)Δ(e_i) carry dc·de.
    w = None
    for i in range(dim):
        left = {i: -dc * de}
        right = {i: -dc * de}
        for pair, c in comul[i]:
            a, b = divmod(pair, dim)
            left[b] = left.get(b, 0) + c * eps[a]
            right[a] = right.get(a, 0) + c * eps[b]
        if _nonzero(left, p) or _nonzero(right, p):
            terms = [(c, *tensor_split(q, dim))
                     for q, c in h.comul.columns[i].coeffs.items()]
            if _nonzero(left, p):
                side = accumulate(h.space, ((h.field.mul(c, h._eps[a]),
                                             h.basis(b)) for c, a, b in terms))
            else:
                side = accumulate(h.space, ((h.field.mul(c, h._eps[b]),
                                             h.basis(a)) for c, a, b in terms))
            w = _witness(h, (i,), side, h.basis(i))
            break
    report.add("counit", w)

    # Δ(e_i e_j) carries dm·dc and Δ(e_i)Δ(e_j) carries dc²·dm², so the
    # left side is scaled by dc·dm; ε(e_i e_j)·de is compared with
    # ε(e_i)ε(e_j)·dm.
    w = None
    comul_unit = h.comul(h.unit)
    if comul_unit != tensor_elem(h.hh, h.unit, h.unit):
        w = Witness(("1",), str(comul_unit), "1⊗1")
    elif h.counit_scalar(h.unit) != h.field.one:
        w = Witness(("1",), str(h.counit_scalar(h.unit)), str(h.field.one))
    else:
        scale = dc * dm
        legs = [[(*divmod(pair, dim), c) for pair, c in col] for col in comul]
        for i in range(dim):
            for j in range(dim):
                prod = mul[i * dim + j]
                diff: dict = {}
                for k, c in prod:
                    c *= scale
                    for pair, c2 in comul[k]:
                        diff[pair] = diff.get(pair, 0) + c * c2
                for a, b, ca in legs[i]:
                    for c, d, cc in legs[j]:
                        right = mul[b * dim + d]
                        wt = ca * cc
                        for x, cx in mul[a * dim + c]:
                            base = x * dim
                            wx = wt * cx
                            for y, cy in right:
                                key = base + y
                                diff[key] = diff.get(key, 0) - wx * cy
                if _nonzero(diff, p):
                    # Δ(e_i)Δ(e_j) = Σ ac ⊗ bd over the legs a⊗b, c⊗d
                    u = h.comul.columns[i].coeffs.items()
                    v = h.comul.columns[j].coeffs.items()
                    w = _witness(h, (i, j), h.comul(h.mul_basis(i, j)),
                                 accumulate(h.hh, (
                                     (cu * cv, tensor_elem(
                                         h.hh, h.mul_basis(pu // dim, pv // dim),
                                         h.mul_basis(pu % dim, pv % dim)))
                                     for pu, cu in u for pv, cv in v)))
                    break
                eps_diff = (sum(c * eps[k] for k, c in prod) * de
                            - eps[i] * eps[j] * dm)
                if eps_diff % p if p else eps_diff:
                    w = _witness(h, (i, j), h.counit_scalar(h.mul_basis(i, j)),
                                 h.field.mul(h._eps[i], h._eps[j]))
                    break
            if w:
                break
    report.add("bialgebra-compatibility", w)

    # S(e_a) e_b carries ds·dm, so each side carries dc·ds·dm; the target
    # ε(e_i)1 carries de·du.
    w = None
    lscale = de * du
    rscale = dc * ds * dm
    for i in range(dim):
        left = {k: -eps[i] * u * rscale for k, u in unit}
        right = dict(left)
        for pair, c in comul[i]:
            a, b = divmod(pair, dim)
            c *= lscale
            for x, sx in anti[a]:
                cx = c * sx
                for y, m in mul[x * dim + b]:
                    left[y] = left.get(y, 0) + cx * m
            for x, sx in anti[b]:
                cx = c * sx
                for y, m in mul[a * dim + x]:
                    right[y] = right.get(y, 0) + cx * m
        if _nonzero(left, p) or _nonzero(right, p):
            ident = LinearOp.identity(h.space)
            f, g = ((h.antipode, ident) if _nonzero(left, p)
                    else (ident, h.antipode))
            w = _witness(h, (i,), convolution(h.comul, f, g, h.mul).columns[i],
                         h.unit.scale(h._eps[i]))
            break
    report.add("antipode", w)

    h.validated = report.passed
    return report


def check_cocommutative(h: HopfAlgebraData) -> bool:
    """True iff flip ∘ Δ = Δ on every basis element."""
    h.require_validated()
    dim = h.dim
    for i in range(dim):
        col = h.comul.columns[i]
        if flip_tensor(h.hh, h.hh, col, dim) != col:
            return False
    return True


def require_cocommutative(h: HopfAlgebraData):
    h.require_validated()
    if not check_cocommutative(h):
        raise NotCocommutative("carrier must be cocommutative")


# -- constructors -------------------------------------------------------------

def group_algebra(group: "FiniteGroup", field: Field | None = None) -> HopfAlgebraData:
    """Group algebra k[G]: Δ(g) = g⊗g, ε(g) = 1, S(g) = g^{-1}; validated."""
    field = field or QQ
    space = BasedSpace(tuple(group.labels), field)
    hh = tensor_space(space, space)
    n = group.order
    mul_cols = [space.basis(group.table[i][j])
                for i in range(n) for j in range(n)]
    comul_cols = [Element(hh, {tensor_index(i, i, n): field.one}, _canonical=True)
                  for i in range(n)]
    counit_cols = [scalar_space(field).basis(0) for _ in range(n)]
    anti_cols = [space.basis(group.inverse[i]) for i in range(n)]
    h = HopfAlgebraData(space,
                        LinearOp(hh, space, mul_cols),
                        space.basis(group.identity),
                        LinearOp(space, hh, comul_cols),
                        LinearOp(space, scalar_space(field), counit_cols),
                        LinearOp(space, space, anti_cols))
    report = verify_hopf(h)
    if not report.passed:
        raise InternalTheoremViolation(
            f"group algebra of a valid group failed: {report.first_failure()}")
    return h


def hopf_from_structure(space: BasedSpace, mul: LinearOp, unit: Element,
                        comul: LinearOp, counit: LinearOp,
                        antipode: LinearOp) -> HopfAlgebraData:
    """Raw constructor; the result is unvalidated until verify_hopf runs."""
    return HopfAlgebraData(space, mul, unit, comul, counit, antipode)


def tensor_coalgebra(h: HopfAlgebraData,
                     k: HopfAlgebraData) -> tuple[LinearOp, LinearOp]:
    """The middle-flip coalgebra of H ⊗ K as ``(comul, counit)``:
    Δ(x⊗y) = (x_(1)⊗y_(1)) ⊗ (x_(2)⊗y_(2)) and ε(x⊗y) = ε(x)ε(y)."""
    field = h.field
    space = tensor_space(h.space, k.space)
    square = tensor_space(space, space)
    dim_h, dim_k, dim = h.dim, k.dim, space.dim
    one = scalar_space(field).basis(0)
    comul_cols = []
    counit_cols = []
    for i in range(dim_h):
        for j in range(dim_k):
            out: dict = {}
            for pi, ci in h.comul.columns[i].coeffs.items():
                h1, h2 = tensor_split(pi, dim_h)
                for pj, cj in k.comul.columns[j].coeffs.items():
                    k1, k2 = tensor_split(pj, dim_k)
                    idx = tensor_index(tensor_index(h1, k1, dim_k),
                                       tensor_index(h2, k2, dim_k), dim)
                    out[idx] = field.mul(ci, cj)
            comul_cols.append(Element(square, out, _canonical=True))
            counit_cols.append(one.scale(field.mul(h._eps[i], k._eps[j])))
    return (LinearOp(space, square, comul_cols),
            LinearOp(space, one.space, counit_cols))


def tensor_hopf(h: HopfAlgebraData, k: HopfAlgebraData) -> HopfAlgebraData:
    """Tensor product Hopf algebra with componentwise multiplication and
    the middle-flip tensor comultiplication."""
    require_cocommutative(h)
    require_cocommutative(k)
    if h.field != k.field:
        raise DimensionMismatch("tensor factors over different fields")
    comul, counit = tensor_coalgebra(h, k)
    space = comul.domain
    dim_k = k.dim
    dim = space.dim

    mul_cols = []
    for p in range(dim):
        i, j = tensor_split(p, dim_k)
        for q in range(dim):
            a, b = tensor_split(q, dim_k)
            mul_cols.append(tensor_elem(space, h.mul_basis(i, a), k.mul_basis(j, b)))
    anti_cols = []
    for p in range(dim):
        i, j = tensor_split(p, dim_k)
        anti_cols.append(tensor_elem(space, h.antipode.columns[i],
                                     k.antipode.columns[j]))

    out = HopfAlgebraData(space, LinearOp(comul.codomain, space, mul_cols),
                          tensor_elem(space, h.unit, k.unit), comul, counit,
                          LinearOp(space, space, anti_cols))
    report = verify_hopf(out)
    if not report.passed:
        fail = report.first_failure()
        raise ConstructionInvalid(f"tensor-hopf:{fail.name}", str(fail.witness))
    return out


def transport_hopf(h: HopfAlgebraData, p: LinearOp) -> HopfAlgebraData:
    """Transport of structure along a linear bijection p: H -> V.

    The result has the same axioms by construction but generally loses
    the group-like basis, so its coproducts have many terms; it is
    re-verified like every other constructor."""
    h.require_validated()
    if p.domain != h.space:
        raise DimensionMismatch("transport map must start at the carrier")
    from .linalg import invert, kron
    p_inv = invert(p)
    space = p.codomain
    hh = tensor_space(space, space)
    pp = kron(p, p)
    mul_cols = [p(h.product(p_inv.columns[i], p_inv.columns[j]))
                for i in range(space.dim) for j in range(space.dim)]
    comul_cols = [pp(h.comul(p_inv.columns[i])) for i in range(space.dim)]
    ssp = scalar_space(h.field)
    counit_cols = [ssp.basis(0).scale(h.counit_scalar(p_inv.columns[i]))
                   for i in range(space.dim)]
    out = HopfAlgebraData(space, LinearOp(hh, space, mul_cols), p(h.unit),
                          LinearOp(space, hh, comul_cols),
                          LinearOp(space, ssp, counit_cols),
                          p.compose(h.antipode).compose(p_inv))
    report = verify_hopf(out)
    if not report.passed:
        fail = report.first_failure()
        raise ConstructionInvalid(f"transport:{fail.name}", str(fail.witness))
    return out


def opposite_hopf(h: HopfAlgebraData) -> HopfAlgebraData:
    """Same coalgebra and antipode, multiplication flipped (the antipode
    stays valid because the carrier is cocommutative, where S² = id)."""
    require_cocommutative(h)
    dim = h.dim
    mul_cols = [h.mul_basis(j, i) for i in range(dim) for j in range(dim)]
    out = HopfAlgebraData(h.space, LinearOp(h.hh, h.space, mul_cols), h.unit,
                          h.comul, h.counit, h.antipode)
    report = verify_hopf(out)
    if not report.passed:
        fail = report.first_failure()
        raise ConstructionInvalid(f"opposite-hopf:{fail.name}", str(fail.witness))
    return out


# -- morphism checks -----------------------------------------------------------

def coalgebra_map_failures(f: LinearOp, source: tuple[LinearOp, LinearOp],
                           target: tuple[LinearOp, LinearOp]):
    """Sweep Δ_t ∘ f = (f⊗f) ∘ Δ_s and ε_t ∘ f = ε_s over the basis of the
    domain of f, where ``source`` and ``target`` are ``(comul, counit)``
    pairs.  Returns ``(comul, counit)``: the first failing basis index of
    each identity as ``(i, lhs, rhs)``, or None where it holds.  The
    counit sides are scalars.  Callers that report one failure take the
    lower index, the comultiplication winning a tie."""
    (s_comul, s_counit), (t_comul, t_counit) = source, target
    cols = f.columns
    n = len(cols)
    square = t_comul.codomain
    comul = counit = None
    for i, col in enumerate(cols):
        if comul is None:
            lhs = t_comul(col)
            rhs = accumulate(square, (
                (c, tensor_elem(square, cols[p // n], cols[p % n]))
                for p, c in s_comul.columns[i].coeffs.items()))
            if lhs != rhs:
                comul = (i, lhs, rhs)
        if counit is None:
            lhs = t_counit(col).coefficient(0)
            rhs = s_counit.columns[i].coefficient(0)
            if lhs != rhs:
                counit = (i, lhs, rhs)
        if comul and counit:
            break
    return comul, counit


def _earliest(fails):
    """``(k, fail)`` for the failure of :func:`coalgebra_map_failures` at
    the lower index, k = 0 for the comultiplication (which wins a tie) and
    1 for the counit; None when both hold."""
    found = [(k, fail) for k, fail in enumerate(fails) if fail]
    return min(found, key=lambda kf: kf[1][0], default=None)


def coalgebra_morphism_witness(f: LinearOp, h: HopfAlgebraData,
                               k: HopfAlgebraData) -> Witness | None:
    """The first basis element e_i of H with Δ_K(f(e_i)) != (f⊗f)Δ_H(e_i)
    or ε_K(f(e_i)) != ε_H(e_i), with both sides, or None when f is a
    coalgebra map.  Neither structure needs to be validated."""
    first = _earliest(coalgebra_map_failures(f, (h.comul, h.counit),
                                             (k.comul, k.counit)))
    if first is None:
        return None
    i, lhs, rhs = first[1]
    return Witness((h.label(i),), str(lhs), str(rhs))


def check_coalgebra_morphism(f: LinearOp, h: HopfAlgebraData,
                             k: HopfAlgebraData) -> bool:
    """Δ_K ∘ f = (f⊗f) ∘ Δ_H and ε_K ∘ f = ε_H on all basis elements."""
    h.require_validated()
    k.require_validated()
    if f.domain != h.space or f.codomain != k.space:
        raise DimensionMismatch("map does not go from H to K")
    return coalgebra_morphism_witness(f, h, k) is None


def check_bialgebra_automorphism(phi: LinearOp, h: HopfAlgebraData) -> bool:
    """Multiplicative, unital, coalgebra-morphism and invertible."""
    if not check_coalgebra_morphism(phi, h, h):
        return False
    if phi(h.unit) != h.unit:
        return False
    if _multiplicative_witness(phi, h, h) is not None:
        return False
    return rank(phi) == h.dim


def check_hopf_isomorphism(f: LinearOp, h: HopfAlgebraData,
                           k: HopfAlgebraData) -> bool:
    """True iff the bijection f transports every structure map of H to K."""
    if f.domain != h.space or f.codomain != k.space or h.dim != k.dim:
        return False
    if rank(f) != h.dim:
        return False
    if f(h.unit) != k.unit:
        return False
    if not check_coalgebra_morphism(f, h, k):
        return False
    if f.compose(h.antipode) != k.antipode.compose(f):
        return False
    return _multiplicative_witness(f, h, k) is None


def _multiplicative_witness(f: LinearOp, h: HopfAlgebraData,
                            k: HopfAlgebraData) -> Witness | None:
    """First basis pair (i, j) with f(e_i e_j) != f(e_i) f(e_j)."""
    return first_witness((h.space, h.space), lambda i, j: (
        f(h.mul_basis(i, j)), k.product(f.columns[i], f.columns[j])))


def _measuring_witness(k: HopfAlgebraData, h: HopfAlgebraData,
                       act: LinearOp) -> Witness | None:
    """First basis triple (a, i, j) with a ⇀ (e_i e_j) differing from
    (a_(1) ⇀ e_i)(a_(2) ⇀ e_j), for act: K ⊗ H -> H."""
    dim, dim_k = h.dim, k.dim
    cols = act.columns

    def sides(a, i, j):
        return (apply2(act, k.basis(a), h.mul_basis(i, j)),
                accumulate(h.space, (
                    (c, h.product(cols[p // dim_k * dim + i],
                                  cols[p % dim_k * dim + j]))
                    for p, c in k.comul.columns[a].coeffs.items())))
    return first_witness((k.space, h.space, h.space), sides)


# -- module actions -------------------------------------------------------------

@dataclass(frozen=True)
class ModuleAction:
    """Left action act: K ⊗ H -> H of an actor Hopf algebra on a carrier."""

    actor: HopfAlgebraData
    carrier: HopfAlgebraData
    act: LinearOp

    def __post_init__(self):
        expected = tensor_space(self.actor.space, self.carrier.space)
        if self.act.domain != expected or self.act.codomain != self.carrier.space:
            raise DimensionMismatch("action must map K⊗H to H")

    def of(self, k: Element, x: Element) -> Element:
        return apply2(self.act, k, x)

    def basis(self, ki: int, hi: int) -> Element:
        return self.act.columns[tensor_index(ki, hi, self.carrier.dim)]


def module_action(actor: HopfAlgebraData, carrier: HopfAlgebraData,
                  act: LinearOp) -> ModuleAction:
    """Build a ModuleAction, checking that the unit acts as the identity
    and the action is associative over the actor multiplication."""
    action = ModuleAction(actor, carrier, act)
    report = AxiomReport()
    _module_axioms(action, report)
    fail = report.first_failure()
    if fail is not None:
        from .errors import AxiomFails
        raise AxiomFails(fail.name, fail.witness)
    return action


def _module_axioms(action: ModuleAction, report: AxiomReport):
    k, h = action.actor, action.carrier
    report.add("module-unit", first_witness(
        (h.space,), lambda i: (action.of(k.unit, h.basis(i)), h.basis(i))))
    report.add("module-associativity", first_witness(
        (k.space, k.space, h.space),
        lambda a, b, i: (action.of(k.mul_basis(a, b), h.basis(i)),
                         action.of(k.basis(a), action.basis(b, i)))))


def _module_algebra_axioms(action: ModuleAction, report: AxiomReport):
    k, h = action.actor, action.carrier
    report.add("module-algebra-product", _measuring_witness(k, h, action.act))
    report.add("module-algebra-unit", first_witness(
        (k.space,), lambda a: (action.of(k.basis(a), h.unit),
                               h.unit.scale(k._eps[a]))))


def _module_coalgebra_axioms(action: ModuleAction, report: AxiomReport):
    k, h = action.actor, action.carrier
    fails = coalgebra_map_failures(action.act, tensor_coalgebra(k, h),
                                   (h.comul, h.counit))
    for name, fail in zip(("module-coalgebra-comul", "module-coalgebra-counit"),
                          fails):
        if fail:
            a, i = tensor_split(fail[0], h.dim)
            fail = Witness((k.label(a), h.label(i)), str(fail[1]), str(fail[2]))
        report.add(name, fail)


def check_module_bialgebra(action: ModuleAction) -> AxiomReport:
    """Full left module-bialgebra axiom sweep for an action K ⊗ H -> H."""
    action.actor.require_validated()
    action.carrier.require_validated()
    report = AxiomReport()
    _module_axioms(action, report)
    _module_algebra_axioms(action, report)
    _module_coalgebra_axioms(action, report)
    return report


def module_algebra_report(action: ModuleAction) -> AxiomReport:
    """Module axioms plus the module-algebra compatibilities only."""
    report = AxiomReport()
    _module_axioms(action, report)
    _module_algebra_axioms(action, report)
    return report


def module_coalgebra_report(action: ModuleAction) -> AxiomReport:
    """Module axioms plus the module-coalgebra compatibilities only."""
    report = AxiomReport()
    _module_axioms(action, report)
    _module_coalgebra_axioms(action, report)
    return report


def trivial_action(actor: HopfAlgebraData, carrier: HopfAlgebraData) -> ModuleAction:
    """k ⊳ h = ε(k) h."""
    cols = [carrier.basis(i).scale(actor._eps[a])
            for a in range(actor.dim) for i in range(carrier.dim)]
    dom = tensor_space(actor.space, carrier.space)
    return module_action(actor, carrier, LinearOp(dom, carrier.space, cols))


def adjoint_map(h: HopfAlgebraData) -> LinearOp:
    """g ⊳ x = g_(1) x S(g_(2)) as a map H ⊗ H -> H, without the module
    checks; evaluate it on elements with :func:`apply2`."""
    cols = []
    for col in h.comul.columns:
        legs = [(c, *divmod(p, h.dim)) for p, c in col.coeffs.items()]
        for i in range(h.dim):
            cols.append(accumulate(h.space, (
                (c, h.product(h.mul_basis(g1, i), h.antipode.columns[g2]))
                for c, g1, g2 in legs)))
    return LinearOp(h.hh, h.space, cols)


def adjoint_action(h: HopfAlgebraData) -> ModuleAction:
    """g ⊳ x = g_(1) x S(g_(2)), the adjoint action of H on itself."""
    return module_action(h, h, adjoint_map(h))


# -- Hopf subalgebras -----------------------------------------------------------

def sub_hopf_indices(h: HopfAlgebraData, labels) -> list[int]:
    """Indices of a basis-label subset, after checking it spans a Hopf
    subalgebra (closed under multiplication, antipode and comultiplication
    and containing the unit)."""
    idx = sorted(h.space.index_of(lab) for lab in labels)
    part = set(idx)
    for i in h.unit.coeffs:
        if i not in part:
            raise ConstructionInvalid("sub-hopf", "part does not contain the unit")
    for i in idx:
        for j in idx:
            if any(kk not in part for kk in h.mul_basis(i, j).coeffs):
                raise ConstructionInvalid(
                    "sub-hopf", f"part not closed under multiplication at "
                    f"({h.label(i)},{h.label(j)})")
        if any(kk not in part for kk in h.antipode.columns[i].coeffs):
            raise ConstructionInvalid(
                "sub-hopf", f"part not closed under the antipode at {h.label(i)}")
        for p in h.comul.columns[i].coeffs:
            a, b = tensor_split(p, h.dim)
            if a not in part or b not in part:
                raise ConstructionInvalid(
                    "sub-hopf", f"part is not a subcoalgebra at {h.label(i)}")
    return idx


def sub_hopf(h: HopfAlgebraData, labels) -> tuple[HopfAlgebraData, LinearOp]:
    """Restrict a validated Hopf algebra to a Hopf subalgebra; returns the
    restricted structure together with its inclusion map."""
    h.require_validated()
    idx = sub_hopf_indices(h, labels)
    pos = {amb: i for i, amb in enumerate(idx)}
    space = BasedSpace(tuple(h.label(i) for i in idx), h.field)
    hh = tensor_space(space, space)
    n = len(idx)

    def restrict(elem: Element) -> Element:
        return Element(space, {pos[i]: c for i, c in elem.coeffs.items()},
                       _canonical=True)

    mul_cols = [restrict(h.mul_basis(i, j)) for i in idx for j in idx]
    comul_cols = []
    for i in idx:
        out = {}
        for p, c in h.comul.columns[i].coeffs.items():
            a, b = tensor_split(p, h.dim)
            out[tensor_index(pos[a], pos[b], n)] = c
        comul_cols.append(Element(hh, out, _canonical=True))
    ssp = scalar_space(h.field)
    counit_cols = [ssp.basis(0).scale(h._eps[i]) for i in idx]
    anti_cols = [restrict(h.antipode.columns[i]) for i in idx]
    sub = HopfAlgebraData(space, LinearOp(hh, space, mul_cols),
                          restrict(h.unit), LinearOp(space, hh, comul_cols),
                          LinearOp(space, ssp, counit_cols),
                          LinearOp(space, space, anti_cols))
    report = verify_hopf(sub)
    if not report.passed:
        raise InternalTheoremViolation(
            f"restriction of a validated Hopf algebra failed: "
            f"{report.first_failure()}")
    inclusion = LinearOp(space, h.space, [h.basis(i) for i in idx])
    return sub, inclusion


# -- convolution algebra --------------------------------------------------------

def convolution_inverse(source: HopfAlgebraData, f: LinearOp,
                        target_mul: LinearOp | None = None,
                        target_unit: Element | None = None) -> LinearOp:
    """Two-sided convolution inverse of ``f`` from the coalgebra of
    ``source`` into an algebra (by default ``source`` itself).

    Solves f ⋆ T = ε·1 as one exact linear system, one block of rows per
    coalgebra basis vector, then confirms T ⋆ f = ε·1 with
    :func:`convolution`.  In a finite-dimensional associative algebra a
    one-sided inverse is the two-sided inverse, and it is unique; the
    confirmation keeps the answer exact for any ``target_mul``.  Raises
    ``NotConvolutionInvertible`` when the system has no solution or the
    other side fails.
    """
    source.require_validated()
    if target_mul is None:
        if f.codomain != source.space:
            raise DimensionMismatch("default target requires f: H -> H")
        target_mul, target_unit = source.mul, source.unit
    target = f.codomain
    field = source.field
    dim_c, dim_a = source.dim, target.dim
    n_unknowns = dim_c * dim_a
    aug = n_unknowns
    eps_one = tuple(target_unit.scale(source._eps[ci]) for ci in range(dim_c))
    rows: list[dict] = []
    for ci in range(dim_c):
        block = [dict() for _ in range(dim_a)]
        for p, coeff in source.comul.columns[ci].coeffs.items():
            fixed = f.columns[p // dim_c]
            for a in range(dim_a):
                v = apply2(target_mul, fixed, target.basis(a))
                u = p % dim_c * dim_a + a
                for r, cr in v.coeffs.items():
                    nv = field.add(block[r].get(u, field.zero),
                                   field.mul(coeff, cr))
                    if nv == 0:
                        block[r].pop(u, None)
                    else:
                        block[r][u] = nv
        for r in range(dim_a):
            row = block[r]
            rv = eps_one[ci].coefficient(r)
            if rv != 0:
                row[aug] = rv
            if row:
                rows.append(row)

    from .linalg import _eliminate
    pivots = _eliminate(rows, n_unknowns, field)
    pivot_rows = {r for r, _ in pivots}
    for r, row in enumerate(rows):
        if r not in pivot_rows and row.get(aug, 0) != 0:
            raise NotConvolutionInvertible("no convolution inverse exists")
    sol = {}
    for r, col in pivots:
        v = rows[r].get(aug, 0)
        if v != 0:
            sol[col] = v
    cols = []
    for ci in range(dim_c):
        coeffs = {a: sol[ci * dim_a + a] for a in range(dim_a)
                  if ci * dim_a + a in sol}
        cols.append(Element(target, coeffs, _canonical=True))
    inv = LinearOp(source.space, target, cols)
    if convolution(source.comul, inv, f, target_mul).columns != eps_one:
        raise NotConvolutionInvertible("no convolution inverse exists")
    return inv


def unit_counit_map(h: HopfAlgebraData) -> LinearOp:
    """The convolution identity x -> ε(x) 1."""
    return LinearOp(h.space, h.space,
                    [h.unit.scale(h._eps[i]) for i in range(h.dim)])


def convolution(comul: LinearOp, f: LinearOp, g: LinearOp,
                m: LinearOp) -> LinearOp:
    """The convolution x -> Σ m(f(x_(1)) ⊗ g(x_(2))) of f: C -> A and
    g: C -> B through m: A ⊗ B -> D, over the coproduct ``comul`` of C."""
    space = comul.domain
    if (f.domain != space or g.domain != space
            or m.domain.dim != f.codomain.dim * g.codomain.dim):
        raise DimensionMismatch("convolution shapes do not match")
    dim = space.dim
    fc, gc = f.columns, g.columns
    return LinearOp(space, m.codomain, [
        accumulate(m.codomain, ((c, apply2(m, fc[p // dim], gc[p % dim]))
                                for p, c in col.coeffs.items()))
        for col in comul.columns])


def twisted_product(comul: LinearOp, outer: LinearOp, inner: LinearOp,
                    f: LinearOp | None = None,
                    g: LinearOp | None = None) -> LinearOp:
    """x ⊗ y -> Σ outer(f(x_(1)) ⊗ inner(g(x_(2)) ⊗ y)) as a map C ⊗ Y -> D,
    over the coproduct ``comul`` of C, for an action-shaped
    inner: G ⊗ Y -> Y.  An omitted f or g is the identity of C.  The
    right factors inner(g(x_(2)) ⊗ e_y) are formed once per (x_(2), y)."""
    space, target = comul.domain, inner.codomain
    dim, dim_y = space.dim, target.dim
    if inner.domain.dim != (dim if g is None else g.codomain.dim) * dim_y:
        raise DimensionMismatch("twisted product shapes do not match")
    fc = [space.basis(i) for i in range(dim)] if f is None else f.columns
    right = inner.columns if g is None else [
        apply2(inner, col, target.basis(j))
        for col in g.columns for j in range(dim_y)]
    out = outer.codomain
    cols = []
    for col in comul.columns:
        legs = [(c, fc[p // dim], p % dim * dim_y)
                for p, c in col.coeffs.items()]
        for j in range(dim_y):
            cols.append(accumulate(out, ((c, apply2(outer, left, right[r + j]))
                                         for c, left, r in legs)))
    return LinearOp(tensor_space(space, target), out, cols)

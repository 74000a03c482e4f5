"""Structure-constant Hopf algebras, axiom verification, standard
constructors, module actions and convolution inverses.

Every carrier is finite-dimensional with exact scalars.  Identities are
verified by sweeping all basis tuples, which suffices by multilinearity;
failed sweeps report the lexicographically first failing tuple together
with both evaluated sides.  Every check that a map is a coalgebra map goes
through :func:`coalgebra_map_failures`; the middle-flip coalgebra of
H ⊗ K is built by :func:`tensor_coalgebra`, every tensor ambient by
:func:`smash_hopf`, and Sweedler sums of maps by :func:`convolution`,
x ↦ Σ m(f(x_(1)) ⊗ g(x_(2))), and :func:`twisted_product`,
x ⊗ y ↦ Σ outer(f(x_(1)) ⊗ inner(g(x_(2)) ⊗ y)).

Derived maps are compositions of maps, through ``LinearOp.compose``,
``kron`` and those two kernels: the smash antipode and, in the other
modules, β of a post-Hopf algebra, the multiplication map and the
operator of a triple factorization, the operator of the brace embedding,
and the ∘ of an exact factorization.  A structure moved along maps is
built by :func:`_carried`, p∘m∘(q⊗q) and its kin for p: H -> V and
q: V -> H: transport of structure, :func:`sub_hopf` and the cocycle
circle; the smash product and antipode read on H ⊗ K are carried the
same way, one map at a time.  Both kernels sum on int columns through
:func:`_leg_sum`, and so do :func:`adjoint_map` and :func:`smash_mul`,
with one :func:`~hopfkit.linalg.scaled_element` per output column.
Builders that still sum by hand: ``rb.rb_action_map``,
:func:`tensor_coalgebra`, the linear system of :func:`convolution_inverse`
and ``matched.matched_pair_from_rb``.

One loop decides every identity: :func:`_first_failure` visits tuple
prefixes in lexicographic order, takes both sides for a whole row of last
indices as int dicts (over Q on the common-denominator columns of
:func:`~hopfkit.linalg.scaled_columns`, multiplied through
:func:`~hopfkit.linalg.int_product`), and returns the first failing tuple
with its two sums.  Callers render the witness: :func:`int_witness`
through :func:`~hopfkit.linalg.scaled_element`, :func:`first_witness` from
sides built as elements, :func:`verify_hopf` and the braid sweep of
``ybe_from_rb`` in their own words.

Some identities are closed under products in one slot: when they hold
there at each of a set of elements and every value of the other slots,
they hold at their products.  :func:`int_witness` then sweeps that slot
over :func:`_generators` of a verified carrier first, which proves the
identity when it passes, and runs the full sweep when it fails, so every
witness is the full sweep's.  The brace compatibility, the module laws,
the measuring and multiplicativity sweeps, the matched-pair
compatibilities and twisted associativity do so; each says which verified
axioms its closure step uses.

A carrier that :func:`basis_group` recognizes as k[G] in its group-like
basis passes :func:`verify_hopf` through the group layer, with no sweep,
and :func:`group_algebra` accepts k[G] on the group it is given; the
sweeps decide every other carrier and every failure.  An accepted
carrier is frozen and keeps its verdict, so it is verified once per object.

Constructions raise ``ConstructionInvalid`` through two helpers only:
:func:`_verified` for a Hopf algebra they built and :func:`_require` for
a report on what they were given.

Sweedler conventions: the coproduct is stored once, as the columns of
``h.comul``, and a flat index p splits into the legs ``divmod(p, dim)``;
longer sums split the leftmost leg, Δ²(x) = (Δ ⊗ id)Δ(x).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .errors import (ConstructionInvalid, DimensionMismatch,
                     InternalTheoremViolation, NoSolution, NotCocommutative,
                     NotConvolutionInvertible, UnvalidatedInput)
from .groups import FiniteGroup
from .linalg import (BasedSpace, Element, Field, LinearOp, QQ, _solve_rows,
                     _sum_mod, _sum_ratio, flip_tensor, freeze,
                     freeze_elements, int_product, int_sum, invert, kron,
                     scaled_columns, scaled_element, tensor_elem, tensor_index,
                     tensor_space, tensor_split, rank)
from .report import AxiomReport, CheckResult, Witness


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


# Set once, by __init__ and __post_init__; HopfAlgebraData refuses to rebind them.
_FIXED = frozenset(("space", "mul", "unit", "comul", "counit", "antipode",
                    "hh", "_basis", "_eps"))


@dataclass(eq=False)
class HopfAlgebraData:
    """A Hopf algebra as sparse structure constants.

    The six structure fields, and ``hh``, ``_basis`` and ``_eps`` derived
    from them, cannot be reassigned once set.  When :func:`verify_hopf`
    or :func:`group_algebra` accepts the value, :func:`_accept` freezes its
    maps, unit and basis elements (:func:`~hopfkit.linalg.freeze`) and
    keeps the passing report in ``_report`` and the group of
    :func:`basis_group` in ``_group``, so it cannot change under its verdict.

    ``_gens`` keeps the indices of :func:`_generators` once they are read.

    ``validated`` is stamped on acceptance; consumers that state
    a validated precondition refuse unvalidated data.  It is a plain flag
    that anyone may set, so no verdict is ever reused on it.
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
        self._basis = tuple(self.space.basis(i) for i in range(self.space.dim))
        self._eps = tuple(self.counit.columns[i].coefficient(0)
                          for i in range(self.space.dim))
        self._report = None
        self._group = None
        self._gens = None

    def __setattr__(self, name, value):
        if name in _FIXED and name in self.__dict__:
            raise AttributeError(f"cannot reassign {name!r} of a Hopf algebra")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if name in _FIXED:
            raise AttributeError(f"cannot delete {name!r} of a Hopf algebra")
        object.__delattr__(self, name)

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


def _first_failure(dims, p: int, scales, rows, over=None):
    """The one sweep loop: the lexicographically first index tuple ``at``,
    each index below its entry of ``dims``, where two multilinear maps
    differ, as ``(at, lhs, rhs)`` with both sums; None when they agree.

    Tuple prefixes are visited in lexicographic order, and ``rows(*prefix)``
    gives both sides for every last index at once, as two lists of int
    dicts carrying the scales ``(sl, sr)``.  A tuple fails when
    lhs·sr − rhs·sl is nonzero (modulo p over F_p).  With equal scales, equal
    rows are passed whole, compared in C.  With no index the one tuple is
    ``()``, and ``rows()`` gives rows of length one.

    ``over = (slot, T)`` sweeps index ``slot`` over the list T only.  For
    the last slot, ``rows(*prefix, T)`` gives the rows at the indices of T,
    in order.  Such a sweep proves an identity only through a closure
    argument (see :func:`_generators`), and callers use it only to accept:
    :func:`int_witness` runs the full sweep when it fails."""
    ranges = [range(d) for d in dims]
    if over is not None:
        slot, ranges[slot] = over
        if slot == len(dims) - 1:
            full = rows

            def rows(*prefix):
                return full(*prefix, over[1])
    lasts = ranges[-1] if ranges else (0,)
    sl, sr = scales
    for prefix in itertools.product(*ranges[:-1]):
        lhs_row, rhs_row = rows(*prefix)
        if sl == sr and lhs_row == rhs_row:
            continue
        for k, (lhs, rhs) in enumerate(zip(lhs_row, rhs_row)):
            if sl == sr and lhs == rhs:
                continue
            diff = {key: v * sr for key, v in lhs.items()}
            for key, v in rhs.items():
                diff[key] = diff.get(key, 0) - v * sl
            if any(v % p for v in diff.values()) if p else any(diff.values()):
                return (*prefix, lasts[k])[:len(dims)], lhs, rhs
    return None


def _rendered(spaces, at, lhs, rhs) -> Witness:
    """The witness at basis tuple ``at`` of ``spaces``, both sides as text."""
    return Witness(tuple(s.labels[i] for s, i in zip(spaces, at)), str(lhs), str(rhs))


def first_witness(spaces, sides) -> Witness | None:
    """The lexicographically first basis tuple ``at``, one index per based
    space in ``spaces``, where the elements ``lhs, rhs = sides(*at)``
    differ, as a Witness with both sides rendered; None when they agree
    everywhere.  A renderer over the one sweep loop: :func:`_first_failure`
    decides on their coefficient dicts, which are canonical, so they differ
    exactly when the elements do."""
    def rows(*prefix):
        pairs = [sides(*prefix, k) for k in range(spaces[-1].dim)]
        return [l.coeffs for l, _ in pairs], [r.coeffs for _, r in pairs]
    found = _first_failure([s.dim for s in spaces], 0, (1, 1), rows)
    return found and _rendered(spaces, found[0], *sides(*found[0]))


def int_witness(spaces, target: BasedSpace, scales, rows,
                closed=None) -> Witness | None:
    """A renderer over the one sweep loop: :func:`_first_failure` decides,
    over one index per based space in ``spaces``, on ``rows`` of int dicts
    over ``target`` carrying the scales ``(sl, sr)``, and the two sums at
    the failing tuple are rendered by :func:`~hopfkit.linalg.scaled_element`.

    ``closed = (slot, h)`` names a slot in which the identity is closed
    under the product of h (the caller's docstring says why).  That slot is
    swept first over :func:`_generators` of h alone, and the identity is
    accepted when it holds there.  Otherwise, and when h has no
    generators, the full sweep decides, so every witness is the full
    sweep's lexicographically first tuple."""
    dims, p = [s.dim for s in spaces], target.field.p
    if closed is not None:
        slot, h = closed
        gens = _generators(h)
        if gens is not None and _first_failure(dims, p, scales, rows,
                                               (slot, gens)) is None:
            return None
    found = _first_failure(dims, p, scales, rows)
    return found and _rendered(spaces, found[0], *(
        scaled_element(target, side.items(), s)
        for side, s in zip(found[1:], scales)))


def _scaled_unit(h: HopfAlgebraData) -> tuple[int, tuple]:
    """The unit of h as a scale and ``(index, int)`` pairs."""
    du, (unit,) = scaled_columns(LinearOp(scalar_space(h.field), h.space,
                                          [h.unit]))
    return du, unit


def basis_indices(columns) -> list[int] | None:
    """The index j of every column that is the basis vector e_j with
    coefficient 1, in order; None as soon as one column is not."""
    out = []
    for col in columns:
        if len(col.coeffs) != 1:
            return None
        (j, c), = col.coeffs.items()
        if c != 1:
            return None
        out.append(j)
    return out


def basis_group(h: HopfAlgebraData) -> FiniteGroup | None:
    """The group G when h is k[G] in its group-like basis, else None.

    The basis must be group-like, Δe_i = e_i⊗e_i and ε(e_i) = 1, and every
    product, the unit and every S(e_i) one basis vector with coefficient 1.
    The product's index table must then pass the checks of
    :class:`~hopfkit.groups.FiniteGroup` (Latin square, identity,
    associativity), with the unit as its identity and S as its inverse.
    This is the one group-like path: :func:`verify_hopf` accepts the
    carrier on it, :func:`~hopfkit.rb.verify_rb` a basis-to-basis map, and
    :func:`~hopfkit.rb._circle_mul` reads ∘_B off its table.  Once
    :func:`verify_hopf` has accepted h, the group it found (or None) is
    stored on the frozen h and returned without reading the tables."""
    if h._report is not None:
        return h._group
    dim = h.dim
    if any(e != 1 for e in h._eps) or any(
            col.coeffs != {i * dim + i: 1}
            for i, col in enumerate(h.comul.columns)):
        return None
    mul = basis_indices(h.mul.columns)
    unit = basis_indices((h.unit,))
    anti = basis_indices(h.antipode.columns)
    if mul is None or unit is None or anti is None:
        return None
    try:
        group = FiniteGroup(tuple(tuple(mul[i * dim:(i + 1) * dim])
                                  for i in range(dim)), h.space.labels)
    except DimensionMismatch:
        return None
    if group.identity != unit[0] or list(group.inverse) != anti:
        return None
    return group


def _generators(h: HopfAlgebraData) -> list[int] | None:
    """Basis indices T whose nonempty right-multiplication words
    ((t₁t₂)t₃)… span H, for an h whose stored :func:`verify_hopf` report
    passed; None for any other h, whose sweeps stay full.

    On a carrier that :func:`basis_group` recognizes, T is the generating
    set of G that :class:`~hopfkit.groups.FiniteGroup` picked greedily in
    index order (the identity alone for the trivial group), so every t and
    every word is group-like.  Otherwise T is picked by
    :func:`_spanning_generators`.  T is read once and kept on h.

    The closure argument: take an identity linear in one slot, and let S
    be the elements of that slot at which it holds for every value of the
    other slots.  S is a subspace.  If verified axioms show that S is
    closed under the product of h, then S holds every word of T once it
    holds T, and the words span H, so S = H: a sweep of that slot over T
    proves the identity exactly.  Each caller names the axioms its closure
    step uses."""
    if h._report is None:
        return None
    if h._gens is None:
        group = h._group
        h._gens = (_spanning_generators(h) if group is None
                   else list(group.generators) or [group.identity])
    return h._gens


def _spanning_generators(h: HopfAlgebraData) -> list[int]:
    """Basis vectors in index order, each one skipped when it lies in the
    exact span of the nonempty right-multiplication words of those picked
    so far, until that span is H.

    Words are int vectors, multiplied through the :func:`scaled_columns`
    of the product, whose common scale does not change a span.  The span
    is kept in echelon form without division, one row per pivot (its
    lowest index), over Q divided by the gcd of its entries; it is closed
    under right multiplication by every picked vector."""
    dim, p = h.dim, h.field.p
    _, mul = scaled_columns(h.mul)
    pivots: dict = {}

    def nonzero(row: dict) -> dict:
        return ({k: v % p for k, v in row.items() if v % p} if p else
                {k: v for k, v in row.items() if v})

    def reduce(row: dict) -> dict:
        # a pivot row holds no index below its pivot, so one pass in pivot
        # order clears every pivot index: row·P[c] − row[c]·P
        row = nonzero(row)
        for c in sorted(pivots):
            f = row.get(c)
            if f:
                piv = pivots[c]
                pc = piv[c]
                row = {k: v * pc for k, v in row.items()}
                for k, v in piv.items():
                    row[k] = row.get(k, 0) - f * v
                row = nonzero(row)
        if row and not p:
            g = gcd(*row.values())
            row = {k: v // g for k, v in row.items()}
        return row

    gens, words = [], 0
    for i in range(dim):
        if words == dim:
            break
        if not reduce({i: 1}):
            continue
        gens.append(i)
        # the new vector, and every word so far times it
        pending = [((i, 1),)] + [
            tuple(int_product(mul, dim, piv.items(), ((i, 1),)).items())
            for piv in pivots.values()]
        while pending and words < dim:
            row = reduce(dict(pending.pop()))
            if row:
                pivots[min(row)] = row
                words += 1
                pending.extend(tuple(int_product(mul, dim, row.items(),
                                                 ((t, 1),)).items())
                               for t in gens)
    return gens


HOPF_AXIOMS = ("associativity", "unit", "coassociativity", "counit",
               "bialgebra-compatibility", "antipode")


def verify_hopf(h: HopfAlgebraData) -> AxiomReport:
    """Check every Hopf axiom on all basis tuples; stamp ``validated``.

    Report lines: associativity, unit, coassociativity, counit,
    bialgebra-compatibility (Δ and ε are algebra maps), antipode.

    A carrier that :func:`basis_group` recognizes passes every line with
    no sweep.  The group-likes of k[G] are exactly G, and a basis of
    group-likes (Δe_i = e_i⊗e_i, ε(e_i) = 1) closed under products, with
    the unit and S(e_i) in it, is a Hopf algebra exactly when its table is
    a group with the unit as identity and S as inverse: associativity and
    the unit law are those of the group, coassociativity and the counit
    law hold on every group-like, Δ(gh) = gh⊗gh = Δ(g)Δ(h) and
    ε(gh) = 1 = ε(g)ε(h), and S(g)g = g⁻¹g = 1 = ε(g)1 = gS(g).  This path
    only accepts: when the recognizer declines, :func:`_sweep_hopf` runs,
    so every witness is the sweep's.

    On acceptance h is frozen, and the passing report and the recognized
    group are stored on it (see :class:`HopfAlgebraData`).  A later call
    on the same object returns an equal new report without sweeping; a
    copy made with ``dataclasses.replace`` has no stored report, so it is
    swept like any new value.  A failing h is neither frozen nor stored.
    """
    if h._report is None:
        group = basis_group(h)
        report = _passing_report() if group is not None else _sweep_hopf(h)
        if not report.passed:
            return report
        _accept(h, report, group)
    h.validated = True
    return AxiomReport([CheckResult(c.name, c.passed, c.witness)
                        for c in h._report.checks])


def _accept(h: HopfAlgebraData, report: AxiomReport,
            group: FiniteGroup | None) -> None:
    """Freeze the maps, unit and basis elements of h and store its passing
    ``report`` with ``group``, the group :func:`basis_group` finds on h or
    None: the acceptance of :func:`verify_hopf` and :func:`group_algebra`."""
    for op in (h.mul, h.comul, h.counit, h.antipode):
        freeze(op)
    freeze_elements((h.unit, *h._basis))
    h._report, h._group = report, group


def _passing_report() -> AxiomReport:
    report = AxiomReport()
    for name in HOPF_AXIOMS:
        report.add(name, None)
    return report


def _sweep_hopf(h: HopfAlgebraData) -> AxiomReport:
    """Every Hopf axiom of :func:`verify_hopf` swept on all basis tuples;
    stamps ``validated``.

    Every sweep runs on the int columns of :func:`scaled_columns`, and
    :func:`_first_failure` decides each one, in lexicographic order: each
    side is an int dict carrying the common denominator of its terms.
    Associativity is the module associativity of m acting on H.  The left
    and right unit, counit and antipode laws take a last index of their
    own, so the left law wins a tie; ε multiplicative rides at key -1 of the
    Δ-multiplicative sums, and Δ wins a tie.  Each caller renders its
    witness; the one-element sweeps here render the side that failed.

    The compatibility sweep contracts one Δ leg pair at a time.  With B_i
    and D_j the right legs of Δe_i and Δe_j, P_i[b][c] = Σ_a Δe_i[a,b]·m(a,c)
    is built once per row i, U[b,d] = Σ_c Δe_j[c,d]·P_i[b][c] once per pair,
    and Δ(e_i)Δ(e_j) = Σ_{b,d} U[b,d] ⊗ m(b,d).  So a pair sums
    |B_i|·|Δe_j| entries of P_i and tensors |B_i|·|D_j| entries of U with
    a column of m, where the direct sum tensors |Δe_i|·|Δe_j| pairs of
    columns of m.
    """
    report = AxiomReport()
    dim = h.dim
    p = h.field.p
    dm, mul = scaled_columns(h.mul)
    dc, comul = scaled_columns(h.comul)
    ds, anti = scaled_columns(h.antipode)
    de, eps_cols = scaled_columns(h.counit)
    eps = [col[0][1] if col else 0 for col in eps_cols]
    du, unit = _scaled_unit(h)

    def sweep(name, scales, rows):
        """A sweep over (e_i, law), rendered at e_i from its int sums."""
        found = _first_failure((dim, 2), p, scales, rows)
        report.add(name, found and _rendered((h.space,), found[0], *(
            scaled_element(h.space, side.items(), s)
            for side, s in zip(found[1:], scales))))

    report.add("associativity",
               _associativity_witness(h.space, h.space, (dm, mul), (dm, mul)))

    # 1·e_i and e_i·1 carry du·dm, and so does e_i scaled by it.
    sweep("unit", (du * dm, du * dm), lambda i: (
        [int_product(mul, dim, unit, ((i, 1),)),
         int_product(mul, dim, ((i, 1),), unit)], [{i: du * dm}] * 2))

    # Both iterated coproducts carry dc², indexed flat in H⊗H⊗H.
    def coassociativity(i):
        left, right = {}, {}
        for pair, c in comul[i]:
            a, b = divmod(pair, dim)
            for sub, c2 in comul[a]:
                key = sub * dim + b
                left[key] = left.get(key, 0) + c * c2
            base = a * dim * dim
            for sub, c2 in comul[b]:
                key = base + sub
                right[key] = right.get(key, 0) + c * c2
        return [left], [right]
    found = _first_failure((dim, 1), p, (1, 1), coassociativity)
    report.add("coassociativity",
               found and _rendered((h.space,), found[0], "(Δ⊗id)Δ", "(id⊗Δ)Δ"))

    # (ε⊗id)Δ(e_i) and (id⊗ε)Δ(e_i) carry dc·de, and so does e_i scaled by it.
    def counit(i):
        left, right = {}, {}
        for pair, c in comul[i]:
            a, b = divmod(pair, dim)
            left[b] = left.get(b, 0) + c * eps[a]
            right[a] = right.get(a, 0) + c * eps[b]
        return [left, right], [{i: dc * de}] * 2
    sweep("counit", (dc * de, dc * de), counit)

    # Δ(e_i e_j) carries dm·dc and Δ(e_i)Δ(e_j) carries dc²·dm², so the
    # left side is scaled by dc·dm; ε(e_i e_j)·de and ε(e_i)ε(e_j)·dm sit at
    # key -1 of the two sides, so a pair fails when either identity does and
    # Δ, when its part differs, wins the tie.
    w = None
    comul_unit = h.comul(h.unit)
    if comul_unit != tensor_elem(h.hh, h.unit, h.unit):
        w = Witness(("1",), str(comul_unit), "1⊗1")
    elif h.counit_scalar(h.unit) != h.field.one:
        w = Witness(("1",), str(h.counit_scalar(h.unit)), str(h.field.one))
    else:
        scale = dc * dm
        # Each Δe_k as its legs grouped by the right one: (b, [(a, c), ...]).
        groups = []
        for col in comul:
            by_right: dict = {}
            for pair, c in col:
                a, b = divmod(pair, dim)
                by_right.setdefault(b, []).append((a, c))
            groups.append(list(by_right.items()))

        def compatibility(i):
            # P_i[b][c] = Σ_a Δe_i[a,b]·m(a,c)
            rows = [(b, [tuple(int_product(mul, dim, g, ((c, 1),)).items())
                         for c in range(dim)]) for b, g in groups[i]]
            lhs, rhs = [], []
            for j in range(dim):
                prod = mul[i * dim + j]
                left = {-1: sum(c * eps[k] for k, c in prod) * de}
                for k, c in prod:
                    c *= scale
                    for pair, c2 in comul[k]:
                        left[pair] = left.get(pair, 0) + c * c2
                # Δ(e_i)Δ(e_j) = Σ_{b,d} U[b,d] ⊗ m(b,d), with
                # U[b,d] = Σ_c Δe_j[c,d]·P_i[b][c]
                right = {-1: eps[i] * eps[j] * dm}
                for b, row in rows:
                    base_b = b * dim
                    for d, g in groups[j]:
                        u = int_product(row, 1, g, ((0, 1),)).items()
                        right_m = mul[base_b + d]
                        for x, ux in u:
                            base = x * dim
                            for y, cy in right_m:
                                key = base + y
                                right[key] = right.get(key, 0) + ux * cy
                lhs.append(left)
                rhs.append(right)
            return lhs, rhs
        found = _first_failure((dim, dim), p, (1, 1), compatibility)
        if found is not None:
            (i, j), *sides = found
            left, right = (scaled_element(h.hh, ((k, v) for k, v in side.items()
                                                 if k >= 0), scale * scale)
                           for side in sides)
            w = (_rendered((h.space, h.space), (i, j), left, right)
                 if left != right else
                 _rendered((h.space, h.space), (i, j), h.counit_scalar(
                     h.mul_basis(i, j)), h.field.mul(h._eps[i], h._eps[j])))
    report.add("bialgebra-compatibility", w)

    # S(e_a) e_b and e_a S(e_b) carry ds·dm, so each side carries dc·ds·dm
    # and the target ε(e_i)1 de·du; each is scaled by the other's scale.
    lscale, rscale = de * du, dc * ds * dm
    def antipode(i):
        left, right = {}, {}
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
        target = {k: eps[i] * u * rscale for k, u in unit}
        return [left, right], [target, target]
    sweep("antipode", (lscale * rscale, lscale * rscale), antipode)

    h.validated = report.passed
    return report


def _verified(h: HopfAlgebraData, stage: str) -> HopfAlgebraData:
    """``h`` once :func:`verify_hopf` passes; otherwise
    ``ConstructionInvalid`` at stage ``stage:axiom`` of the first failing
    axiom, with its witness as the message."""
    fail = verify_hopf(h).first_failure()
    if fail is not None:
        raise ConstructionInvalid(f"{stage}:{fail.name}", str(fail.witness))
    return h


def _require(report: AxiomReport, stage: str) -> None:
    """Raise ``ConstructionInvalid`` at ``stage`` with the first failing
    line of ``report`` as ``axiom: witness``."""
    fail = report.first_failure()
    if fail is not None:
        raise ConstructionInvalid(stage, f"{fail.name}: {fail.witness}")


def check_cocommutative(h: HopfAlgebraData) -> bool:
    """True iff flip ∘ Δ = Δ on every basis element.  A carrier with a
    stored group is k[G] with Δe_i = e_i⊗e_i, so it is cocommutative."""
    h.require_validated()
    if h._group is not None:
        return True
    cols = h.comul.columns
    return _first_failure((h.dim,), 0, (1, 1), lambda: (
        [flip_tensor(h.hh, h.hh, col, h.dim).coeffs for col in cols],
        [col.coeffs for col in cols])) is None


def require_cocommutative(h: HopfAlgebraData):
    h.require_validated()
    if not check_cocommutative(h):
        raise NotCocommutative("carrier must be cocommutative")


# -- constructors -------------------------------------------------------------

def group_algebra(group: FiniteGroup, field: Field | None = None) -> HopfAlgebraData:
    """Group algebra k[G]: Δ(g) = g⊗g, ε(g) = 1, S(g) = g^{-1}; validated.

    h is accepted (:func:`_accept`) on ``group`` with no sweep: its table
    was checked by :class:`~hopfkit.groups.FiniteGroup` and the product,
    unit and antipode are copied from it, so it is the group that
    :func:`basis_group` would find.  The product, unit and antipode share
    one element per basis vector and the counit one scalar, so accepting h
    freezes 3n + 1 elements, not n² + 4n + 1."""
    field = field or QQ
    space = BasedSpace(tuple(group.labels), field)
    hh = tensor_space(space, space)
    n = group.order
    basis = [space.basis(i) for i in range(n)]
    mul_cols = [basis[k] for row in group.table for k in row]
    comul_cols = [Element(hh, {tensor_index(i, i, n): field.one}, _canonical=True)
                  for i in range(n)]
    one = scalar_space(field).basis(0)
    anti_cols = [basis[k] for k in group.inverse]
    h = HopfAlgebraData(space,
                        LinearOp(hh, space, mul_cols),
                        basis[group.identity],
                        LinearOp(space, hh, comul_cols),
                        LinearOp(space, one.space, [one] * n),
                        LinearOp(space, space, anti_cols))
    _accept(h, _passing_report(), group)
    h.validated = True
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


def smash_hopf(actor: HopfAlgebraData, carrier: HopfAlgebraData,
               act: LinearOp) -> HopfAlgebraData:
    """The smash product on K ⊗ H, actor first, for an action
    act: K ⊗ H -> H of the actor K on the carrier H, with the middle-flip
    coalgebra of :func:`tensor_coalgebra` and the unit 1 ⊗ 1:

        (k⊗h)(k'⊗h') = k_(1)k' ⊗ h(k_(2)▷h')
        S(k⊗h)       = S_K(k_(1)) ⊗ (S_K(k_(2)) ▷ S_H(h))

    The product is :func:`smash_mul`; the antipode is the
    :func:`twisted_product` of the identity of K ⊗ H and act ∘ (id ⊗ S_H),
    with S_K on both legs.  The result is unvalidated: callers run
    :func:`verify_hopf` on what they build."""
    comul, counit = tensor_coalgebra(actor, carrier)
    space = comul.domain
    anti = twisted_product(
        actor.comul, LinearOp.identity(space),
        act.compose(kron(LinearOp.identity(actor.space), carrier.antipode)),
        f=actor.antipode, g=actor.antipode)
    return HopfAlgebraData(space, smash_mul(actor, carrier, act, comul.codomain),
                           tensor_elem(space, actor.unit, carrier.unit),
                           comul, counit, anti)


def smash_mul(actor: HopfAlgebraData, carrier: HopfAlgebraData,
              act: LinearOp, square: BasedSpace) -> LinearOp:
    """The product (k⊗h)(k'⊗h') = k_(1)k' ⊗ h(k_(2)▷h') of
    :func:`smash_hopf` alone, as a map from ``square``, the based space
    (K⊗H) ⊗ (K⊗H) that the caller has built, to K⊗H.  It sums the two
    legs of k from ``actor.comul`` in ints by :func:`_leg_sum`, through the
    identity table of K⊗H, which tensors the two factors."""
    space = tensor_space(actor.space, carrier.space)
    dim_k, dim_h = actor.dim, carrier.dim
    (dc, comul), (dk, kmul), (dh, hmul), (da, acts) = map(
        scaled_columns, (actor.comul, actor.mul, carrier.mul, act))
    tensor = [((i, 1),) for i in range(space.dim)]
    # lefts[k'][k_(1)] = k_(1)k'; h(k_(2)▷h') for every h and every flat
    # index k_(2)⊗h' of act, then rights[h][h'][k_(2)] = h(k_(2)▷h')
    lefts = [kmul[k::dim_k] for k in range(dim_k)]
    hact = [[tuple(int_product(hmul, dim_h, ((h, 1),), col).items())
             for col in acts] for h in range(dim_h)]
    rights = [[row[h2::dim_h] for h2 in range(dim_h)] for row in hact]
    return LinearOp(square, space, [
        scaled_element(space, _leg_sum(tensor, dim_h, col, dim_k, left,
                                       right).items(), dc * dk * dh * da)
        for col in comul for row in rights for left in lefts for right in row])


def tensor_hopf(h: HopfAlgebraData, k: HopfAlgebraData) -> HopfAlgebraData:
    """Tensor product Hopf algebra with componentwise multiplication and
    the middle-flip tensor comultiplication: the smash product of H acting
    trivially on K."""
    require_cocommutative(h)
    require_cocommutative(k)
    if h.field != k.field:
        raise DimensionMismatch("tensor factors over different fields")
    return _verified(smash_hopf(h, k, trivial_map(h, k)), "tensor-hopf")


def _carried(h: HopfAlgebraData, p: LinearOp, q: LinearOp) -> HopfAlgebraData:
    """The structure of h carried along p: H -> V and read through
    q: V -> H, unverified: p∘m∘(q⊗q), p(1), (p⊗p)∘Δ∘q, ε∘q and p∘S∘q.

    It is a Hopf structure on V when p∘q = id_V and the image of q
    contains 1 and is closed under m, Δ and S, since p is then inverse to
    q on that image: for a bijection p and q = p⁻¹ (transport), or the
    projection onto a Hopf subalgebra and its inclusion (restriction)."""
    return HopfAlgebraData(p.codomain, p.compose(h.mul.compose(kron(q, q))),
                           p(h.unit), kron(p, p).compose(h.comul.compose(q)),
                           h.counit.compose(q),
                           p.compose(h.antipode.compose(q)))


def transport_hopf(h: HopfAlgebraData, p: LinearOp) -> HopfAlgebraData:
    """Transport of structure along a linear bijection p: H -> V, carried
    by :func:`_carried` along p and p⁻¹.  The result has the same axioms
    by construction but generally loses the group-like basis, so its
    coproducts have many terms; it is re-verified like every other
    constructor."""
    h.require_validated()
    if p.domain != h.space:
        raise DimensionMismatch("transport map must start at the carrier")
    return _verified(_carried(h, p, invert(p)), "transport")


def opposite_hopf(h: HopfAlgebraData) -> HopfAlgebraData:
    """Same coalgebra and antipode, multiplication flipped (the antipode
    stays valid because the carrier is cocommutative, where S² = id)."""
    require_cocommutative(h)
    dim = h.dim
    mul_cols = [h.mul_basis(j, i) for i in range(dim) for j in range(dim)]
    out = HopfAlgebraData(h.space, LinearOp(h.hh, h.space, mul_cols), h.unit,
                          h.comul, h.counit, h.antipode)
    return _verified(out, "opposite-hopf")


# -- morphism checks -----------------------------------------------------------

def coalgebra_map_failures(f: LinearOp, source: tuple[LinearOp, LinearOp],
                           target: tuple[LinearOp, LinearOp]):
    """Sweep Δ_t ∘ f = (f⊗f) ∘ Δ_s and ε_t ∘ f = ε_s over the basis of the
    domain of f, where ``source`` and ``target`` are ``(comul, counit)``
    pairs.  Returns ``(comul, counit)``: the first failing basis index of
    each identity as ``(i, lhs, rhs)``, or None where it holds.  The
    counit sides are scalars.  Callers that report one failure take the
    lower index, the comultiplication winning a tie.  :func:`_first_failure`
    decides both.  The Δ sides are compared in ints: Δ_t(f(e_i)) carries
    dt·df and (f⊗f)Δ_s(e_i) ds·df², for the scales ds, dt and df of Δ_s,
    Δ_t and f, and each is scaled by the other's scale; a failing index is
    rendered from its int sums."""
    (s_comul, s_counit), (t_comul, t_counit) = source, target
    cols = f.columns
    n, m = len(cols), f.codomain.dim
    df, fc = scaled_columns(f)
    ds, sc = scaled_columns(s_comul)
    dt, tc = scaled_columns(t_comul)
    scale = dt * ds * df * df

    def comul_rows():
        rhs = []
        for col in sc:
            out: dict = {}
            for q, w in col:
                a, b = divmod(q, n)
                w *= dt
                for ka, ca in fc[a]:
                    base, wa = ka * m, w * ca
                    for kb, cb in fc[b]:
                        out[base + kb] = out.get(base + kb, 0) + wa * cb
            rhs.append(out)
        return [int_product(tc, 1, col, ((0, ds * df),)) for col in fc], rhs
    comul = _first_failure((n,), f.codomain.field.p, (scale, scale), comul_rows)
    if comul is not None:
        (i,), lhs, rhs = comul
        square = t_comul.codomain
        comul = (i, scaled_element(square, lhs.items(), scale),
                 scaled_element(square, rhs.items(), scale))
    eps_t = [t_counit(col).coefficient(0) for col in cols]
    eps_s = [col.coefficient(0) for col in s_counit.columns]
    counit = _first_failure((n,), 0, (1, 1), lambda: (
        [{0: v} for v in eps_t], [{0: v} for v in eps_s]))
    return comul, counit and (counit[0][0], eps_t[counit[0][0]], eps_s[counit[0][0]])


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
    """First basis pair (i, j) with f(e_i e_j) != f(e_i) f(e_j); the
    sides carry df·dm and dn·df² for the scales of f, m_H and m_K.

    When both h and k passed :func:`verify_hopf`, the first slot x runs
    over :func:`_generators` of h first: by the associativity of H and of
    K, f(xx'y) = f(x)f(x'y) = f(x)f(x')f(y) = f(xx')f(y) for x, x' in it."""
    df, fc = scaled_columns(f)
    dm, mul = scaled_columns(h.mul)
    dn, kmul = scaled_columns(k.mul)
    dim = h.dim
    scales = (df * dm, dn * df * df)
    return int_witness((h.space, h.space), k.space, scales, lambda i: (
        [int_product(fc, 1, col, ((0, 1),)) for col in mul[i * dim:(i + 1) * dim]],
        [int_product(kmul, k.dim, fc[i], col) for col in fc]),
        closed=None if k._report is None else (0, h))


def _measuring_witness(k: HopfAlgebraData, h: HopfAlgebraData,
                       act: LinearOp) -> Witness | None:
    """First basis triple (a, i, j) with a ⇀ (e_i e_j) differing from
    (a_(1) ⇀ e_i)(a_(2) ⇀ e_j), for act: K ⊗ H -> H; the sides carry
    da·dm and dc·da²·dm for the scales of act, m_H and Δ_K.

    When both k and h passed :func:`verify_hopf`, the slot y of a ⇀ (yz)
    runs over :func:`_generators` of h first: by the associativity of H
    and the coassociativity of K, for y and y' in it,
    a ⇀ (yy'z) = (a_(1) ⇀ y)(a_(2) ⇀ (y'z)) = (a_(1) ⇀ y)(a_(2) ⇀ y')(a_(3) ⇀ z)
    = (a_(1) ⇀ (yy'))(a_(2) ⇀ z)."""
    dim, dim_k = h.dim, k.dim
    da, acts = scaled_columns(act)
    dm, mul = scaled_columns(h.mul)
    dc, comul = scaled_columns(k.comul)
    legs = [[(c, *divmod(q, dim_k)) for q, c in col] for col in comul]

    def rows(a, i):
        # the left factors c·(a_(1) ⇀ e_i), once per row
        lefts = [([(x, c * v) for x, v in acts[a1 * dim + i]], a2 * dim)
                 for c, a1, a2 in legs[a]]
        return ([int_product(acts, dim, ((a, 1),), col)
                 for col in mul[i * dim:(i + 1) * dim]],
                [int_sum(mul, dim, ((left, acts[base + j]) for left, base in lefts))
                 for j in range(dim)])
    scales = (da * dm, dc * da * da * dm)
    return int_witness((k.space, h.space, h.space), h.space, scales, rows,
                       closed=None if k._report is None else (1, h))


def _associativity_witness(actor: BasedSpace, space: BasedSpace, mul,
                           act, closed=None) -> Witness | None:
    """First (a, b, i) with (ab) ⇀ e_i != a ⇀ (b ⇀ e_i), for a product
    K ⊗ K -> K on ``actor`` and an action K ⊗ H -> H on ``space``, each
    given as its ``(scale, columns)`` from :func:`scaled_columns`; the
    sides carry dm·da and da².  ``closed`` goes to :func:`int_witness`.

    For a verified associative K the slot b is closed under its product:
    for b and b' in it, (a(bb')) ⇀ v = ((ab)b') ⇀ v = (ab) ⇀ (b' ⇀ v)
    = a ⇀ (b ⇀ (b' ⇀ v)) = a ⇀ ((bb') ⇀ v), so the module laws pass
    ``(1, K)``.  Post-Hopf twisted associativity passes its last slot."""
    (dm, muls), (da, acts) = mul, act
    dim, dim_k = space.dim, actor.dim

    def rows(a, b, lasts=range(dim)):
        left, row_a = muls[a * dim_k + b], acts[a * dim:(a + 1) * dim]
        lhs, rhs = [{} for _ in lasts], [{} for _ in lasts]
        for l, r, i in zip(lhs, rhs, lasts):
            for x, c in left:
                for y, d in acts[x * dim + i]:
                    l[y] = l.get(y, 0) + c * d
            for x, c in acts[b * dim + i]:
                for y, d in row_a[x]:
                    r[y] = r.get(y, 0) + c * d
        return lhs, rhs
    return int_witness((actor, actor, space), space, (dm * da, da * da), rows,
                       closed)


def _unit_witnesses(k: HopfAlgebraData, h: HopfAlgebraData, act: LinearOp):
    """The unit laws of act: K ⊗ H -> H as two witnesses: the first e_i
    with 1 ⇀ e_i != e_i and the first e_a with e_a ⇀ 1 != ε(e_a) 1.  For
    the scales du, dv of the units of K and H, da of act and de of ε_K,
    their sides carry du·da and 1, da·dv and dv·de."""
    da, acts = scaled_columns(act)
    du, unit_k = _scaled_unit(k)
    dv, unit_h = _scaled_unit(h)
    de, eps = scaled_columns(k.counit)
    dim = h.dim
    return (int_witness((h.space,), h.space, (du * da, 1), lambda: (
                [int_product(acts, dim, unit_k, ((i, 1),)) for i in range(dim)],
                [{i: 1} for i in range(dim)])),
            int_witness((k.space,), h.space, (da * dv, dv * de), lambda: (
                [int_product(acts, dim, ((a, 1),), unit_h) for a in range(k.dim)],
                [{i: u * n for _, n in col for i, u in unit_h} for col in eps])))


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
    """Add the module-unit and -associativity lines; return the witness of
    e_a ⇀ 1 = ε(e_a) 1, swept with the first unit law."""
    unit, on_unit = _unit_witnesses(action.actor, action.carrier, action.act)
    report.add("module-unit", unit)
    report.add("module-associativity", _associativity_witness(
        action.actor.space, action.carrier.space,
        scaled_columns(action.actor.mul), scaled_columns(action.act),
        (1, action.actor)))
    return on_unit


def _module_algebra_axioms(action: ModuleAction, report: AxiomReport,
                           on_unit: Witness | None):
    k, h = action.actor, action.carrier
    report.add("module-algebra-product", _measuring_witness(k, h, action.act))
    report.add("module-algebra-unit", on_unit)


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
    on_unit = _module_axioms(action, report)
    _module_algebra_axioms(action, report, on_unit)
    _module_coalgebra_axioms(action, report)
    return report


def module_algebra_report(action: ModuleAction) -> AxiomReport:
    """Module axioms plus the module-algebra compatibilities only."""
    report = AxiomReport()
    on_unit = _module_axioms(action, report)
    _module_algebra_axioms(action, report, on_unit)
    return report


def module_coalgebra_report(action: ModuleAction) -> AxiomReport:
    """Module axioms plus the module-coalgebra compatibilities only."""
    report = AxiomReport()
    _module_axioms(action, report)
    _module_coalgebra_axioms(action, report)
    return report


def trivial_map(actor: HopfAlgebraData, carrier: HopfAlgebraData) -> LinearOp:
    """k ⊳ h = ε(k) h as a map K ⊗ H -> H, without the module checks."""
    return LinearOp(tensor_space(actor.space, carrier.space), carrier.space,
                    [e.scale(eps) for eps in actor._eps for e in carrier._basis])


def trivial_action(actor: HopfAlgebraData, carrier: HopfAlgebraData) -> ModuleAction:
    """k ⊳ h = ε(k) h."""
    return module_action(actor, carrier, trivial_map(actor, carrier))


def adjoint_map(h: HopfAlgebraData) -> LinearOp:
    """g ⊳ x = g_(1) x S(g_(2)) as a map H ⊗ H -> H, without the module
    checks; evaluate it on elements with :func:`apply2`.  Each column is
    summed in ints by :func:`_leg_sum`, bracketed (g_(1) x) S(g_(2))."""
    dim = h.dim
    (dc, comul), (dm, mul), (ds, anti) = map(
        scaled_columns, (h.comul, h.mul, h.antipode))
    lefts = [mul[x::dim] for x in range(dim)]
    return LinearOp(h.hh, h.space, [
        scaled_element(h.space, _leg_sum(mul, dim, col, dim, left,
                                         anti).items(), dc * dm * ds * dm)
        for col in comul for left in lefts])


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
    """Restrict a validated Hopf algebra to a Hopf subalgebra, carried by
    :func:`_carried` along the projection onto the part and its inclusion;
    returns the restricted structure together with the inclusion."""
    h.require_validated()
    idx = sub_hopf_indices(h, labels)
    space = BasedSpace(tuple(h.label(i) for i in idx), h.field)
    pos = {amb: i for i, amb in enumerate(idx)}
    projection = LinearOp(h.space, space, [
        space.basis(pos[i]) if i in pos else space.zero()
        for i in range(h.dim)])
    inclusion = LinearOp(space, h.space, [h.basis(i) for i in idx])
    sub = _carried(h, projection, inclusion)
    report = verify_hopf(sub)
    if not report.passed:
        raise InternalTheoremViolation(
            f"restriction of a validated Hopf algebra failed: "
            f"{report.first_failure()}")
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

    try:
        sol, _ = _solve_rows(rows, n_unknowns, field)
    except NoSolution:
        raise NotConvolutionInvertible("no convolution inverse exists") from None
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


def _leg_sum(table: list, dim: int, col, split: int, left, right) -> dict:
    """Σ c·table(left[q // split] ⊗ right[q % split]) over the ``(q, c)``
    pairs of one :func:`scaled_columns` column of a coproduct, in ints
    through :func:`int_product`: the sum carries the scales of the column,
    the table and the two factors multiplied."""
    out: dict = {}
    for q, c in col:
        x = left[q // split]
        int_product(table, dim, x if c == 1 else [(i, c * w) for i, w in x],
                    right[q % split], out)
    return out


def convolution(comul: LinearOp, f: LinearOp, g: LinearOp,
                m: LinearOp) -> LinearOp:
    """The convolution x -> Σ m(f(x_(1)) ⊗ g(x_(2))) of f: C -> A and
    g: C -> B through m: A ⊗ B -> D, over the coproduct ``comul`` of C,
    summed in ints by :func:`_leg_sum`."""
    space = comul.domain
    if (f.domain != space or g.domain != space
            or m.domain.dim != f.codomain.dim * g.codomain.dim):
        raise DimensionMismatch("convolution shapes do not match")
    (dc, cm), (df, fc), (dg, gc), (dm, mc) = map(scaled_columns,
                                                 (comul, f, g, m))
    return LinearOp(space, m.codomain, [
        scaled_element(m.codomain, _leg_sum(mc, g.codomain.dim, col,
                                            space.dim, fc, gc).items(),
                       dc * df * dg * dm) for col in cm])


def twisted_product(comul: LinearOp, outer: LinearOp, inner: LinearOp,
                    f: LinearOp | None = None,
                    g: LinearOp | None = None) -> LinearOp:
    """x ⊗ y -> Σ outer(f(x_(1)) ⊗ inner(g(x_(2)) ⊗ y)) as a map C ⊗ Y -> D,
    over the coproduct ``comul`` of C, for an action-shaped
    inner: G ⊗ Y -> Y.  An omitted f or g is the identity of C.  The
    right factors inner(g(x_(2)) ⊗ e_y) are formed once per (x_(2), y), and
    each column is summed in ints by :func:`_leg_sum`."""
    space, target = comul.domain, inner.codomain
    dim, dim_y = space.dim, target.dim
    dim_f = dim if f is None else f.codomain.dim
    dim_g = dim if g is None else g.codomain.dim
    if (f is not None and f.domain != space
            or g is not None and g.domain != space
            or inner.domain.dim != dim_g * dim_y
            or outer.domain.dim != dim_f * dim_y):
        raise DimensionMismatch("twisted product shapes do not match")
    (dc, cm), (do, oc), (dr, right) = map(scaled_columns, (comul, outer, inner))
    df, fc = (1, [((i, 1),) for i in range(dim)]) if f is None else \
        scaled_columns(f)
    if g is not None:
        dg, gc = scaled_columns(g)
        dr *= dg
        right = [tuple(int_product(right, dim_y, col, ((j, 1),)).items())
                 for col in gc for j in range(dim_y)]
    rights = [right[j::dim_y] for j in range(dim_y)]
    out = outer.codomain
    return LinearOp(tensor_space(space, target), out, [
        scaled_element(out, _leg_sum(oc, dim_y, col, dim, fc, r).items(),
                       dc * df * dr * do) for col in cm for r in rights])

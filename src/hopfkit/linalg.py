"""Exact sparse linear algebra over the rationals or a prime field.

Rational scalars are plain ``int`` when integral and ``fractions.Fraction``
otherwise; prime-field scalars are ints reduced into ``[0, p)``.  Every
operation is exact with zero tolerance.  Mixed ``int``/``Fraction``
arithmetic may leave a ``Fraction`` with denominator 1; it equals and
hashes like the ``int``, so sparse containers, which are kept canonical
(no stored zeros), still compare structurally.

:func:`accumulate` is the one summation kernel for ``coeff * element``
terms.  Over Q it keeps an integer numerator and a denominator per output
index, adds directly when the denominators agree and otherwise cross-
multiplies through one ``gcd``, and reduces each output coefficient once
at the end; over F_p it reduces ``acc + coeff * c`` modulo p.
:func:`~hopfkit.hopf.apply2` feeds the same loops, over Q with int
numerator and denominator products instead of ``Fraction`` pairs.
:func:`scaled_columns` gives a map's columns as ints over one common
denominator (1 over F_p), and :func:`int_product` multiplies such columns
through a scaled product table, for sweeps that compare the two sides of
an identity in ints only; :func:`scaled_element` turns such an int sum
over its scale back into a canonical element.

A ``LinearOp`` refuses attribute assignment, and its columns are a tuple.
:func:`freeze` makes a map's columns read-only for good: each column
``Element`` gets a ``MappingProxyType`` over its coefficients and refuses
attribute assignment, and :func:`scaled_columns` keeps its table on the
map from then on.  :func:`~hopfkit.hopf.verify_hopf` freezes the maps,
unit and basis of every Hopf algebra it accepts.  An element that is not
frozen has a plain dict of coefficients; no code changes one in place
after construction, because results may share storage with their inputs:
``LinearOp.__call__`` on one basis vector with coefficient 1, and
``apply2`` on two one-term operands whose coefficients multiply to exactly
1, return a column of the map itself.  The solver uses sparse Gauss-Jordan
elimination with exact pivots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Callable, Hashable, Iterable

from .errors import (DimensionMismatch, FieldMismatch, NoSolution,
                     NonUniqueSolution, SingularMap)
from .report import label_str

Label = Hashable
# Rational mode: int when integral, else Fraction.  Prime-field mode: int in [0, p).
Scalar = object


# Miller-Rabin with these bases is deterministic for n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MODULUS_CAP = 2 ** 64


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rational(num: int, den: int) -> Scalar:
    """num/den as an int when den divides num, else as a reduced Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


@dataclass(frozen=True)
class Field:
    """The rationals (``p == 0``) or the prime field F_p."""

    p: int = 0

    def __post_init__(self):
        if self.p >= _MODULUS_CAP:
            raise ValueError(f"field modulus must be below 2**64, got {self.p}")
        if self.p != 0 and not _is_prime(self.p):
            raise ValueError(f"field modulus must be 0 (rationals) or prime, got {self.p}")

    zero = 0
    one = 1

    def of(self, num: int, den: int = 1) -> Scalar:
        """Build a field element from an integer or a reduced fraction."""
        if self.p == 0:
            q = Fraction(num, den)
            return q.numerator if q.denominator == 1 else q
        if den % self.p == 0:
            raise ZeroDivisionError("denominator divisible by the modulus")
        val = (num % self.p) * pow(den % self.p, self.p - 2, self.p)
        return val % self.p

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.p == 0 else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.p == 0 else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.p == 0 else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.p == 0 else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.p == 0:
            return _rational(a.denominator, a.numerator)
        return pow(a, self.p - 2, self.p)

    def render(self, a: Scalar) -> str:
        if self.p == 0:
            return f"{a.numerator}/{a.denominator}"
        return str(a % self.p)

    def parse(self, text: str) -> Scalar:
        if "/" in text:
            num, den = text.split("/", 1)
            return self.of(int(num), int(den))
        return self.of(int(text))

    def __str__(self) -> str:
        return "rational" if self.p == 0 else f"F_{self.p}"


QQ = Field(0)


@dataclass(frozen=True)
class BasedSpace:
    """Finite-dimensional vector space with an ordered, labelled basis."""

    labels: tuple[Label, ...]
    field: Field = QQ
    dim: int = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.labels:
            raise DimensionMismatch("a based space needs at least one basis label")
        if len(set(self.labels)) != len(self.labels):
            raise DimensionMismatch("basis labels must be distinct")
        object.__setattr__(self, "dim", len(self.labels))

    def index_of(self, label: Label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no basis label {label_str(label)}") from None

    def basis(self, i: int) -> "Element":
        return Element(self, {i: self.field.one}, _canonical=True)

    def zero(self) -> "Element":
        return Element(self, {}, _canonical=True)

    def __str__(self) -> str:
        return f"space(dim {self.dim} over {self.field})"


class Element:
    """Sparse vector: a map basis index -> nonzero scalar."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: BasedSpace, coeffs: dict, *, _canonical: bool = False):
        if not _canonical:
            dim = space.dim
            field = space.field
            p = field.p
            clean = {}
            for i, c in coeffs.items():
                if not 0 <= i < dim:
                    raise DimensionMismatch(f"coefficient index {i} out of range")
                if type(c) is not int:
                    if not isinstance(c, (int, Fraction)):
                        raise TypeError(f"scalar {c!r} is neither an int "
                                        "nor a Fraction")
                    c = field.of(c.numerator, c.denominator)
                elif p:
                    c %= p
                if c != 0:
                    clean[i] = c
            coeffs = clean
        self.space = space
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self):
        return sorted(self.coeffs.items())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element) and self.space == other.space
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.space.labels, tuple(self.items())))

    def __add__(self, other: "Element") -> "Element":
        if self.space != other.space:
            raise FieldMismatch("elements live in different spaces")
        field = self.space.field
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            v = field.add(out.get(i, 0), c)
            if v == 0:
                out.pop(i, None)
            else:
                out[i] = v
        return Element(self.space, out, _canonical=True)

    def __sub__(self, other: "Element") -> "Element":
        return self + other.scale(self.space.field.neg(self.space.field.one))

    def __neg__(self) -> "Element":
        return self.scale(self.space.field.neg(self.space.field.one))

    def scale(self, scalar: Scalar) -> "Element":
        if scalar == 0:
            return Element(self.space, {}, _canonical=True)
        field = self.space.field
        return Element(self.space,
                       {i: field.mul(scalar, c) for i, c in self.coeffs.items()},
                       _canonical=True)

    def coefficient(self, i: int) -> Scalar:
        return self.coeffs.get(i, self.space.field.zero)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        field = self.space.field
        return " + ".join(f"{field.render(c)}*{label_str(self.space.labels[i])}"
                          for i, c in self.items())


class _FrozenElement(Element):
    """An :class:`Element` made read-only by :func:`freeze_elements`: its
    coefficients are a ``MappingProxyType`` and it refuses attribute
    assignment and deletion."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r} of a frozen element")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a frozen element")


def freeze_elements(elems: Iterable[Element]) -> None:
    """Make each element read-only for good (see :class:`_FrozenElement`);
    an element frozen before is left as it is."""
    for e in elems:
        if type(e) is Element:
            e.coeffs = MappingProxyType(e.coeffs)
            e.__class__ = _FrozenElement


def accumulate(space: BasedSpace, terms: Iterable[tuple[Scalar, Element]]) -> Element:
    """Sum ``coeff * element`` terms into one canonical element.

    Over F_p each coefficient is reduced as it is summed.  Over Q every
    output index keeps an integer numerator and a positive denominator: a
    term with the same denominator is added directly, any other one is
    brought to the least common denominator through one ``gcd``, and each
    sum is reduced once at the end (an int when it is integral).
    """
    if space.field.p:
        return _sum_mod(space, terms)
    return _sum_ratio(space, ((c.numerator, c.denominator, elem)
                              for c, elem in terms))


def _sum_mod(space: BasedSpace, terms) -> Element:
    """F_p summation of ``(coeff, element)`` terms; ``coeff`` may be any
    int, it is reduced together with each product."""
    p = space.field.p
    acc: dict = {}
    get = acc.get
    for coeff, elem in terms:
        if coeff == 0:
            continue
        for i, c in elem.coeffs.items():
            v = (get(i, 0) + coeff * c) % p
            if v:
                acc[i] = v
            else:
                acc.pop(i, None)
    return Element(space, acc, _canonical=True)


def _sum_ratio(space: BasedSpace, terms) -> Element:
    """Q summation of ``(num, den, element)`` terms, each standing for
    ``num/den * element`` with ``den > 0``; ``num/den`` need not be
    reduced.  The numerator/denominator merge of :func:`accumulate`."""
    num: dict = {}
    den: dict = {}
    for cn, cd, elem in terms:
        if cn == 0:
            continue
        for i, c in elem.coeffs.items():
            tn, td = cn * c.numerator, cd * c.denominator
            d = den.get(i)
            if d is None:
                num[i] = tn
                den[i] = td
            elif d == td:
                num[i] += tn
            else:
                g = gcd(d, td)
                num[i] = num[i] * (td // g) + tn * (d // g)
                den[i] = d // g * td
    return Element(space, {i: n if den[i] == 1 else _rational(n, den[i])
                           for i, n in num.items() if n}, _canonical=True)


class LinearOp:
    """Sparse linear map stored column-wise (one codomain element per
    domain basis vector), as a tuple; it refuses attribute assignment.

    The slot ``_scaled`` is set only by :func:`freeze`: None until
    :func:`scaled_columns` first reads the frozen columns, then its table."""

    __slots__ = ("domain", "codomain", "columns", "_scaled")

    def __init__(self, domain: BasedSpace, codomain: BasedSpace,
                 columns: Iterable[Element]):
        columns = tuple(columns)
        if len(columns) != domain.dim:
            raise DimensionMismatch(
                f"expected {domain.dim} columns, got {len(columns)}")
        for col in columns:
            if col.space is not codomain and col.space != codomain:
                raise DimensionMismatch("column lives in the wrong codomain")
        if domain.field != codomain.field:
            raise FieldMismatch("domain and codomain over different fields")
        setter = object.__setattr__
        setter(self, "domain", domain)
        setter(self, "codomain", codomain)
        setter(self, "columns", columns)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r} of a linear map")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a linear map")

    @classmethod
    def identity(cls, space: BasedSpace) -> "LinearOp":
        return cls(space, space, [space.basis(i) for i in range(space.dim)])

    @classmethod
    def zero(cls, domain: BasedSpace, codomain: BasedSpace) -> "LinearOp":
        return cls(domain, codomain, [codomain.zero()] * domain.dim)

    @classmethod
    def from_function(cls, domain: BasedSpace, codomain: BasedSpace,
                      fn: Callable[[int], Element]) -> "LinearOp":
        return cls(domain, codomain, [fn(i) for i in range(domain.dim)])

    def __call__(self, elem: Element) -> Element:
        if elem.space != self.domain:
            raise DimensionMismatch("element not in the domain")
        return self._image(elem.coeffs)

    def _image(self, coeffs) -> Element:
        """The image of the domain element with these coefficients."""
        if len(coeffs) == 1:
            for i, c in coeffs.items():
                if c == 1:
                    return self.columns[i]
        return accumulate(self.codomain,
                          ((c, self.columns[i]) for i, c in coeffs.items()))

    def compose(self, other: "LinearOp") -> "LinearOp":
        """Return self after other (``self ∘ other``), checked once."""
        if other.codomain != self.domain:
            raise DimensionMismatch("composition shapes do not match")
        return LinearOp(other.domain, self.codomain,
                        [self._image(col.coeffs) for col in other.columns])

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinearOp) and self.domain == other.domain
                and self.codomain == other.codomain
                and self.columns == other.columns)

    def __hash__(self):
        return hash((self.domain.labels, self.codomain.labels))

    def entries(self):
        """Yield (row, col, scalar) triples sorted column-major."""
        for j, col in enumerate(self.columns):
            for i, c in col.items():
                yield i, j, c

    def is_identity(self) -> bool:
        return (self.domain == self.codomain
                and all(col.coeffs == {i: self.domain.field.one}
                        for i, col in enumerate(self.columns)))


def freeze(op: LinearOp) -> None:
    """Freeze every column of ``op`` (:func:`freeze_elements`), so that
    :func:`scaled_columns` may keep its table on ``op``."""
    if not hasattr(op, "_scaled"):
        freeze_elements(op.columns)
        object.__setattr__(op, "_scaled", None)


def scaled_columns(op: LinearOp) -> tuple[int, list[tuple]]:
    """Every column of ``op`` as a tuple of ``(index, int)`` pairs over one
    common denominator ``den``: column j is (1/den) Σ n e_i.

    Over Q ``den`` is the lcm of the op's denominators, so identities
    between products of columns can be compared in ints once each side is
    multiplied by the other side's scale.  Over F_p ``den`` is 1 and the
    reduced ints are used as stored; so are the values over Q when every
    one is an int (a ``Fraction(n, 1)`` left by mixed arithmetic becomes
    the int n through the general path, with ``den`` 1).

    On a frozen ``op`` (:func:`freeze`) the table is computed once and kept
    on it; each call returns a new list of its columns.
    """
    kept = getattr(op, "_scaled", None)
    if kept is not None:
        return kept[0], list(kept[1])
    den, cols = _scaled_table(op)
    if hasattr(op, "_scaled"):
        object.__setattr__(op, "_scaled", (den, tuple(cols)))
    return den, cols


def _scaled_table(op: LinearOp) -> tuple[int, list[tuple]]:
    """The table of :func:`scaled_columns`, computed from the columns."""
    if op.codomain.field.p or all(type(c) is int for col in op.columns
                                  for c in col.coeffs.values()):
        return 1, [tuple(col.coeffs.items()) for col in op.columns]
    den = 1
    for col in op.columns:
        for c in col.coeffs.values():
            d = c.denominator
            if den % d:
                den = den // gcd(den, d) * d
    return den, [tuple((i, c.numerator * (den // c.denominator))
                       for i, c in col.coeffs.items()) for col in op.columns]


def scaled_element(space: BasedSpace, terms, den: int) -> Element:
    """The canonical element (1/den) Σ n e_i of ``(index, int)`` pairs that
    carry the scale ``den``: over Q each n/den is reduced (an int when
    integral), over F_p (``den`` 1) each n modulo p; zeros are dropped."""
    p = space.field.p
    if p:
        coeffs = {i: r for i, n in terms if (r := n % p)}
    else:
        coeffs = {i: _rational(n, den) for i, n in terms if n}
    return Element(space, coeffs, _canonical=True)


def int_product(table: list, dim: int, x, y, out: dict | None = None) -> dict:
    """Add Σ x_a·y_b·table[a·dim + b] into the int dict ``out`` (a new one
    when None) and return it.

    ``table`` holds the :func:`scaled_columns` of a map on a tensor
    product whose right factor has dimension ``dim``, usually a product;
    x and y are ``(index, int)`` pairs, x read once and y once per term of
    x.  The sum carries the scales of the table, x and y multiplied.  A
    map f on one factor gives s·f(x) = f(x ⊗ s) with ``dim`` 1 and
    ``y = ((0, s),)``.  Entries may be 0; the caller tests or reduces."""
    if out is None:
        out = {}
    get = out.get
    for a, cx in x:
        base = a * dim
        for b, cy in y:
            w = cx * cy
            for k, c in table[base + b]:
                out[k] = get(k, 0) + w * c
    return out


def int_sum(table: list, dim: int, pairs) -> dict:
    """Σ x·y through ``table`` over the ``(x, y)`` pairs of
    :func:`int_product`, summed into one new int dict."""
    out: dict = {}
    for x, y in pairs:
        int_product(table, dim, x, y, out)
    return out


# -- tensor products ---------------------------------------------------------

def tensor_space(a: BasedSpace, b: BasedSpace) -> BasedSpace:
    """Tensor product space with basis pairs in row-major order:
    (a_0,b_0), (a_0,b_1), ..., (a_1,b_0), ...  All higher layers rely on
    this fixed order."""
    if a.field != b.field:
        raise FieldMismatch("tensor factors over different fields")
    # Pairs of distinct labels are distinct: skip the constructor's check.
    space = object.__new__(BasedSpace)
    object.__setattr__(space, "labels",
                       tuple(itertools.product(a.labels, b.labels)))
    object.__setattr__(space, "field", a.field)
    object.__setattr__(space, "dim", a.dim * b.dim)
    return space


def tensor_index(i: int, j: int, dim_b: int) -> int:
    return i * dim_b + j


def tensor_split(idx: int, dim_b: int) -> tuple[int, int]:
    return divmod(idx, dim_b)


def tensor_elem(space_ab: BasedSpace, u: Element, v: Element) -> Element:
    """u ⊗ v inside a prebuilt tensor space."""
    field = space_ab.field
    dim_b = v.space.dim
    out = {}
    for i, ci in u.coeffs.items():
        for j, cj in v.coeffs.items():
            out[tensor_index(i, j, dim_b)] = field.mul(ci, cj)
    return Element(space_ab, out, _canonical=True)


def kron(f: LinearOp, g: LinearOp) -> LinearOp:
    """Kronecker product: (f ⊗ g)(a ⊗ b) = f(a) ⊗ g(b) on all basis pairs."""
    dom = tensor_space(f.domain, g.domain)
    cod = tensor_space(f.codomain, g.codomain)
    cols = []
    for i in range(f.domain.dim):
        fi = f.columns[i]
        for j in range(g.domain.dim):
            cols.append(tensor_elem(cod, fi, g.columns[j]))
    return LinearOp(dom, cod, cols)


def flip_tensor(space_ab: BasedSpace, space_ba: BasedSpace,
                elem: Element, dim_b: int) -> Element:
    """Send a ⊗ b to b ⊗ a."""
    dim_a = space_ab.dim // dim_b
    out = {}
    for idx, c in elem.coeffs.items():
        i, j = tensor_split(idx, dim_b)
        out[tensor_index(j, i, dim_a)] = c
    return Element(space_ba, out, _canonical=True)


# -- exact solving ------------------------------------------------------------

def _eliminate(rows: list[dict], ncols: int, field: Field) -> list[tuple[int, int]]:
    """In-place Gauss-Jordan on sparse rows (dicts col -> scalar).

    Columns are pivoted in order.  A column -> rows occurrence index
    records every row that gains an entry in a column (rows whose entry
    later cancels are skipped when the column comes up), so a pivot finds
    its candidates and eliminates only in the rows that hold its column.
    A processed column never fills in again, so its list is dropped.  The
    pivot is the shortest not-yet-pivoted row holding the column (ties to
    the lowest row), which limits fill-in; exact arithmetic needs no
    magnitude heuristics.  The reduced row echelon form is unique, so the
    pivot columns, the pivot rows and whether a non-pivot row keeps a
    nonzero augmented entry do not depend on that choice.  Columns >= ncols
    are treated as augmentation and never pivoted.

    On return the pivot rows come first, in pivot order, followed by the
    other rows in their original order.  Returns the list of (row, col)
    pivots.
    """
    p = field.p
    if p:
        for k, row in enumerate(rows):
            rows[k] = {c: v % p for c, v in row.items() if v % p}
    occurs: dict[int, list] = {}
    for k, row in enumerate(rows):
        for c in row:
            if c < ncols:
                occurs.setdefault(c, []).append(k)
    pivoted = bytearray(len(rows))
    order: list[tuple[int, int]] = []
    for col in range(ncols):
        if len(order) == len(rows):
            break
        holders = [k for k in occurs.pop(col, ()) if col in rows[k]]
        candidates = [k for k in holders if not pivoted[k]]
        if not candidates:
            continue
        r = min(candidates, key=lambda k: (len(rows[k]), k))
        pivoted[r] = 1
        inv = field.inv(rows[r][col])
        if p:
            prow = {c: v * inv % p for c, v in rows[r].items()}
        else:
            prow = {c: v * inv for c, v in rows[r].items()}
        rows[r] = prow
        for k in holders:
            row_k = rows[k]
            factor = row_k.get(col)
            if k == r or factor is None:
                continue
            for c, v in prow.items():
                old = row_k.get(c)
                if old is None:
                    nv = -factor * v
                    row_k[c] = nv % p if p else nv
                    if c < ncols:
                        occurs.setdefault(c, []).append(k)
                    continue
                nv = old - factor * v
                if p:
                    nv %= p
                if nv:
                    row_k[c] = nv
                else:
                    del row_k[c]
        order.append((r, col))
    rows[:] = ([rows[r] for r, _ in order]
               + [row for k, row in enumerate(rows) if not pivoted[k]])
    return [(pos, col) for pos, (_, col) in enumerate(order)]


def _solve_rows(rows: list[dict], ncols: int,
                field: Field) -> tuple[dict, int]:
    """Solve sparse rows whose right-hand side sits in column ``ncols``.

    Returns one solution, ``{column: value}`` with every free column at
    zero, and the nullity.  Raises ``NoSolution`` when a row reduces to
    0 = c with c nonzero.
    """
    pivots = _eliminate(rows, ncols, field)
    pivot_rows = {r for r, _ in pivots}
    for r, row in enumerate(rows):
        if r not in pivot_rows and row.get(ncols, 0) != 0:
            raise NoSolution("inconsistent linear system")
    sol = {}
    for r, col in pivots:
        v = rows[r].get(ncols, 0)
        if v != 0:
            sol[col] = v
    return sol, ncols - len(pivots)


def solve(a: LinearOp, b: Element) -> Element:
    """Solve a(x) = b exactly.

    Raises ``NoSolution`` for inconsistent systems and
    ``NonUniqueSolution`` (reporting the nullity) for underdetermined ones.
    """
    if b.space != a.codomain:
        raise DimensionMismatch("right-hand side not in the codomain")
    ncols = a.domain.dim
    aug = ncols
    rows: list[dict] = [dict() for _ in range(a.codomain.dim)]
    for i, j, c in a.entries():
        rows[i][j] = c
    for i, c in b.coeffs.items():
        rows[i][aug] = c
    coeffs, nullity = _solve_rows(rows, ncols, a.domain.field)
    if nullity > 0:
        raise NonUniqueSolution("underdetermined linear system", nullity)
    return Element(a.domain, coeffs, _canonical=True)


def invert(f: LinearOp) -> LinearOp:
    """Exact two-sided inverse of a square map; ``SingularMap`` if rank-deficient."""
    n = f.domain.dim
    if f.codomain.dim != n:
        raise DimensionMismatch("only square maps can be inverted")
    field = f.domain.field
    rows: list[dict] = [dict() for _ in range(n)]
    for i, j, c in f.entries():
        rows[i][j] = c
    for i in range(n):
        rows[i][n + i] = field.one
    pivots = _eliminate(rows, n, field)
    if len(pivots) < n:
        raise SingularMap(f"map has rank {len(pivots)} < {n}")
    # After full elimination row r has pivot 1 in column pivots[r][1];
    # the augmented half of that row is row pivots[r][1] of the inverse.
    inv_rows: list[dict] = [dict() for _ in range(n)]
    for r, col in pivots:
        inv_rows[col] = {c - n: v for c, v in rows[r].items() if c >= n}
    cols = []
    for j in range(n):
        coeffs = {i: inv_rows[i][j] for i in range(n) if j in inv_rows[i]}
        cols.append(Element(f.domain, coeffs, _canonical=True))
    return LinearOp(f.codomain, f.domain, cols)


def rank(f: LinearOp) -> int:
    rows: list[dict] = [dict() for _ in range(f.codomain.dim)]
    for i, j, c in f.entries():
        rows[i][j] = c
    return len(_eliminate(rows, f.domain.dim, f.domain.field))

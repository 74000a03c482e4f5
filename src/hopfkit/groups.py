"""Finite groups, Rota-Baxter group operators, skew braces, and lifts
to group algebras.

Groups are Cayley tables over indices 0..n-1 with index 0 the identity
by convention of the shipped constructors (arbitrary identity positions
are accepted for user tables).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter

from .errors import (BudgetExceeded, DimensionMismatch, IdentityFails,
                     InternalTheoremViolation)
from .report import Witness


# Element indices of a group of at most this order fit in one byte each,
# so rows of its Cayley table can serve as ``bytes.translate`` tables,
# which have one entry per byte value.
BYTE_VALUES = 256


def _word_generators(rows, ident: int) -> list[int]:
    """Elements picked greedily in index order, each one not yet reached,
    until the right-multiplication words from ``ident``, ((e g₁) g₂)…,
    reach every row of the Latin square ``rows``.  No associativity is
    assumed; for a group they generate it, and none is the identity."""
    n = len(rows)
    reached = bytearray(n)
    reached[ident] = 1
    count, gens = 1, []
    for g in range(n):
        if count == n:
            break
        if reached[g]:
            continue
        gens.append(g)
        stack = [x for x in range(n) if reached[x]]
        while stack:
            row = rows[stack.pop()]
            for t in gens:
                y = row[t]
                if not reached[y]:
                    reached[y] = 1
                    count += 1
                    stack.append(y)
    return gens


def _first_nonassociative(rows) -> tuple[int, int, int]:
    """The lexicographically first (a, b, c) with (ab)c != a(bc), for a
    table known to have one: rows (ab)· and a(b·) are compared whole."""
    for a, row_a in enumerate(rows):
        for b, row_b in enumerate(rows):
            lhs = rows[row_a[b]]
            rhs = tuple(map(row_a.__getitem__, row_b))
            if lhs != rhs:
                return a, b, next(c for c, (x, y) in enumerate(zip(lhs, rhs))
                                  if x != y)
    raise InternalTheoremViolation("Light's test failed on an associative table")


@dataclass(frozen=True)
class FiniteGroup:
    """Finite group given by its Cayley table (entries are indices).

    The table is checked to be a Latin square with an identity, then
    associative by Light's test over ``generators``: the elements that
    :func:`_word_generators` picks greedily in index order, so that the
    right-multiplication words from the identity cover the group.  Only
    when that test fails is every triple compared, so the message names
    the lexicographically first (a, b, c).  ``generators`` is a generating
    set of the group (empty for the trivial group).

    A group of order at most 256 also carries two byte tables for the
    search kernel: ``byte_rows[x]`` is row x, i.e. y -> xy, padded to a
    256-byte ``bytes.translate`` table, and ``byte_cols[c]`` is column c,
    i.e. the bytes of b -> bc over all b.  Larger groups have neither
    (None).  ``generators`` and the byte tables are left out of equality,
    hash and repr.
    """

    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    name: str = "G"
    identity: int = field(init=False, default=0)
    inverse: tuple[int, ...] = field(init=False, default=())
    generators: tuple[int, ...] = field(
        init=False, default=(), compare=False, repr=False)
    byte_rows: tuple[bytes, ...] | None = field(
        init=False, default=None, compare=False, repr=False)
    byte_cols: tuple[bytes, ...] | None = field(
        init=False, default=None, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.table)
        if n == 0 or len(self.labels) != n:
            raise DimensionMismatch("labels must match the table size")
        line = tuple(range(n))
        every = set(line)
        for row in self.table:
            if len(row) != n or set(row) != every:
                if len(row) != n or any(not 0 <= x < n for x in row):
                    raise DimensionMismatch("Cayley table is not square over 0..n-1")
                raise DimensionMismatch("Cayley table rows must be permutations")
        rows = [tuple(row) for row in self.table]
        cols = list(zip(*rows))
        if any(len(set(col)) != n for col in cols):
            raise DimensionMismatch("Cayley table columns must be permutations")
        ident = next((e for e in range(n) if rows[e] == line and cols[e] == line),
                     None)
        if ident is None:
            raise DimensionMismatch("table has no identity element")
        # each row is a permutation, so it holds the identity exactly once
        inv = [row.index(ident) for row in rows]
        gens = _word_generators(rows, ident)
        # Light's test: (xg)y = x(gy) for every generator g.  The g that
        # pass for all x, y are closed under products (for g and h,
        # (x(gh))y = ((xg)h)y = (xg)(hy) = x(g(hy)) = x((gh)y)) and hold e,
        # so they hold every right-multiplication word from e, which covers
        # the table.  Row xg over y is (xg)y; row x read at row g is x(gy).
        for g in gens:
            read_g = itemgetter(*rows[g])
            if any(read_g(row) != rows[row[g]] for row in rows):
                raise DimensionMismatch(
                    "table is not associative at (%d,%d,%d)"
                    % _first_nonassociative(rows))
        if n <= BYTE_VALUES:
            byte_rows = tuple(bytes(row).ljust(BYTE_VALUES, b"\0") for row in rows)
            object.__setattr__(self, "byte_rows", byte_rows)
            object.__setattr__(self, "byte_cols", tuple(bytes(col) for col in cols))
        object.__setattr__(self, "identity", ident)
        object.__setattr__(self, "inverse", tuple(inv))
        object.__setattr__(self, "generators", tuple(gens))

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, a: int, b: int) -> int:
        """a b a^{-1}."""
        return self.mul(self.mul(a, b), self.inv(a))

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(n) for b in range(n))

    def __str__(self) -> str:
        return f"{self.name} (order {self.order})"


# -- constructors -------------------------------------------------------------

def trivial_group() -> FiniteGroup:
    return FiniteGroup(((0,),), ("e",), "1")


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    labels = tuple("e" if i == 0 else ("g" if i == 1 else f"g{i}") for i in range(n))
    return FiniteGroup(table, labels, f"Z{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n with r^n = s^2 = e and s r s = r^{-1}.

    Element (i, j) stands for r^i s^j, indexed i + n*j; D3 is S3 with the
    presentation r^3 = s^2 = e, s r s = r^2.
    """
    if n < 2:
        raise ValueError("dihedral needs n >= 2")

    def idx(i, j):
        return i % n + n * (j % 2)

    def mul(x, y):
        i, j = x % n, x // n
        k, l = y % n, y // n
        # r^i s^j r^k s^l = r^(i + (-1)^j k) s^(j+l)
        return idx(i + (k if j == 0 else -k), j + l)

    table = tuple(tuple(mul(x, y) for y in range(2 * n)) for x in range(2 * n))

    def label(x):
        i, j = x % n, x // n
        rpart = "" if i == 0 else ("r" if i == 1 else f"r{i}")
        spart = "s" if j else ""
        return (rpart + spart) or "e"

    return FiniteGroup(table, tuple(label(x) for x in range(2 * n)), f"D{n}")


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n letters (n <= 4), elements in lexicographic order."""
    if not 1 <= n <= 4:
        raise ValueError("symmetric(n) shipped for n <= 4")
    from itertools import permutations
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def mul(p, q):
        return tuple(p[q[i]] for i in range(n))

    table = tuple(tuple(index[mul(p, q)] for q in perms) for p in perms)
    labels = tuple("".join(str(x) for x in p) for p in perms)
    return FiniteGroup(table, labels, f"S{n}")


def quaternion_group() -> FiniteGroup:
    """The quaternion group Q8 = {±1, ±i, ±j, ±k}."""
    units = ["1", "i", "j", "k"]
    # sign and axis of the product of two of 1,i,j,k
    prod = {("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"),
            ("1", "k"): (1, "k"), ("i", "1"): (1, "i"), ("j", "1"): (1, "j"),
            ("k", "1"): (1, "k"),
            ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
            ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
            ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
            ("k", "i"): (1, "j"), ("i", "k"): (-1, "j")}

    def idx(sign, axis):
        return units.index(axis) * 2 + (0 if sign == 1 else 1)

    def decode(x):
        return (1 if x % 2 == 0 else -1), units[x // 2]

    def mul(x, y):
        sx, ax = decode(x)
        sy, ay = decode(y)
        sp, ap = prod[(ax, ay)]
        return idx(sx * sy * sp, ap)

    table = tuple(tuple(mul(x, y) for y in range(8)) for x in range(8))
    labels = tuple(("" if s == 1 else "-") + a for x in range(8)
                   for s, a in [decode(x)])
    return FiniteGroup(table, labels, "Q8")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product with pairs (a, b) indexed row-major: the semidirect
    product under the trivial action."""
    identity = tuple(range(g.order))
    return semidirect_product(g, h, dict.fromkeys(range(h.order), identity),
                              f"{g.name}x{h.name}")


def semidirect_product(n_grp: FiniteGroup, h_grp: FiniteGroup,
                       action: dict[int, tuple[int, ...]],
                       name: str | None = None) -> FiniteGroup:
    """Semidirect product N ⋊ H from a homomorphism H -> Aut(N).

    ``action[h]`` is the permutation of N induced by h; the product is
    (n1, h1)(n2, h2) = (n1 * action[h1](n2), h1 h2).
    """
    for h in range(h_grp.order):
        perm = action[h]
        if sorted(perm) != list(range(n_grp.order)):
            raise DimensionMismatch("action values must be permutations of N")
    nh = h_grp.order

    def idx(a, b):
        return a * nh + b

    def mul(x, y):
        n1, h1 = divmod(x, nh)
        n2, h2 = divmod(y, nh)
        return idx(n_grp.mul(n1, action[h1][n2]), h_grp.mul(h1, h2))

    n = n_grp.order * nh
    table = tuple(tuple(mul(x, y) for y in range(n)) for x in range(n))
    labels = tuple(f"({n_grp.labels[a]},{h_grp.labels[b]})"
                   for a in range(n_grp.order) for b in range(nh))
    return FiniteGroup(table, labels, name or f"{n_grp.name}:{h_grp.name}")


# -- Rota-Baxter group operators ----------------------------------------------

@dataclass(frozen=True)
class RBGroupOp:
    """Map B with B(g)B(h) = B(g B(g) h B(g)^{-1}) for all g, h."""

    group: FiniteGroup
    table: tuple[int, ...]


def _rb_group_witness(g: FiniteGroup, table, a: int, b: int) -> Witness | None:
    lhs = g.mul(table[a], table[b])
    inner = g.mul(g.mul(a, table[a]), g.mul(b, g.inv(table[a])))
    rhs = table[inner]
    if lhs == rhs:
        return None
    return Witness((g.labels[a], g.labels[b]),
                   g.labels[lhs], g.labels[rhs])


def rb_group_failure(g: FiniteGroup, table) -> tuple[int, int] | None:
    """The lexicographically first pair (a, b) with B(a)B(b) !=
    B(a B(a) b B(a)^{-1}) for the index table B on ``g``, or None when the
    Rota-Baxter group identity holds on every pair: the one row scan behind
    :func:`verify_rb_group` and the group path of
    :func:`~hopfkit.rb.verify_rb`, which render the pair their own way.

    On a group of order at most 256 each row a is one comparison of byte
    strings built by ``bytes.translate``: with B as bytes, B(a)B(b) over
    all b is B read through row B(a), and B(a B(a) b B(a)^{-1}) is column
    B(a)^{-1} read through row a B(a) and then through B.  Every pair is
    still compared exactly.  Only a row whose bytes differ is scanned pair
    by pair.  Larger groups have no byte tables, and every row is scanned.
    """
    n = g.order
    tab, inv = g.table, g.inverse
    rows, cols = g.byte_rows, g.byte_cols
    if rows is not None:
        b_bytes = bytes(table)
        b_table = b_bytes.ljust(BYTE_VALUES, b"\0")
    for a in range(n):
        ba = table[a]
        if rows is not None and (
                b_bytes.translate(rows[ba])
                == cols[inv[ba]].translate(rows[tab[a][ba]]).translate(b_table)):
            continue
        row_aba, row_ba, inv_ba = tab[tab[a][ba]], tab[ba], inv[ba]
        for b in range(n):
            # B(a)B(b) against B(a B(a) b B(a)^{-1})
            if row_ba[table[b]] != table[row_aba[tab[b][inv_ba]]]:
                return a, b
    return None


def verify_rb_group(g: FiniteGroup, table) -> RBGroupOp:
    """Check the Rota-Baxter group identity on every pair (a, b) by
    :func:`rb_group_failure`, so ``IdentityFails`` carries the
    lexicographically first failing pair, in group labels."""
    table = tuple(table)
    n = g.order
    if len(table) != n or min(table) < 0 or max(table) >= n:
        raise DimensionMismatch("operator table must map indices to indices")
    pair = rb_group_failure(g, table)
    if pair is not None:
        raise IdentityFails("rota-baxter-group",
                            _rb_group_witness(g, table, *pair))
    return RBGroupOp(g, table)


def rb_inverse_op(g: FiniteGroup) -> RBGroupOp:
    return verify_rb_group(g, g.inverse)


def rb_trivial_op(g: FiniteGroup) -> RBGroupOp:
    return verify_rb_group(g, (g.identity,) * g.order)


@dataclass(frozen=True)
class SkewBrace:
    """Group (G, ·) with a second group operation ∘ satisfying
    a ∘ (bc) = (a ∘ b) a^{-1} (a ∘ c)."""

    group: FiniteGroup
    circle: tuple[tuple[int, ...], ...]


def skew_brace_from_rb_group(b: RBGroupOp) -> SkewBrace:
    """x ∘ y = x B(x) y B(x)^{-1}; all skew brace axioms are re-swept."""
    g = b.group
    n = g.order

    def circ(x, y):
        bx = b.table[x]
        return g.mul(g.mul(x, bx), g.mul(y, g.inv(bx)))

    circle = tuple(tuple(circ(x, y) for y in range(n)) for x in range(n))
    try:
        FiniteGroup(circle, g.labels, f"{g.name}(circle)")
    except DimensionMismatch as exc:
        raise InternalTheoremViolation(f"(G,∘) is not a group: {exc}") from exc
    for a in range(n):
        for x in range(n):
            for c in range(n):
                lhs = circle[a][g.mul(x, c)]
                rhs = g.mul(g.mul(circle[a][x], g.inv(a)), circle[a][c])
                if lhs != rhs:
                    raise InternalTheoremViolation(
                        f"skew brace compatibility fails at "
                        f"({g.labels[a]},{g.labels[x]},{g.labels[c]})")
    return SkewBrace(g, circle)


def enumerate_rb_group_ops(g: FiniteGroup, budget: int | None = None) -> list[RBGroupOp]:
    """All Rota-Baxter operators on g, by pruned depth-first search.

    The identity forces B(e) = e.  Every partial assignment the search
    expands is closed under the identity: each pair (a, b) of assigned
    elements fixes B(a∘b) = B(a)B(b), where a∘b = a B(a) b B(a)^{-1}, so
    the search never expands an inconsistent branch.

    Closure is checked against the generators of a node, the elements
    the search has branched on: assigning B(x) checks every element d
    assigned before against x, with B(d∘x) = B(d)B(x), then x and each
    element deduced, in the order deduced, against every generator s,
    with B(a∘s) = B(a)B(s).  So every assigned a has been checked
    against every generator s, and every assigned element is reached
    from e by right ∘-multiplication by generators.  That is enough:
    once B(a∘w) = B(a)B(w), the Cayley table gives
    (a∘w)∘s = a∘(w∘s), so B(a∘(w∘s)) = B(a)B(w)B(s) = B(a)B(w∘s), and
    induction on w gives the identity on every pair of assigned
    elements.  Each check is one the all-pairs closure also makes, so
    both reach the same closure and the same conflicts, and the search
    tree and its node count are those of re-scanning every assigned pair
    until nothing changes.

    The check of the earlier elements d against x is the half of the
    step that does not depend on the value v tried for B(x): the
    positions d∘x and the factors B(d) are fixed before v is, so each
    node computes them once and every v only writes B(d∘x) = B(d)v.
    A clash among them ends the node before any v is tried.  With B(d)
    fixed, d B(d) x B(d)^{-1} determines d by left cancellation, so two
    d with one d∘x have different B(d), and B(d)v differs between them
    for every v; d∘x = x with d ≠ e is such a clash with e∘x = x.  No
    d∘x is already assigned, so the step never has to test a v against
    one, and every v is tried: in a closed table y -> d∘y is injective and
    maps the assigned elements into themselves, hence onto them, so it
    sends the unassigned x to an unassigned element.

    ``budget`` bounds the number of search nodes; exceeding it raises
    ``BudgetExceeded`` with the partial result list attached, and a
    negative budget raises ``ValueError`` before the search.  Every
    operator found is re-checked on every pair by
    :func:`rb_group_failure`: one byte-string comparison per row up to
    order 256, a pair-by-pair scan of every row above it.  A table that
    fails would be a fault of the search (``InternalTheoremViolation``).
    """
    if budget is not None and budget < 0:
        raise ValueError(f"search budget {budget} is below 0")
    n = g.order
    tab, inv = g.table, g.inverse
    # cols[c][s] = s c, so a∘s is row a B(a) read at column B(a)^{-1}
    cols = tuple(zip(*tab))
    found: list[tuple[int, ...]] = []
    nodes = 0

    def close(vals: list[int | None], new: list[int],
              gens: list[tuple[int, int]]) -> bool:
        """Check each element of ``new`` against every generator, in place:
        ``vals[y]`` is B(y) or None, ``gens`` lists the pairs (s, B(s)),
        and deductions join ``vals`` and ``new``.  False on conflict."""
        for a in new:
            # B(a∘s) = B(a)B(s); deductions join ``new`` and are checked in turn
            ba = vals[a]
            row_aba, col, row_ba = tab[tab[a][ba]], cols[inv[ba]], tab[ba]
            for s, bs in gens:
                inner = row_aba[col[s]]
                cur = vals[inner]
                if cur is None:
                    vals[inner] = row_ba[bs]
                    new.append(inner)
                elif cur != row_ba[bs]:
                    return False
        return True

    def dfs(vals: list[int | None], dom: list[int], gens: list[tuple[int, int]]):
        """Expand a closed partial table: ``dom`` lists the assigned
        elements and ``gens`` the pairs (s, B(s)) of the generators."""
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceeded(
                f"search budget {budget} exceeded on {g.name}",
                [RBGroupOp(g, t) for t in found])
        if len(dom) == n:
            found.append(tuple(vals))
            return
        x = vals.index(None)
        row_x = tab[x]
        # d∘x -> B(d), no d∘x assigned yet (docstring); d = e gives x -> e
        targets: dict[int, int] = {}
        for d in dom:
            bd = vals[d]
            inner = tab[tab[d][bd]][row_x[inv[bd]]]
            if inner in targets:
                return
            targets[inner] = bd
        for val in range(n):
            # B(d∘x) = B(d)B(x) at B(x) = val, then the generator pass
            trial = vals[:]
            for inner, bd in targets.items():
                trial[inner] = tab[bd][val]
            new = list(targets)
            gens_x = gens + [(x, val)]
            if close(trial, new, gens_x):
                dfs(trial, dom + new, gens_x)

    root = [None] * n
    root[g.identity] = g.identity
    dfs(root, [g.identity], [])
    found.sort()
    for t in found:
        if rb_group_failure(g, t) is not None:
            raise InternalTheoremViolation(f"search found a non-operator {t}")
    return [RBGroupOp(g, t) for t in found]


def ybe_set_map(b: RBGroupOp) -> dict[tuple[int, int], tuple[int, int]]:
    """Set-level Yang-Baxter map of the skew brace of ``b``:
    (g, h) -> (u, v) with u = B(g) h B(g)^{-1} and
    v = B(u)^{-1} u^{-1} g u B(u)."""
    g = b.group
    out = {}
    for x in range(g.order):
        for y in range(g.order):
            bx = b.table[x]
            u = g.mul(g.mul(bx, y), g.inv(bx))
            bu = b.table[u]
            v = g.mul(g.mul(g.mul(g.inv(bu), g.inv(u)), g.mul(x, u)), bu)
            out[(x, y)] = (u, v)
    return out


# -- subgroup lattice and exact factorizations --------------------------------

def subgroups(g: FiniteGroup) -> list[tuple[int, ...]]:
    """All subgroups as sorted index tuples (order <= ~12 intended)."""
    n = g.order
    elems = list(range(n))
    out: set[tuple[int, ...]] = set()

    def closure(seed: frozenset[int]) -> frozenset[int]:
        cur = set(seed) | {g.identity}
        changed = True
        while changed:
            changed = False
            for a in list(cur):
                for b in list(cur):
                    c = g.mul(a, b)
                    if c not in cur:
                        cur.add(c)
                        changed = True
        return frozenset(cur)

    frontier = {frozenset({g.identity})}
    out.add(tuple(sorted({g.identity})))
    while frontier:
        nxt = set()
        for sub in frontier:
            for x in elems:
                if x in sub:
                    continue
                bigger = closure(sub | {x})
                key = tuple(sorted(bigger))
                if key not in out:
                    out.add(key)
                    nxt.add(bigger)
        frontier = nxt
    return sorted(out, key=lambda s: (len(s), s))


def find_exact_factorizations(g: FiniteGroup):
    """Pairs (A, B) with A ∩ B = {e} and |A||B| = |G|, and triples
    (H, L, M) whose product map H x L x M -> G is a bijection."""
    subs = subgroups(g)
    n = g.order
    pairs = []
    for a in subs:
        for b in subs:
            if len(a) * len(b) == n and set(a) & set(b) == {g.identity}:
                pairs.append((a, b))
    triples = []
    for h in subs:
        for l in subs:
            for m in subs:
                if len(h) * len(l) * len(m) != n:
                    continue
                seen = set()
                for x, y, z in product(h, l, m):
                    seen.add(g.mul(g.mul(x, y), z))
                if len(seen) == n:
                    triples.append((h, l, m))
    return pairs, triples


# -- lifts to the group algebra ------------------------------------------------

def lift_to_group_algebra(b: RBGroupOp, field=None):
    """Linear lift of a group-level operator; re-verified as a Rota-Baxter
    operator on the group algebra (failure would be an internal bug)."""
    from . import hopf, rb
    from .errors import HopfkitError

    h = hopf.group_algebra(b.group, field)
    op = lift_map(h, b.table)
    try:
        return rb.verify_rb(h, op)
    except HopfkitError as exc:
        raise InternalTheoremViolation(
            f"lift of a verified group operator failed: {exc}") from exc


def lift_map(h, table):
    """Linear lift of an arbitrary index map on a group algebra basis."""
    from .linalg import LinearOp
    return LinearOp(h.space, h.space, [h.space.basis(j) for j in table])


def conjugation_automorphism(g: FiniteGroup, by: int) -> tuple[int, ...]:
    """The index of by·x·by⁻¹ for every x, read off the Cayley table: row
    ``by`` holds by·x, and each entry's row at by⁻¹ the product with it."""
    tab, inv = g.table, g.inverse[by]
    return tuple([tab[y][inv] for y in tab[by]])


def lift_automorphism(h, perm):
    """Lift a group automorphism to a bialgebra automorphism of the
    group algebra."""
    from . import hopf
    from .errors import NotAutomorphism

    op = lift_map(h, perm)
    if not hopf.check_bialgebra_automorphism(op, h):
        raise NotAutomorphism("permutation does not lift to a bialgebra automorphism")
    return op

"""Finite groups, Rota-Baxter group operators, skew braces, enumeration."""

import random
from itertools import product

import pytest

import hopfkit as hk
from hopfkit import groups as gr
from hopfkit.errors import (DimensionMismatch, IdentityFails,
                            InternalTheoremViolation)


def all_rb_ops_brute_force(g):
    """Independent oracle: filter every map G -> G through the identity."""
    ops = []
    for table in product(range(g.order), repeat=g.order):
        if all(gr._rb_group_witness(g, table, a, b) is None
               for a in range(g.order) for b in range(g.order)):
            ops.append(table)
    return sorted(ops)


def reference_enumeration(g, budget=None):
    """Independent oracle: the pruned search with full-rescan propagation.

    Every propagation pass re-checks all assigned pairs through
    ``g.mul``/``g.inv`` until nothing changes.  Returns the sorted tables
    and the number of search nodes; raises ``BudgetExceeded`` with the
    partial operators when ``budget`` is exceeded.
    """
    n = g.order
    found = []
    nodes = 0

    def propagate(table):
        table = dict(table)
        changed = True
        while changed:
            changed = False
            for a in list(table):
                for b in list(table):
                    ba, bb = table[a], table[b]
                    inner = g.mul(g.mul(a, ba), g.mul(b, g.inv(ba)))
                    val = g.mul(ba, bb)
                    if inner in table:
                        if table[inner] != val:
                            return None
                    else:
                        table[inner] = val
                        changed = True
        return table

    def dfs(table):
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise gr.BudgetExceeded(
                f"search budget {budget} exceeded on {g.name}",
                [gr.RBGroupOp(g, t) for t in found])
        missing = [x for x in range(n) if x not in table]
        if not missing:
            found.append(tuple(table[x] for x in range(n)))
            return
        x = missing[0]
        for val in range(n):
            table[x] = val
            result = propagate(table)
            if result is not None:
                dfs(result)
            del table[x]

    dfs({g.identity: g.identity})
    return sorted(found), nodes


def relabel(g, perm):
    """The same group with element x renamed perm[x]."""
    n = g.order
    table = [[0] * n for _ in range(n)]
    labels = [None] * n
    for a in range(n):
        labels[perm[a]] = g.labels[a]
        for b in range(n):
            table[perm[a]][perm[b]] = perm[g.table[a][b]]
    return gr.FiniteGroup(tuple(map(tuple, table)), tuple(labels), g.name)


def endomorphisms(g):
    """Independent oracle: every endomorphism of g, from generator images.

    A choice of images for a generating set extends along right
    multiplication by the generators; it is a homomorphism exactly when
    no edge x -> x s of the Cayley graph meets a conflict.
    """
    n = g.order
    gens, span = [], {g.identity}
    for x in range(n):
        if x in span:
            continue
        gens.append(x)
        frontier = list(span)
        while frontier:
            y = frontier.pop()
            for s in gens:
                z = g.table[y][s]
                if z not in span:
                    span.add(z)
                    frontier.append(z)
    homs = []
    for images in product(range(n), repeat=len(gens)):
        phi = [None] * n
        phi[g.identity] = g.identity
        frontier = [g.identity]
        ok = True
        while frontier and ok:
            y = frontier.pop()
            for s, t in zip(gens, images):
                z, w = g.table[y][s], g.table[phi[y]][t]
                if phi[z] is None:
                    phi[z] = w
                    frontier.append(z)
                elif phi[z] != w:
                    ok = False
                    break
        if ok:
            homs.append(tuple(phi))
    return sorted(homs)


def first_associativity_failure(table):
    n = len(table)
    for a, b, c in product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return a, b, c
    return None


def first_rb_witness(g, table):
    for a, b in product(range(g.order), repeat=2):
        w = gr._rb_group_witness(g, table, a, b)
        if w is not None:
            return w
    return None


c2, c4 = gr.cyclic(2), gr.cyclic(4)
z2_cubed = gr.direct_product(gr.direct_product(c2, c2), c2)
z4_z4 = gr.direct_product(c4, c4)
z2_fourth = gr.direct_product(z2_cubed, c2)


# -- constructors -----------------------------------------------------------------

def test_cyclic_group():
    z4 = gr.cyclic(4)
    assert z4.order == 4
    assert z4.mul(1, 3) == 0
    assert z4.inv(1) == 3


def test_dihedral_presentation(s3):
    r = s3.labels.index("r")
    s = s3.labels.index("s")
    # s r s = r^2
    assert s3.mul(s3.mul(s, r), s) == s3.labels.index("r2")
    assert s3.mul(r, s3.mul(r, r)) == s3.identity


def test_symmetric_group_matches_dihedral(s3):
    sym = gr.symmetric(3)
    assert sym.order == 6
    assert not sym.is_abelian()
    counts = sorted(sum(1 for x in range(6) if g.mul(x, x) == g.identity)
                    for g in (sym, s3))
    assert counts[0] == counts[1]  # same number of involutions


def test_quaternion_group():
    q8 = gr.quaternion_group()
    assert q8.order == 8
    i = q8.labels.index("i")
    j = q8.labels.index("j")
    k = q8.labels.index("k")
    minus_one = q8.labels.index("-1")
    assert q8.mul(i, i) == minus_one
    assert q8.mul(i, j) == k
    assert q8.mul(j, i) == q8.labels.index("-k")


def test_direct_and_semidirect_products(s3):
    z6 = gr.direct_product(gr.cyclic(2), gr.cyclic(3))
    assert z6.is_abelian() and z6.order == 6
    # Z3 ⋊ Z2 with inversion twist is S3
    z3, z2 = gr.cyclic(3), gr.cyclic(2)
    action = {0: (0, 1, 2), 1: (0, 2, 1)}
    sd = gr.semidirect_product(z3, z2, action)
    assert sd.order == 6 and not sd.is_abelian()


def reference_direct_product(g, h):
    """The direct product written out: (a1, b1)(a2, b2) = (a1 a2, b1 b2),
    pairs indexed row-major."""
    nh = h.order
    n = g.order * nh
    table = tuple(tuple(g.mul(x // nh, y // nh) * nh + h.mul(x % nh, y % nh)
                        for y in range(n)) for x in range(n))
    labels = tuple(f"({g.labels[a]},{h.labels[b]})"
                   for a in range(g.order) for b in range(nh))
    return gr.FiniteGroup(table, labels, f"{g.name}x{h.name}")


@pytest.mark.parametrize("pair", [
    (gr.cyclic(2), gr.cyclic(2)), (gr.cyclic(4), gr.cyclic(4)),
    (gr.dihedral(3), gr.cyclic(2)), (gr.quaternion_group(), gr.symmetric(3)),
    (gr.cyclic(16), gr.cyclic(17)), (gr.trivial_group(), gr.cyclic(3))],
    ids=lambda p: f"{p[0].name}x{p[1].name}")
def test_direct_product_matches_reference(pair):
    got, want = gr.direct_product(*pair), reference_direct_product(*pair)
    assert got == want      # table, labels, name, identity and inverse
    assert (got.byte_rows, got.byte_cols) == (want.byte_rows, want.byte_cols)


def test_bad_table_rejected():
    with pytest.raises(DimensionMismatch):
        gr.FiniteGroup(((0, 1), (0, 1)), ("e", "g"))  # not a Latin square


@pytest.mark.parametrize("table, labels, message", [
    (((0, 1), (1, 0)), ("e",), "labels must match the table size"),
    (((0, 1), (1,)), ("e", "g"), "Cayley table is not square over 0..n-1"),
    (((0, 2), (1, 0)), ("e", "g"), "Cayley table is not square over 0..n-1"),
    (((0, 0), (1, 0)), ("e", "g"), "Cayley table rows must be permutations"),
    (((0, 1), (0, 1)), ("e", "g"), "Cayley table columns must be permutations"),
    (((0, 2, 1), (2, 1, 0), (1, 0, 2)), ("a", "b", "c"),
     "table has no identity element"),
    # several faults: rows are read one at a time, each for its shape
    # first, and all rows before any column
    (((0, 0), (1, 2)), ("e", "g"), "Cayley table rows must be permutations"),
    (((0, 1), (0, 0)), ("e", "g"), "Cayley table rows must be permutations"),
], ids=["labels", "ragged", "out-of-range", "row-repeat", "column-repeat",
        "no-identity", "row-before-range", "row-before-column"])
def test_table_check_messages(table, labels, message):
    with pytest.raises(DimensionMismatch) as exc:
        gr.FiniteGroup(table, labels)
    assert str(exc.value) == message


# a loop of order 5: a Latin square with identity 0 and unique inverses
# that is not associative
LOOP5 = ((0, 1, 2, 3, 4),
         (1, 0, 3, 4, 2),
         (2, 4, 0, 1, 3),
         (3, 2, 4, 0, 1),
         (4, 3, 1, 2, 0))


@pytest.mark.parametrize("seed", range(6))
def test_non_associative_table_names_first_triple(seed):
    rng = random.Random(seed)
    perm = list(range(5))
    rng.shuffle(perm)
    table = [[0] * 5 for _ in range(5)]
    for a, b in product(range(5), repeat=2):
        table[perm[a]][perm[b]] = perm[LOOP5[a][b]]
    expected = first_associativity_failure(table)
    assert expected is not None
    with pytest.raises(DimensionMismatch) as exc:
        gr.FiniteGroup(tuple(map(tuple, table)), tuple("abcde"))
    assert str(exc.value) == "table is not associative at (%d,%d,%d)" % expected


def reduced_latin_squares(n):
    """Every n×n Latin square whose row 0 and column 0 read 0..n-1: the
    loops of order n with identity 0 (56 of them for n = 5)."""
    squares = []
    table = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == n * n:
            squares.append(tuple(map(tuple, table)))
            return
        r, c = divmod(cell, n)
        if table[r][c] is not None:
            fill(cell + 1)
            return
        for v in range(n):
            if v not in table[r] and all(row[c] != v for row in table):
                table[r][c] = v
                fill(cell + 1)
                table[r][c] = None
    fill(0)
    return squares


@pytest.mark.parametrize("seed", range(3))
def test_light_test_agrees_with_the_triple_loop_on_relabelled_loops(seed):
    # every loop of order 5, relabelled so that the identity may sit at any
    # index: Light's test over the greedy generators accepts exactly the
    # associative ones (the six tables of Z5), and a rejection names the
    # first failing triple of the brute-force loop
    rng = random.Random(seed)
    loops = reduced_latin_squares(5)
    assert len(loops) == 56
    accepted = 0
    for loop in loops:
        perm = rng.sample(range(5), 5)
        table = [[0] * 5 for _ in range(5)]
        for a, b in product(range(5), repeat=2):
            table[perm[a]][perm[b]] = perm[loop[a][b]]
        table = tuple(map(tuple, table))
        expected = first_associativity_failure(table)
        if expected is None:
            accepted += 1
            assert gr.FiniteGroup(table, tuple("abcde")).identity == perm[0]
            continue
        with pytest.raises(DimensionMismatch) as exc:
            gr.FiniteGroup(table, tuple("abcde"))
        assert str(exc.value) == "table is not associative at (%d,%d,%d)" % expected
    assert accepted == 6


def test_non_associative_table_above_byte_range_names_first_triple():
    # LOOP5 x Z52 has order 260, so it has no byte tables; the pair
    # (x, y) at index 52x + y fails exactly where its LOOP5 part does, so
    # the first failing triple is LOOP5's with every y = 0
    n = 52
    table = tuple(tuple(LOOP5[a // n][b // n] * n + (a + b) % n
                        for b in range(5 * n)) for a in range(5 * n))
    a, b, c = first_associativity_failure(LOOP5)
    with pytest.raises(DimensionMismatch) as exc:
        gr.FiniteGroup(table, tuple(map(str, range(5 * n))))
    assert str(exc.value) == "table is not associative at (%d,%d,%d)" % (
        a * n, b * n, c * n)


def test_associativity_check_accepts_groups():
    assert gr.cyclic(1).inverse == (0,)
    assert gr.FiniteGroup([[0, 1], [1, 0]], ("e", "g")).inverse == (0, 1)
    for g in (gr.symmetric(4), gr.dihedral(5), gr.quaternion_group()):
        assert first_associativity_failure(g.table) is None


# -- Rota-Baxter group operators ----------------------------------------------------

def test_trivial_and_inverse_operators_valid(s3):
    gr.rb_trivial_op(s3)
    gr.rb_inverse_op(s3)
    for g in (gr.cyclic(5), gr.quaternion_group()):
        gr.rb_trivial_op(g)
        gr.rb_inverse_op(g)


def test_identity_map_fails_on_s3(s3):
    with pytest.raises(IdentityFails) as exc:
        gr.verify_rb_group(s3, tuple(range(6)))
    assert exc.value.witness.at == ("r", "s")


@pytest.mark.parametrize("name", ["S3", "D4", "Z4xZ4"])
def test_perturbed_table_witness_is_first_failing_pair(name):
    g = {"S3": gr.dihedral(3), "D4": gr.dihedral(4), "Z4xZ4": z4_z4}[name]
    rng = random.Random(name)
    ops = gr.enumerate_rb_group_ops(g)
    for op in rng.sample(ops, min(6, len(ops))):
        for _ in range(4):
            table = list(op.table)
            x = rng.randrange(g.order)
            table[x] = (table[x] + rng.randrange(1, g.order)) % g.order
            expected = first_rb_witness(g, table)
            if expected is None:
                assert gr.verify_rb_group(g, table).table == tuple(table)
                continue
            with pytest.raises(IdentityFails) as exc:
                gr.verify_rb_group(g, table)
            assert exc.value.witness == expected


def test_verify_rb_group_on_every_map_of_small_groups(s3):
    for g in (gr.cyclic(4), gr.dihedral(2), gr.cyclic(5), s3):
        for table in product(range(g.order), repeat=g.order):
            expected = first_rb_witness(g, table)
            if expected is None:
                assert gr.verify_rb_group(g, table).table == table
                continue
            with pytest.raises(IdentityFails) as exc:
                gr.verify_rb_group(g, table)
            assert exc.value.witness == expected


def test_verify_rb_group_rejects_malformed_tables(s3):
    for table in ((0,) * 5, (0,) * 7, (0, 1, 2, 3, 4, 6), (0, 1, 2, -1, 4, 5)):
        with pytest.raises(DimensionMismatch):
            gr.verify_rb_group(s3, table)


# -- the byte-row kernel of verify_rb_group at its size boundaries ---------------------
# order 1; order 256, whose translate tables need no padding; order 272,
# above the byte cap, where every row is scanned pair by pair

BOUNDARY_GROUPS = {
    "1": gr.trivial_group,
    "Z256": lambda: gr.cyclic(256),
    "Z16xZ17": lambda: gr.direct_product(gr.cyclic(16), gr.cyclic(17)),
}


@pytest.fixture(scope="module", params=sorted(BOUNDARY_GROUPS))
def boundary_group(request):
    return BOUNDARY_GROUPS[request.param]()


def test_byte_tables_are_the_cayley_rows_and_columns(boundary_group):
    g = boundary_group
    n = g.order
    if n > 256:
        assert g.byte_rows is None and g.byte_cols is None
        return
    assert len(g.byte_rows) == len(g.byte_cols) == n
    for x in range(n):
        assert g.byte_rows[x] == bytes(g.table[x]) + bytes(256 - n)
        assert g.byte_cols[x] == bytes(g.table[b][x] for b in range(n))


def test_byte_tables_leave_equality_hash_and_repr_alone(boundary_group):
    g = boundary_group
    compared = (g.table, g.labels, g.name, g.identity, g.inverse)
    assert hash(g) == hash(compared)
    assert repr(g) == ("FiniteGroup(table=%r, labels=%r, name=%r, identity=%r, "
                       "inverse=%r)" % compared)
    other = gr.FiniteGroup(g.table, g.labels, g.name)
    object.__setattr__(other, "byte_rows", ())
    object.__setattr__(other, "byte_cols", ())
    assert other == g and hash(other) == hash(g)


def test_standard_operators_pass_at_the_boundaries(boundary_group):
    g = boundary_group
    assert gr.rb_inverse_op(g).table == g.inverse
    assert gr.rb_trivial_op(g).table == (g.identity,) * g.order


def test_perturbed_operators_fail_at_the_first_pair_at_the_boundaries(
        boundary_group):
    g = boundary_group
    n = g.order
    if n == 1:  # the only map is the trivial operator
        return
    rng = random.Random(n)
    for base in (g.inverse, (g.identity,) * n):
        for _ in range(3):
            table = list(base)
            x = rng.randrange(n)
            table[x] = (table[x] + rng.randrange(1, n)) % n
            expected = first_rb_witness(g, table)
            assert expected is not None
            with pytest.raises(IdentityFails) as exc:
                gr.verify_rb_group(g, table)
            assert exc.value.witness == expected


def test_translation_by_an_involution_fails_at_the_boundaries(boundary_group):
    # B(b) = b u with u^2 = e on an abelian group: a B(a) b B(a)^{-1}
    # equals B(a)B(b) = ab on every pair, so a row check that leaves out
    # the final application of B would accept this map
    g = boundary_group
    if g.order == 1:
        return
    u = next(x for x in range(1, g.order) if g.mul(x, x) == g.identity)
    table = [g.mul(b, u) for b in range(g.order)]
    with pytest.raises(IdentityFails) as exc:
        gr.verify_rb_group(g, table)
    assert exc.value.witness == first_rb_witness(g, table)


def test_skew_brace_from_inverse_operator_is_opposite(s3):
    sb = gr.skew_brace_from_rb_group(gr.rb_inverse_op(s3))
    for x in range(6):
        for y in range(6):
            assert sb.circle[x][y] == s3.mul(y, x)


def test_skew_brace_from_trivial_operator_is_original(s3):
    sb = gr.skew_brace_from_rb_group(gr.rb_trivial_op(s3))
    assert sb.circle == s3.table


def test_skew_brace_abelian_always_original():
    z6 = gr.cyclic(6)
    for op in gr.enumerate_rb_group_ops(z6):
        assert gr.skew_brace_from_rb_group(op).circle == z6.table


# -- enumeration -----------------------------------------------------------------------

@pytest.mark.parametrize("n,count", [(2, 2), (3, 3), (4, 4), (5, 5), (6, 6)])
def test_enumeration_counts_cyclic(n, count):
    # abelian case: the identity reduces to B(gh) = B(g)B(h), so the
    # operators are exactly the endomorphisms g -> g^k
    ops = gr.enumerate_rb_group_ops(gr.cyclic(n))
    assert len(ops) == count
    tables = {op.table for op in ops}
    for k in range(n):
        assert tuple((k * i) % n for i in range(n)) in tables


def test_enumeration_z2_exactly_two():
    ops = gr.enumerate_rb_group_ops(gr.cyclic(2))
    assert sorted(op.table for op in ops) == [(0, 0), (0, 1)]


def test_enumeration_matches_brute_force_small():
    for g in (gr.cyclic(2), gr.cyclic(3), gr.cyclic(4),
              gr.direct_product(gr.cyclic(2), gr.cyclic(2))):
        assert [op.table for op in gr.enumerate_rb_group_ops(g)] == \
            all_rb_ops_brute_force(g)


def test_enumeration_matches_brute_force_order_six(s3):
    for g in (s3, gr.cyclic(6)):
        assert [op.table for op in gr.enumerate_rb_group_ops(g)] == \
            all_rb_ops_brute_force(g)


def test_enumeration_s3_contains_standard_ops(s3):
    tables = {op.table for op in gr.enumerate_rb_group_ops(s3)}
    assert (s3.identity,) * 6 in tables
    assert s3.inverse in tables


def test_budget_exceeded_carries_partials(s3):
    with pytest.raises(gr.BudgetExceeded):
        gr.enumerate_rb_group_ops(s3, budget=2)


def test_search_rechecks_every_operator_it_finds(s3, monkeypatch):
    # a table that the row scan rejects is a fault of the search
    monkeypatch.setattr(gr, "rb_group_failure",
                        lambda g, t: (0, 1) if t == s3.inverse else None)
    with pytest.raises(InternalTheoremViolation,
                       match=r"search found a non-operator \(0, 2, 1, 3, 4, 5\)"):
        gr.enumerate_rb_group_ops(s3)


def test_negative_budget_rejected_before_search(s3):
    with pytest.raises(ValueError, match="search budget -1 is below 0"):
        gr.enumerate_rb_group_ops(s3, budget=-1)
    # zero is a budget: the root node already exceeds it
    with pytest.raises(gr.BudgetExceeded, match="search budget 0 exceeded"):
        gr.enumerate_rb_group_ops(s3, budget=0)


ORACLE_GROUPS = {
    "D4": lambda: gr.dihedral(4),
    "Q8": gr.quaternion_group,
    "Z2xZ4": lambda: gr.direct_product(c2, c4),
    "Z2^3": lambda: z2_cubed,
    "D6": lambda: gr.dihedral(6),
    "S3xZ2": lambda: gr.direct_product(gr.dihedral(3), c2),
    "D8": lambda: gr.dihedral(8),
    "Z4xZ4": lambda: z4_z4,
    "S4": lambda: gr.symmetric(4),
    "S3xZ3": lambda: gr.direct_product(gr.dihedral(3), gr.cyclic(3)),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_enumeration_matches_full_rescan_reference(name):
    g = ORACLE_GROUPS[name]()
    rng = random.Random(name)
    for shuffled in (False, True):
        perm = list(range(g.order))
        if shuffled:
            rng.shuffle(perm)
        h = relabel(g, perm)
        expected, nodes = reference_enumeration(h)
        assert [op.table for op in gr.enumerate_rb_group_ops(h)] == expected
        # the search tree is the reference's: all of it fits a budget of
        # its node count, and one node less trips with the same partials
        assert [op.table for op in gr.enumerate_rb_group_ops(h, nodes)] == expected
        with pytest.raises(gr.BudgetExceeded) as ref:
            reference_enumeration(h, nodes - 1)
        with pytest.raises(gr.BudgetExceeded) as got:
            gr.enumerate_rb_group_ops(h, nodes - 1)
        assert [op.table for op in got.value.partial] == \
            [op.table for op in ref.value.partial]


@pytest.mark.parametrize("n", [3, 4])
def test_budget_trips_where_full_rescan_reference_does(n):
    g = gr.dihedral(n)
    tables, nodes = reference_enumeration(g)
    for budget in range(1, nodes + 1):
        try:
            reference_enumeration(g, budget)
        except gr.BudgetExceeded as exc:
            expected = [op.table for op in exc.partial]
        else:
            expected = None
        try:
            ops = gr.enumerate_rb_group_ops(g, budget)
        except gr.BudgetExceeded as exc:
            assert expected is not None, budget
            assert [op.table for op in exc.partial] == expected
        else:
            assert expected is None, budget
            assert [op.table for op in ops] == tables
    with pytest.raises(gr.BudgetExceeded):
        gr.enumerate_rb_group_ops(g, nodes - 1)


def shipped_abelian_groups():
    """One shipped construction of each abelian group of order <= 16."""
    c = gr.cyclic
    d = gr.direct_product
    groups = [c(n) for n in range(1, 17)]
    groups += [gr.dihedral(2), d(c2, c4), z2_cubed, d(c(3), c(3)),
               d(c2, c(6)), d(c2, c(8)), z4_z4, d(d(c2, c2), c4), z2_fourth]
    return groups


@pytest.mark.parametrize("g", shipped_abelian_groups(), ids=str)
def test_abelian_operators_are_the_endomorphisms(g):
    assert g.is_abelian()
    homs = endomorphisms(g)
    assert [op.table for op in gr.enumerate_rb_group_ops(g)] == homs
    if g is z2_cubed:
        assert len(homs) == 512
    if g is z4_z4:
        assert len(homs) == 256
    if g is z2_fourth:
        assert len(homs) == 65536


# -- lifting and cross-level consistency --------------------------------------------------

def test_lift_inverse_is_antipode(s3):
    lift = gr.lift_to_group_algebra(gr.rb_inverse_op(s3))
    assert lift.map == lift.carrier.antipode


def test_lift_trivial_is_unit_counit(s3):
    from hopfkit.hopf import unit_counit_map
    lift = gr.lift_to_group_algebra(gr.rb_trivial_op(s3))
    assert lift.map == unit_counit_map(lift.carrier)


def test_all_z4_lifts_pass():
    for op in gr.enumerate_rb_group_ops(gr.cyclic(4)):
        gr.lift_to_group_algebra(op)


def test_order_le_8_ops_lift_and_descend():
    groups = [gr.cyclic(7), gr.cyclic(8), gr.dihedral(4),
              gr.quaternion_group(),
              gr.direct_product(gr.cyclic(2), gr.cyclic(4))]
    for g in groups:
        ops = gr.enumerate_rb_group_ops(g)
        # spot-check the lift on a deterministic sample (full corpus is
        # covered for order <= 6 by the acceptance suite)
        for op in ops[::max(1, len(ops) // 6)]:
            gr.skew_brace_from_rb_group(op)
            lift = gr.lift_to_group_algebra(op)
            hk.descend(lift)


def test_group_vs_algebra_circle_products_agree(s3):
    for op in gr.enumerate_rb_group_ops(s3):
        sb = gr.skew_brace_from_rb_group(op)
        lift = gr.lift_to_group_algebra(op)
        circle = hk.descend(lift).hopf
        for x in range(6):
            for y in range(6):
                assert circle.mul_basis(x, y) == \
                    circle.space.basis(sb.circle[x][y])


def test_set_ybe_map_matches_lifted_braiding(s3):
    from hopfkit.linalg import tensor_index
    for op in gr.enumerate_rb_group_ops(s3):
        lift = gr.lift_to_group_algebra(op)
        y = hk.ybe_from_rb(lift)
        smap = gr.ybe_set_map(op)
        for (a, b), (u, v) in smap.items():
            col = y.c.columns[tensor_index(a, b, 6)]
            assert col == y.c.codomain.basis(tensor_index(u, v, 6))


def test_set_ybe_map_satisfies_braid_relation(s3):
    # independent group-level check of the braid relation
    for op in gr.enumerate_rb_group_ops(s3):
        smap = gr.ybe_set_map(op)

        def c01(t):
            u, v = smap[(t[0], t[1])]
            return (u, v, t[2])

        def c12(t):
            u, v = smap[(t[1], t[2])]
            return (t[0], u, v)

        for t in product(range(6), repeat=3):
            assert c01(c12(c01(t))) == c12(c01(c12(t)))


# -- subgroups and exact factorizations ------------------------------------------------

def test_subgroups_of_s3(s3):
    subs = gr.subgroups(s3)
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 3, 6]


def test_exact_factorizations_s3(s3):
    pairs, triples = gr.find_exact_factorizations(s3)
    r_grp = tuple(sorted([s3.identity, s3.labels.index("r"),
                          s3.labels.index("r2")]))
    s_grp = tuple(sorted([s3.identity, s3.labels.index("s")]))
    sr_grp = tuple(sorted([s3.identity, s3.labels.index("rs")]))
    assert (r_grp, s_grp) in pairs
    assert (r_grp, sr_grp) in pairs
    assert ((s3.identity,), r_grp, s_grp) in triples


def test_exact_factorizations_z4_trivial_only():
    z4 = gr.cyclic(4)
    pairs, _ = gr.find_exact_factorizations(z4)
    assert sorted(pairs) == [((0,), (0, 1, 2, 3)), ((0, 1, 2, 3), (0,))]


def test_exact_factorizations_q8_trivial_only():
    # every nontrivial subgroup of Q8 contains -1
    q8 = gr.quaternion_group()
    pairs, _ = gr.find_exact_factorizations(q8)
    assert all(len(a) == 1 or len(b) == 1 for a, b in pairs)


def test_exact_factorizations_trivial_group():
    pairs, triples = gr.find_exact_factorizations(gr.trivial_group())
    assert pairs == [((0,), (0,))]
    assert triples == [((0,), (0,), (0,))]


def test_automorphism_lift(s3, f2):
    perm = gr.conjugation_automorphism(s3, s3.labels.index("r"))
    op = gr.lift_automorphism(f2, perm)
    assert hk.check_bialgebra_automorphism(op, f2)

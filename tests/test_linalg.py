"""Exact arithmetic, tensor products, kron, inversion and solving."""

import json
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from hopfkit.errors import (DimensionMismatch, NonUniqueSolution, NoSolution,
                            SingularMap)
from hopfkit.hopf import apply2
from hopfkit.linalg import (BasedSpace, Element, Field, LinearOp, QQ,
                            accumulate, invert, kron, rank, scaled_columns,
                            solve, tensor_elem, tensor_space)
from hopfkit.serialize import element_entries, map_entries

ORACLE = settings(max_examples=40, deadline=None, database=None)


def random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def test_rational_arithmetic_exact():
    rng = random.Random(20240601)
    for _ in range(100):
        a, b, c = (random_fraction(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c


def test_prime_field_arithmetic():
    f = Field(7)
    assert f.of(10) == 3
    assert f.of(1, 3) == f.inv(3)
    assert f.mul(f.of(1, 3), 3) == 1
    for a in range(1, 7):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ValueError):
        Field(6)


def test_large_prime_modulus_accepted_at_once():
    start = time.perf_counter()
    f = Field(2 ** 61 - 1)
    assert time.perf_counter() - start < 1.0
    assert f.mul(f.inv(3), 3) == 1


@pytest.mark.parametrize("modulus", [561, 41041, 2 ** 64 + 13])
def test_carmichael_and_oversized_moduli_rejected(modulus):
    with pytest.raises(ValueError):
        Field(modulus)


def test_modulus_check_matches_trial_division():
    def accepted(n):
        try:
            Field(n)
        except ValueError:
            return False
        return True

    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    for n in range(-2, 5000):
        assert accepted(n) == (n == 0 or trial(n))


def test_field_parse_render_round_trip():
    assert QQ.parse("2/3") == Fraction(2, 3)
    assert QQ.render(Fraction(-1, 4)) == "-1/4"
    assert QQ.parse(QQ.render(Fraction(5))) == 5
    f7 = Field(7)
    assert f7.parse("12") == 5
    assert f7.render(5) == "5"


def test_tensor_space_dimensions():
    a = BasedSpace(("x", "y"))
    b = BasedSpace(("u", "v", "w"))
    t = tensor_space(a, b)
    assert t.dim == 6


def test_tensor_space_label_order(f1):
    t = tensor_space(f1.space, f1.space)
    assert t.labels == (("e", "e"), ("e", "g"), ("g", "e"), ("g", "g"))


def test_tensor_associativity_relabeling():
    a = BasedSpace(("a1", "a2"))
    b = BasedSpace(("b1",))
    c = BasedSpace(("c1", "c2"))
    left = tensor_space(tensor_space(a, b), c)
    right = tensor_space(a, tensor_space(b, c))
    relabeled = [( (la, lb), lc ) for (la, (lb, lc)) in right.labels]
    assert list(left.labels) == relabeled


def test_kron_identity():
    a = BasedSpace(("x", "y"))
    b = BasedSpace(("u", "v", "w"))
    assert kron(LinearOp.identity(a), LinearOp.identity(b)).is_identity()


def test_kron_defining_property():
    rng = random.Random(7)
    a = BasedSpace(("x", "y"))
    b = BasedSpace(("u", "v", "w"))

    def random_op(space):
        return LinearOp(space, space, [
            Element(space, {i: random_fraction(rng) for i in range(space.dim)})
            for _ in range(space.dim)])

    f, g = random_op(a), random_op(b)
    fg = kron(f, g)
    t = tensor_space(a, b)
    for i in range(a.dim):
        for j in range(b.dim):
            assert fg(tensor_elem(t, a.basis(i), b.basis(j))) == \
                tensor_elem(t, f.columns[i], g.columns[j])


def test_kron_antipode_squares_to_identity(f1):
    # every element of Z2 is self-inverse, so (S ⊗ S) is the identity;
    # oracle: dense matrix of the Kronecker product computed by hand
    s = f1.antipode
    ss = kron(s, s)
    dense = [[0] * 4 for _ in range(4)]
    s_mat = [[1, 0], [0, 1]]  # inversion on Z2 is the identity permutation
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    dense[2 * i + k][2 * j + l] = s_mat[i][j] * s_mat[k][l]
    for col in range(4):
        got = {i: c for i, c in ss.columns[col].coeffs.items()}
        want = {row: Fraction(dense[row][col]) for row in range(4)
                if dense[row][col]}
        assert got == want
    assert ss.is_identity()


def test_kron_respects_composition():
    rng = random.Random(99)
    a = BasedSpace(("x", "y"))
    b = BasedSpace(("u", "v"))

    def random_op(space):
        return LinearOp(space, space, [
            Element(space, {i: random_fraction(rng) for i in range(space.dim)})
            for _ in range(space.dim)])

    f1_, f2_, g1, g2 = (random_op(s) for s in (a, a, b, b))
    assert kron(f2_.compose(f1_), g2.compose(g1)) == \
        kron(f2_, g2).compose(kron(f1_, g1))


def test_invert_identity():
    a = BasedSpace(("x", "y", "z"))
    assert invert(LinearOp.identity(a)).is_identity()


def test_invert_inversion_lift_is_itself(f2):
    # the antipode of a group algebra squares to the identity
    s = f2.antipode
    assert invert(s) == s


def test_invert_zero_map_singular():
    a = BasedSpace(("x", "y"))
    with pytest.raises(SingularMap):
        invert(LinearOp.zero(a, a))


def test_invert_random_invertible_round_trip():
    rng = random.Random(4242)
    space = BasedSpace(tuple(f"v{i}" for i in range(5)))
    for _ in range(20):
        # unit upper-triangular times a permutation is always invertible
        perm = list(range(5))
        rng.shuffle(perm)
        cols = []
        for j in range(5):
            coeffs = {perm[j]: Fraction(1)}
            for i in range(j):
                coeffs[perm[i]] = random_fraction(rng)
            cols.append(Element(space, coeffs))
        f = LinearOp(space, space, cols)
        assert invert(f).compose(f).is_identity()
        assert f.compose(invert(f)).is_identity()


def test_solve_identity():
    a = BasedSpace(("x", "y"))
    b = Element(a, {0: Fraction(3), 1: Fraction(-2)})
    assert solve(LinearOp.identity(a), b) == b


def test_solve_diagonal():
    a = BasedSpace(("x", "y"))
    diag = LinearOp(a, a, [Element(a, {0: Fraction(2)}),
                           Element(a, {1: Fraction(3)})])
    b = Element(a, {0: Fraction(1), 1: Fraction(1)})
    assert solve(diag, b) == Element(a, {0: Fraction(1, 2), 1: Fraction(1, 3)})


def test_solve_inconsistent():
    a = BasedSpace(("x", "y"))
    sing = LinearOp(a, a, [Element(a, {0: Fraction(1)}),
                           Element(a, {0: Fraction(1)})])
    with pytest.raises(NoSolution):
        solve(sing, Element(a, {1: Fraction(1)}))


def test_solve_underdetermined_reports_nullity():
    a = BasedSpace(("x", "y"))
    sing = LinearOp(a, a, [Element(a, {0: Fraction(1)}),
                           Element(a, {0: Fraction(1)})])
    with pytest.raises(NonUniqueSolution) as exc:
        solve(sing, Element(a, {0: Fraction(1)}))
    assert exc.value.nullity == 1


def test_element_canonical_no_zeros():
    a = BasedSpace(("x", "y"))
    e = Element(a, {0: Fraction(1), 1: Fraction(0)})
    assert list(e.coeffs) == [0]
    assert (e - e).is_zero()


def test_element_rejects_out_of_range_index():
    from hopfkit.errors import DimensionMismatch
    a = BasedSpace(("x", "y"))
    with pytest.raises(DimensionMismatch):
        Element(a, {5: Fraction(1)})


def test_element_reduces_prime_field_scalars():
    space = BasedSpace(("x", "y"), Field(7))
    e = Element(space, {0: 7, 1: 8})
    assert e == space.basis(1)
    assert e.coeffs == {1: 1}
    assert str(e) == "1*y"
    assert Element(space, {0: -1, 1: Fraction(1, 2)}).coeffs == {0: 6, 1: 4}


def test_element_stores_integral_rationals_as_int():
    space = BasedSpace(("x", "y"))
    e = Element(space, {0: Fraction(4, 2), 1: Fraction(1, 2)})
    assert e.coeffs == {0: 2, 1: Fraction(1, 2)}
    assert type(e.coeffs[0]) is int
    assert type(e.coeffs[1]) is Fraction


@pytest.mark.parametrize("field", [QQ, Field(7)])
@pytest.mark.parametrize("bad", [0.5, 1.0, "1", None])
def test_element_refuses_non_exact_scalars(field, bad):
    with pytest.raises(TypeError):
        Element(BasedSpace(("x", "y"), field), {0: bad})


def test_tensor_space_field_mismatch():
    from hopfkit.errors import FieldMismatch
    a = BasedSpace(("x",), Field(5))
    b = BasedSpace(("y",), Field(7))
    with pytest.raises(FieldMismatch):
        tensor_space(a, b)


def test_prime_field_space_round_trip():
    f5 = Field(5)
    a = BasedSpace(("x", "y"), f5)
    u = Element(a, {0: 3, 1: 4})
    v = Element(a, {0: 2, 1: 1})
    assert (u + v).coeffs == {}  # 3+2 = 0 and 4+1 = 0 mod 5
    assert u.scale(2).coeffs == {0: 1, 1: 3}


# -- elimination against a dense reference ---------------------------------------

def dense_rank(field, matrix):
    """Rank of a list-of-rows matrix by textbook dense Gauss-Jordan."""
    m = [list(row) for row in matrix]
    r = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((k for k in range(r, len(m)) if m[k][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][col])
        m[r] = [field.mul(inv, v) for v in m[r]]
        for k in range(len(m)):
            if k != r and m[k][col] != 0:
                factor = m[k][col]
                m[k] = [field.sub(a, field.mul(factor, b))
                        for a, b in zip(m[k], m[r])]
        r += 1
    return r


# Mostly zeros, so that rows hold one or two entries as in the solver's
# largest systems, with enough variety to hit every rank.
SPARSE_ENTRIES = st.sampled_from([(0, 1)] * 8 + [(1, 1), (-1, 1), (2, 1),
                                                 (-3, 1), (1, 2), (-2, 3)])


def draw_matrix(data, field, nrows, ncols):
    return [[field.of(num, den) for num, den in
             data.draw(st.lists(SPARSE_ENTRIES, min_size=ncols, max_size=ncols))]
            for _ in range(nrows)]


def draw_vector(data, space):
    row = draw_matrix(data, space.field, 1, space.dim)[0]
    return Element(space, dict(enumerate(row)))


def as_map(field, matrix, ncols):
    dom = BasedSpace(tuple(f"x{j}" for j in range(ncols)), field)
    cod = BasedSpace(tuple(f"y{i}" for i in range(len(matrix))), field)
    return LinearOp(dom, cod, [Element(cod, {i: row[j] for i, row in enumerate(matrix)})
                               for j in range(ncols)])


@ORACLE
@given(field=st.sampled_from([QQ, Field(7)]), n=st.integers(1, 8), data=st.data())
def test_invert_and_rank_match_dense_reference(field, n, data):
    matrix = draw_matrix(data, field, n, n)
    f = as_map(field, matrix, n)
    expected = dense_rank(field, matrix)
    assert rank(f) == expected
    if expected < n:
        with pytest.raises(SingularMap):
            invert(f)
        return
    g = invert(f)
    assert f.compose(g).is_identity()
    assert g.compose(f).is_identity()


@ORACLE
@given(field=st.sampled_from([QQ, Field(7)]), nrows=st.integers(1, 10),
       ncols=st.integers(1, 8), consistent=st.booleans(), data=st.data())
def test_solve_matches_dense_reference(field, nrows, ncols, consistent, data):
    matrix = draw_matrix(data, field, nrows, ncols)
    a = as_map(field, matrix, ncols)
    b = a(draw_vector(data, a.domain)) if consistent else draw_vector(data, a.codomain)
    rank_a = dense_rank(field, matrix)
    rank_ab = dense_rank(field, [row + [b.coefficient(i)]
                                 for i, row in enumerate(matrix)])
    if rank_ab > rank_a:
        with pytest.raises(NoSolution):
            solve(a, b)
    elif rank_a < ncols:
        with pytest.raises(NonUniqueSolution) as exc:
            solve(a, b)
        assert exc.value.nullity == ncols - rank_a
    else:
        assert a(solve(a, b)) == b


# -- the accumulate kernel against Fraction-only references ---------------------

ACC_DIM = 4
# Coprime denominators, negatives and zero; ints and Fractions mixed.
ACC_RATIONAL = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5, 7])))


def draw_terms(data, scalars, field):
    space = BasedSpace(tuple(f"x{i}" for i in range(ACC_DIM)), field)
    terms = []
    for _ in range(data.draw(st.integers(0, 6))):
        coeff = data.draw(scalars)
        coeffs = data.draw(st.dictionaries(st.integers(0, ACC_DIM - 1), scalars,
                                           max_size=ACC_DIM))
        if field.p:
            coeffs = {i: c % field.p for i, c in coeffs.items()}
        # Built canonical directly, so Fraction(n, 1) entries stay as drawn.
        elem = Element(space, {i: c for i, c in coeffs.items() if c},
                       _canonical=True)
        terms.append((coeff, elem))
        if data.draw(st.booleans()):
            terms.append((-coeff, elem))   # cancels the term just added
    return space, terms


@ORACLE
@given(data=st.data())
def test_accumulate_matches_fraction_reference_over_q(data):
    space, terms = draw_terms(data, ACC_RATIONAL, QQ)
    ref: dict = {}
    for coeff, elem in terms:
        for i, c in elem.coeffs.items():
            ref[i] = ref.get(i, Fraction(0)) + Fraction(coeff) * Fraction(c)
    ref = {i: v for i, v in ref.items() if v != 0}
    got = accumulate(space, terms).coeffs
    assert got == ref
    assert all(v != 0 for v in got.values())
    for v in got.values():
        assert type(v) is (int if v.denominator == 1 else Fraction)


@ORACLE
@given(data=st.data())
def test_accumulate_matches_reduced_reference_over_f7(data):
    space, terms = draw_terms(data, st.integers(-10, 10), Field(7))
    ref: dict = {}
    for coeff, elem in terms:
        for i, c in elem.coeffs.items():
            ref[i] = (ref.get(i, 0) + coeff * c) % 7
    ref = {i: v for i, v in ref.items() if v}
    got = accumulate(space, terms).coeffs
    assert got == ref
    assert all(type(v) is int and 0 < v < 7 for v in got.values())


def test_int_and_fraction_scalars_render_identically():
    space = BasedSpace(("x", "y", "z"))
    values = [3, -2, 1, 7]

    def build(scalar):
        cols = [{0: scalar(3), 2: scalar(-2)}, {1: scalar(1)},
                {0: scalar(7), 1: scalar(-2)}]
        return LinearOp(space, space,
                        [Element(space, c, _canonical=True) for c in cols])

    ints, fracs = build(int), build(Fraction)
    assert type(fracs.columns[1].coeffs[1]) is Fraction
    assert ints == fracs
    assert [QQ.render(v) for v in values] == \
        [QQ.render(Fraction(v)) for v in values]
    assert json.dumps(map_entries(ints)).encode() == \
        json.dumps(map_entries(fracs)).encode()


# -- scaled int columns ----------------------------------------------------------

@ORACLE
@given(data=st.data())
def test_scaled_columns_match_fraction_columns_over_q(data):
    space = BasedSpace(tuple(f"x{i}" for i in range(ACC_DIM)))
    cols = [Element(space, data.draw(st.dictionaries(
        st.integers(0, ACC_DIM - 1), ACC_RATIONAL, max_size=ACC_DIM)))
        for _ in range(data.draw(st.integers(1, 4)))]
    op = LinearOp(BasedSpace(tuple(range(len(cols)))), space, cols)
    den, scaled = scaled_columns(op)
    dens = [c.denominator for col in cols for c in col.coeffs.values()]
    assert den == lcm(1, *dens)
    for col, pairs in zip(cols, scaled):
        assert all(type(n) is int for _, n in pairs)
        assert {i: Fraction(n, den) for i, n in pairs} == col.coeffs


def general_scaled_columns(op):
    """scaled_columns by its general rule: every value over the lcm of all
    denominators."""
    den = lcm(1, *(c.denominator for col in op.columns
                   for c in col.coeffs.values()))
    return den, [tuple((i, c.numerator * (den // c.denominator))
                       for i, c in col.coeffs.items()) for col in op.columns]


# canonical elements may hold ints, Fractions and, after mixed arithmetic,
# a Fraction(n, 1)
SCALED_VALUE = st.one_of(st.integers(-9, 9), ACC_RATIONAL,
                         st.integers(-9, 9).map(Fraction)).filter(bool)


@ORACLE
@given(data=st.data(), value=st.sampled_from(
    [st.integers(-9, 9).filter(bool), st.integers(1, 9).map(Fraction),
     SCALED_VALUE]))
def test_scaled_columns_of_integral_columns_equal_the_general_path(data,
                                                                   value):
    space = BasedSpace(tuple(f"x{i}" for i in range(ACC_DIM)))
    cols = [Element(space, data.draw(st.dictionaries(
        st.integers(0, ACC_DIM - 1), value, max_size=ACC_DIM)),
        _canonical=True) for _ in range(data.draw(st.integers(1, 4)))]
    op = LinearOp(BasedSpace(tuple(range(len(cols)))), space, cols)
    den, scaled = scaled_columns(op)
    assert (den, scaled) == general_scaled_columns(op)
    assert all(type(n) is int for pairs in scaled for _, n in pairs)


def test_scaled_columns_over_prime_field_are_stored_ints():
    f7 = Field(7)
    space = BasedSpace(("x", "y"), f7)
    op = LinearOp(space, space, [Element(space, {0: 3, 1: Fraction(1, 2)}),
                                 Element(space, {1: -1})])
    assert scaled_columns(op) == (1, [((0, 3), (1, 4)), ((1, 6),)])


# -- the element kernel against its generator form ----------------------------------

def generator_accumulate(space, terms):
    """``accumulate`` as written before ``apply2`` and ``LinearOp.__call__``
    got their one-term shortcuts, copied as the oracle: every term's
    coefficient multiplies every entry, and each sum is reduced at the end."""
    p = space.field.p
    if p:
        acc: dict = {}
        for coeff, elem in terms:
            if coeff == 0:
                continue
            for i, c in elem.coeffs.items():
                v = (acc.get(i, 0) + coeff * c) % p
                if v:
                    acc[i] = v
                else:
                    acc.pop(i, None)
        return Element(space, acc, _canonical=True)
    num: dict = {}
    den: dict = {}
    for coeff, elem in terms:
        if coeff == 0:
            continue
        cn, cd = coeff.numerator, coeff.denominator
        for i, c in elem.coeffs.items():
            tn, td = cn * c.numerator, cd * c.denominator
            d = den.get(i)
            if d is None:
                num[i], den[i] = tn, td
            elif d == td:
                num[i] += tn
            else:
                g = gcd(d, td)
                num[i] = num[i] * (td // g) + tn * (d // g)
                den[i] = d // g * td
    return Element(space, {i: n // den[i] if n % den[i] == 0
                           else Fraction(n, den[i])
                           for i, n in num.items() if n}, _canonical=True)


def generator_call(op, elem):
    return generator_accumulate(op.codomain, ((c, op.columns[i])
                                              for i, c in elem.coeffs.items()))


def generator_apply2(op, x, y):
    dim_y = y.space.dim
    return generator_accumulate(op.codomain, (
        (cx * cy, op.columns[i * dim_y + j])
        for i, cx in x.coeffs.items() for j, cy in y.coeffs.items()))


F7 = Field(7)
# Units and non-units, -1, 1/2 and 2 (product 1), and Fraction(n, 1) entries.
KERNEL_SCALARS = {
    QQ: st.sampled_from([1, -1, 2, 3, -3, Fraction(1, 2), Fraction(-2, 3),
                         Fraction(1), Fraction(-1), Fraction(4, 1),
                         Fraction(3, 2)]),
    F7: st.integers(1, 6),
}
KERNEL_KINDS = ("basis", "one-term", "zero", "multi")


def draw_kernel_element(data, space):
    """A canonical element of ``space``: a basis vector, one scaled basis
    vector, zero, or two or more terms.  Entries are stored as drawn, so
    Fraction(n, 1) stays a Fraction."""
    scalars = KERNEL_SCALARS[space.field]
    kind = data.draw(st.sampled_from(KERNEL_KINDS))
    index = st.integers(0, space.dim - 1)
    if kind == "basis":
        coeffs = {data.draw(index): 1}
    elif kind == "one-term":
        coeffs = {data.draw(index): data.draw(scalars)}
    elif kind == "zero":
        coeffs = {}
    else:
        coeffs = data.draw(st.dictionaries(index, scalars, min_size=2,
                                           max_size=space.dim))
    return Element(space, coeffs, _canonical=True)


def draw_kernel_op(data, domain, codomain):
    return LinearOp(domain, codomain, [draw_kernel_element(data, codomain)
                                       for _ in range(domain.dim)])


def assert_same_element(got, want):
    """Equal values, equal text and equal serialized bytes, canonical."""
    assert got == want
    assert str(got) == str(want)
    assert json.dumps(element_entries(got)).encode() == \
        json.dumps(element_entries(want)).encode()
    assert all(c != 0 for c in got.coeffs.values())
    if got.space.field.p:
        assert all(type(c) is int and 0 < c < got.space.field.p
                   for c in got.coeffs.values())


def kernel_spaces(field):
    x = BasedSpace(("x0", "x1", "x2"), field)
    y = BasedSpace(("y0", "y1"), field)
    z = BasedSpace(("z0", "z1", "z2"), field)
    return x, y, z


@settings(max_examples=150, deadline=None, database=None)
@given(field=st.sampled_from([QQ, F7]), data=st.data())
def test_apply2_matches_generator_form(field, data):
    x_space, y_space, z = kernel_spaces(field)
    op = draw_kernel_op(data, tensor_space(x_space, y_space), z)
    x = draw_kernel_element(data, x_space)
    y = draw_kernel_element(data, y_space)
    assert_same_element(apply2(op, x, y), generator_apply2(op, x, y))


@settings(max_examples=100, deadline=None, database=None)
@given(field=st.sampled_from([QQ, F7]), data=st.data())
def test_linear_op_call_matches_generator_form(field, data):
    x_space, _, z = kernel_spaces(field)
    op = draw_kernel_op(data, x_space, z)
    x = draw_kernel_element(data, x_space)
    assert_same_element(op(x), generator_call(op, x))


def one_term(space, i, c):
    return Element(space, {i: c}, _canonical=True)


def kernel_map(field):
    """A map X ⊗ Y -> Z whose column 3, at x1 ⊗ y1, holds a Fraction(3, 1)
    over Q; the other columns are basis vectors."""
    x_space, y_space, z = kernel_spaces(field)
    col = Element(z, {0: Fraction(3, 1), 2: -1} if field == QQ
                  else {0: 3, 2: 6}, _canonical=True)
    cols = [Element(z, {k % 3: 1}, _canonical=True) for k in range(6)]
    cols[3] = col
    return LinearOp(tensor_space(x_space, y_space), z, cols), x_space, y_space


@pytest.mark.parametrize("cx, cy, same", [
    (1, 1, True), (Fraction(1, 2), 2, True), (2, Fraction(1, 2), True),
    (-1, -1, True), (Fraction(1), 1, True),
    (2, 1, False), (-1, 1, False), (2, 3, False), (Fraction(1, 2), 1, False)])
def test_apply2_one_term_shortcut_over_q(cx, cy, same):
    op, x_space, y_space = kernel_map(QQ)
    x, y = one_term(x_space, 1, cx), one_term(y_space, 1, cy)
    got = apply2(op, x, y)
    assert_same_element(got, generator_apply2(op, x, y))
    assert (got is op.columns[3]) is same
    # the shortcut keeps the column's Fraction(3, 1); the sum reduces it
    v = got.coeffs[0]
    assert type(v) is (Fraction if same or v.denominator != 1 else int)


@pytest.mark.parametrize("cx, cy", [(2, 4), (4, 2), (3, 5), (6, 6), (2, 3),
                                    (1, 6), (1, 1)])
def test_apply2_one_term_products_reduced_over_f7(cx, cy):
    op, x_space, y_space = kernel_map(F7)
    x, y = one_term(x_space, 1, cx), one_term(y_space, 1, cy)
    got = apply2(op, x, y)
    assert_same_element(got, generator_apply2(op, x, y))
    k = cx * cy % 7
    assert got.coeffs == {0: 3 * k % 7, 2: 6 * k % 7}
    # 2 · 4 is 1 in F_7 but 8 as an int, so it is summed, not shortcut
    assert (got is op.columns[3]) is (cx * cy == 1)


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
def test_apply2_zero_and_multi_term_operands(field):
    op, x_space, y_space = kernel_map(field)
    for x, y in [(x_space.zero(), y_space.basis(1)),
                 (x_space.basis(1), y_space.zero()),
                 (Element(x_space, {0: 1, 1: 2}), y_space.basis(1)),
                 (Element(x_space, {1: -1}), Element(y_space, {0: 1, 1: 1}))]:
        assert_same_element(apply2(op, x, y), generator_apply2(op, x, y))


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
def test_linear_op_call_one_term_shortcut(field):
    op = kernel_map(field)[0]
    space = op.domain
    assert op(space.basis(3)) is op.columns[3]
    for c in ([2, -1, Fraction(1, 2)] if field == QQ else [2, 6]):
        got = op(one_term(space, 3, c))
        assert got is not op.columns[3]
        assert_same_element(got, generator_call(op, one_term(space, 3, c)))
    assert op(space.zero()).is_zero()


def test_based_space_dim_is_stored_and_tensor_labels_are_products():
    a = BasedSpace(("x", "y"), F7)
    b = BasedSpace(("u", "v", "w"), F7)
    t = tensor_space(a, b)
    plain = BasedSpace(tuple((la, lb) for la in a.labels for lb in b.labels),
                       F7)
    assert (a.dim, b.dim, t.dim) == (2, 3, 6)
    assert t == plain and hash(t) == hash(plain) and repr(t) == repr(plain)
    assert tensor_space(t, a).dim == 12
    with pytest.raises(DimensionMismatch):
        BasedSpace(("x", "x"))
    with pytest.raises(DimensionMismatch):
        BasedSpace(())

"""Exact arithmetic, tensor products, kron, inversion and solving."""

import json
import random
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from hopfkit.errors import NonUniqueSolution, NoSolution, SingularMap
from hopfkit.linalg import (BasedSpace, Element, Field, LinearOp, QQ,
                            accumulate, invert, kron, rank, scaled_columns,
                            solve, tensor_elem, tensor_space)
from hopfkit.serialize import map_entries

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


def test_scaled_columns_over_prime_field_are_stored_ints():
    f7 = Field(7)
    space = BasedSpace(("x", "y"), f7)
    op = LinearOp(space, space, [Element(space, {0: 3, 1: Fraction(1, 2)}),
                                 Element(space, {1: -1})])
    assert scaled_columns(op) == (1, [((0, 3), (1, 4)), ((1, 6),)])

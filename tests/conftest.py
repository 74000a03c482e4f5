"""Shared fixtures: the standard small carriers and operators."""

from fractions import Fraction

import pytest

import hopfkit as hk
from hopfkit import fixtures as fx
from hopfkit import groups as gr
from hopfkit.hopf import transport_hopf
from hopfkit.linalg import (BasedSpace, Element, LinearOp, accumulate, invert,
                            tensor_split)


@pytest.fixture(scope="session")
def f1():
    return fx.f1()


@pytest.fixture(scope="session")
def f2():
    return fx.f2()


@pytest.fixture(scope="session")
def b_inv_f2(f2):
    return fx.b_inv(f2)


@pytest.fixture(scope="session")
def b_eps_f2(f2):
    return fx.b_eps(f2)


@pytest.fixture(scope="session")
def phi_r_f2(f2):
    return fx.phi_r(f2)


@pytest.fixture(scope="session")
def s3():
    return gr.dihedral(3)


# -- Sweedler oracles that read the coproduct columns, not the code under test --

def sweedler(h, i, legs):
    """Terms (coefficient, index tuple) of the iterated coproduct of basis
    vector i with the given number of legs, iterates on the leftmost leg,
    collected and sorted by index tuple."""
    if legs == 1:
        return [(h.field.one, (i,))]
    field = h.field
    collected: dict = {}
    for coeff, idxs in sweedler(h, i, legs - 1):
        for pair_idx, c2 in h.comul.columns[idxs[0]].coeffs.items():
            a, b = tensor_split(pair_idx, h.dim)
            key = (a, b) + idxs[1:]
            v = field.add(collected.get(key, field.zero), field.mul(coeff, c2))
            if v == 0:
                collected.pop(key, None)
            else:
                collected[key] = v
    return [(c, k) for k, c in sorted(collected.items())]


def tensor_square(h, u, v):
    """Componentwise product on H ⊗ H: (a⊗b)(c⊗d) = ac ⊗ bd."""
    dim = h.dim
    terms = []
    for pu, cu in u.coeffs.items():
        a, b = tensor_split(pu, dim)
        for pv, cv in v.coeffs.items():
            c, d = tensor_split(pv, dim)
            right = h.mul_basis(b, d).coeffs.items()
            for i, ci in h.mul_basis(a, c).coeffs.items():
                terms.append((cu * cv * ci, Element(
                    h.hh, {i * dim + j: cj for j, cj in right}, _canonical=True)))
    return accumulate(h.hh, terms)


def circle_product_element(h, b, x, y):
    """The paper's x ∘_B y = x_(1) B(x_(2)) y S(B(x_(3))), extended
    bilinearly, one three-leg Sweedler sum per call: the reference oracle
    for the table ``RotaBaxterOp.circle``."""
    terms = []
    for i, ci in x.coeffs.items():
        for c, (g1, g2, g3) in sweedler(h, i, 3):
            terms.append((h.field.mul(ci, c),
                          h.product_many([h.basis(g1), b.columns[g2], y,
                                          h.antipode(b.columns[g3])])))
    return accumulate(h.space, terms)


# -- carriers without a group-like basis, for the Sweedler-kernel oracles --------

# Basis vectors of the transported carriers, in group-algebra coordinates:
# Z2 and Z3 spread over every group element, S3 with only r2 and r2s mixed.
DENSE_Z2 = [{0: Fraction(1), 1: Fraction(1, 2)}, {0: Fraction(-2, 3), 1: 1}]
DENSE_Z3 = [{0: 1, 1: Fraction(1, 2), 2: -1}, {0: Fraction(2, 3), 1: 1, 2: 1},
            {0: -1, 1: Fraction(1, 3), 2: 2}]
MIXED_S3 = [{0: 1}, {1: 1}, {2: 1, 5: 1}, {3: 1}, {4: 1}, {2: 1, 5: -1}]
KERNEL_OPS = {
    "dense-Z2-inv": (gr.cyclic(2), DENSE_Z2, lambda h: h.antipode),
    "dense-Z2-eps": (gr.cyclic(2), DENSE_Z2, lambda h: fx.b_eps(h).map),
    "dense-Z3-inv": (gr.cyclic(3), DENSE_Z3, lambda h: h.antipode),
    "mixed-S3-inv": (gr.dihedral(3), MIXED_S3, lambda h: h.antipode),
    "mixed-S3-eps": (gr.dihedral(3), MIXED_S3, lambda h: fx.b_eps(h).map),
}


def edited(op, col, row, offset):
    """op with one entry moved by ``offset``, or with one column zeroed
    when ``offset`` is None."""
    cols = list(op.columns)
    col %= len(cols)
    coeffs = {}
    if offset is not None:
        coeffs = dict(cols[col].coeffs)
        r = row % op.codomain.dim
        coeffs[r] = coeffs.get(r, 0) + offset
    cols[col] = Element(op.codomain, coeffs)
    return LinearOp(op.domain, op.codomain, cols)


class Built(Exception):
    """Raised by a patched later step to hand back what the code under
    test built before it."""


@pytest.fixture(scope="session")
def kernel_op():
    """``kernel_op(name, field)``: the lift of a Rota-Baxter operator of
    ``KERNEL_OPS`` moved to the transported basis, built once per name and
    field (QQ or F_7)."""
    built: dict = {}

    def make(name, field):
        if (name, field) not in built:
            group, columns, op = KERNEL_OPS[name]
            h = hk.group_algebra(group, field)
            space = BasedSpace(tuple(f"w{k}" for k in range(h.dim)), field)
            p = invert(LinearOp(space, h.space,
                                [Element(h.space, col) for col in columns]))
            k = transport_hopf(h, p)
            built[name, field] = hk.verify_rb(
                k, p.compose(op(h)).compose(invert(p)))
        return built[name, field]
    return make

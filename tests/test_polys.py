import itertools
import random
from fractions import Fraction
from operator import mul

import pytest

from oracles import (
    all_shifts,
    column_diagonal_order,
    diagonal_key,
    monomials_of_degree,
    random_zigzag_matrix,
)
from ctring.linalg import extreme_monomials
from ctring.polys import (
    Grid,
    Poly,
    diff_pairing,
    merge_row,
    order_weights,
    polarize_col,
    polarize_row,
    shift_row,
    split_left,
)
from ctring.tables import col_sums, is_zigzag_matrix, row_sums

G34 = Grid(3, 4)
SHIFT_MATRIX = (
    (0, 2, 1, 3, 1),
    (2, 0, 1, 1, 0),
    (0, 3, 1, 2, 1),
    (1, 0, 2, 1, 0),
)


def test_poly_arithmetic():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    assert not (f - f)
    assert (2 * x).terms == {(1, 0): Fraction(2)}
    # homogeneous: at most one homogeneous part
    assert f.degree() == 2 and len(f.homogeneous_parts()) == 1
    assert len((x + x * y).homogeneous_parts()) == 2
    # polynomials of different rings neither add nor multiply
    for a, b in ((Poly(1, {(1,): 1}), y), (y, Poly(1, {(1,): 1}))):
        for op in (a.__add__, a.__sub__, a.__mul__):
            with pytest.raises(ValueError, match="variable count mismatch"):
                op(b)


def test_grid_degrees_golden():
    g = Grid(3, 4)
    a = ((1, 2, 0, 1), (0, 2, 0, 1), (3, 0, 1, 1))
    exps = g.exponents(a)
    assert g.ddeg(exps) == (1, 2, 5, 1, 2, 1)
    # the paper's rdeg and cdeg: the margins of the exponent matrix
    assert row_sums(g.matrix(exps)) == (4, 3, 5)
    assert col_sums(g.matrix(exps)) == (4, 4, 1, 3)
    assert g.matrix(exps) == a


def test_ddeg_constant():
    g = Grid(2, 3)
    assert g.ddeg((0,) * 6) == (0, 0, 0, 0)


# the library's diagonal order and the oracle's column-ranked one, each with
# the tiebreak its diagonal_key oracle takes
ORDERS = (("row", Grid.diagonal_order), ("column", column_diagonal_order))


def packed_key(order, nvars, degree):
    """The integer sort key of an order given as supports, exact up to degree."""
    weights = order_weights(order, nvars, degree)
    return lambda exps: sum(map(mul, weights, exps))


def test_diagonal_order_basic():
    g = Grid(2, 2)
    x11 = g.exponents(((1, 0), (0, 0)))
    x22 = g.exponents(((0, 0), (0, 1)))
    g13, g31 = Grid(1, 3), Grid(3, 1)
    row = [g13.exponents((unit,)) for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    col = [g31.exponents(tuple(zip(unit))) for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for _, order_of in ORDERS:
        key = packed_key(order_of(g), g.nvars, 1)
        assert key(x11) > key(x22)
        # within one row, or one column, the order is plain lex
        for grid, v in ((g13, row), (g31, col)):
            key = packed_key(order_of(grid), grid.nvars, 1)
            assert key(v[0]) > key(v[1]) > key(v[2])
    # on a 2 x 3 grid (variables row-major): the antidiagonals, then the
    # singletons ranked by (i+j, i), or by (i+j, j)
    antidiagonals = ((0,), (1, 3), (2, 4), (5,))
    g23 = Grid(2, 3)
    assert g23.diagonal_order() == antidiagonals + tuple(
        (v,) for v in (0, 1, 3, 2, 4, 5)
    )
    assert column_diagonal_order(g23) == antidiagonals + tuple(
        (v,) for v in (0, 3, 1, 4, 2, 5)
    )


def test_order_weights():
    # base degree + 1, the first support most significant; None is plain lex
    assert order_weights(None, 3, 2) == (9, 3, 1)
    assert order_weights(((0, 1), (0,), (1,)), 2, 1) == (6, 5)
    assert order_weights(((1,), (0,), (0, 0)), 2, 1) == (3, 4)
    with pytest.raises(ValueError):
        order_weights(((0, 1), (0,)), 2, 1)  # x1 has no singleton: not total
    with pytest.raises(ValueError):
        order_weights(((0,), (1,), (2,)), 2, 1)


def test_diagonal_order_follows_ddeg():
    # the packed key ranks as the oracle's tuple key, and so respects every
    # strict ddeg comparison, whatever the total degrees
    g = Grid(2, 3)
    for tiebreak, order_of in ORDERS:
        key = packed_key(order_of(g), g.nvars, 18)
        oracle = diagonal_key(g, tiebreak)
        rng = random.Random(41)
        for _ in range(300):
            m1 = tuple(rng.randint(0, 3) for _ in range(6))
            m2 = tuple(rng.randint(0, 3) for _ in range(6))
            assert (key(m1) > key(m2)) == (oracle(m1) > oracle(m2))
            d1, d2 = g.ddeg(m1), g.ddeg(m2)
            if d1 != d2:
                assert (key(m1) > key(m2)) == (d1 > d2)


def test_term_order_axioms():
    # a monomial order: total, 1 is the smallest monomial, and comparisons
    # survive multiplication by any monomial (products have degree <= 4 nvars)
    for grid in (Grid(2, 2), Grid(2, 3)):
        one = (0,) * grid.nvars
        rng = random.Random(43)
        monos = [tuple(rng.randint(0, 2) for _ in range(grid.nvars)) for _ in range(40)]
        for _, order_of in ORDERS:
            key = packed_key(order_of(grid), grid.nvars, 4 * grid.nvars)
            assert len({key(m) for m in monos}) == len(set(monos))
            for m in monos:
                if m != one:
                    assert key(one) < key(m)
            for m1, m2, m3 in itertools.product(monos[:10], repeat=3):
                shifted = (
                    key(tuple(a + b for a, b in zip(m1, m3))),
                    key(tuple(a + b for a, b in zip(m2, m3))),
                )
                assert (key(m1) > key(m2)) == (shifted[0] > shifted[1])
                assert (key(m1) == key(m2)) == (shifted[0] == shifted[1])


def test_lex_order():
    # plain lex is the order None, one singleton per variable: of one
    # polynomial, its own lex-largest and lex-smallest terms, however large
    # the total degree of the smaller one
    n = 3
    for f in (
        Poly(n, {(1, 0, 0): 1, (0, 1, 1): 1}),
        Poly(n, {(1, 0, 0): 1, (0, 5, 5): 1}),
    ):
        low = min(f.terms)
        for order in (None, [(0,), (1,), (2,)]):
            assert extreme_monomials([f], order) == {(1, 0, 0)}
            assert extreme_monomials([f], order, smallest=True) == {low}
    g = Poly(n, {(1, 0, 0): 1, (0, 5, 5): 1})
    assert extreme_monomials([g], None) == {(1, 0, 0)}
    assert extreme_monomials([g], None, smallest=True) == {(0, 5, 5)}


def test_diff_pairing_basics():
    x1 = Poly.variable(1, 0)
    assert diff_pairing(x1, x1 * x1) == 2 * x1
    # x^(d+1) annihilates anything of x-degree <= d
    f = Poly.variable(2, 0, power=3)
    g = Poly.variable(2, 0, power=2) * Poly.variable(2, 1)
    assert not diff_pairing(f, g)


def test_diff_pairing_sum_annihilates_difference_product():
    n = 3
    lin = Poly(n, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    g = (Poly.variable(n, 0) - Poly.variable(n, 1)) * (
        Poly.variable(n, 1) - Poly.variable(n, 2)
    )
    assert not diff_pairing(lin, g)


def test_diff_pairing_leibniz_on_disjoint_products():
    # differentiating by one variable obeys the product rule whenever the
    # factors involve distinct variables
    x0 = Poly.variable(3, 0)
    f = Poly(3, {(2, 0, 0): 1, (1, 0, 0): 3})
    g = Poly(3, {(0, 1, 1): 2, (0, 0, 2): 1})
    lhs = diff_pairing(x0, f * g)
    rhs = diff_pairing(x0, f) * g + f * diff_pairing(x0, g)
    assert lhs == rhs


def test_diff_pairing_linearity():
    rng = random.Random(47)

    def rand_poly(n, terms):
        return Poly(
            n,
            {
                tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-3, 3)
                for _ in range(terms)
            },
        )

    for _ in range(20):
        f, g, h = rand_poly(3, 3), rand_poly(3, 3), rand_poly(3, 3)
        assert diff_pairing(f, g + h) == diff_pairing(f, g) + diff_pairing(f, h)


def test_polarize_golden():
    g = Grid(3, 3)
    f = g.variable(1, 2) * g.variable(3, 3) + g.variable(1, 3) * g.variable(3, 1)
    got = polarize_row(f, g, 3, 1)
    expected = g.variable(1, 2) * g.variable(1, 3) + g.variable(1, 3) * g.variable(1, 1)
    assert got == expected


def test_polarize_constant_is_zero():
    g = Grid(2, 2)
    one = Poly(4, {(0, 0, 0, 0): 1})
    assert not polarize_row(one, g, 2, 1)
    assert not polarize_col(one, g, 2, 1)


def test_polarize_is_derivation():
    g = Grid(2, 3)
    rng = random.Random(53)

    def rand_poly(terms):
        return Poly(
            6,
            {
                tuple(rng.randint(0, 2) for _ in range(6)): rng.randint(-2, 2)
                for _ in range(terms)
            },
        )

    for _ in range(20):
        f, h = rand_poly(3), rand_poly(3)
        lhs = polarize_row(f * h, g, 2, 1)
        rhs = f * polarize_row(h, g, 2, 1) + h * polarize_row(f, g, 2, 1)
        assert lhs == rhs


def test_polarize_row_degree_shift():
    g = Grid(3, 2)
    f = g.variable(2, 1) * g.variable(2, 2)
    out = polarize_row(f, g, 2, 3)
    for exps in out.terms:
        assert row_sums(g.matrix(exps)) == (0, 1, 1)


def test_shift_golden():
    assert shift_row(SHIFT_MATRIX, 4, 2, 1) == (
        (0, 2, 1, 3, 1),
        (3, 0, 1, 1, 0),
        (0, 3, 1, 2, 1),
        (0, 0, 2, 1, 0),
    )
    assert shift_row(SHIFT_MATRIX, 4, 2, 2) == (
        (0, 2, 1, 3, 1),
        (3, 0, 2, 1, 0),
        (0, 3, 1, 2, 1),
        (0, 0, 1, 1, 0),
    )
    assert shift_row(SHIFT_MATRIX, 4, 2, 3) == (
        (0, 2, 1, 3, 1),
        (3, 0, 3, 1, 0),
        (0, 3, 1, 2, 1),
        (0, 0, 0, 1, 0),
    )


def test_shift_identity_and_errors():
    assert shift_row(SHIFT_MATRIX, 4, 2, 0) == SHIFT_MATRIX
    with pytest.raises(ValueError):
        shift_row(SHIFT_MATRIX, 4, 2, 5)  # row 4 sums to 4


def test_split_golden():
    d = (0, 0, 0, 2, 1, 0, 3)
    assert split_left(d, 2, 0) == d
    assert split_left(d, 2, 1) == (0, 1, 0, 1, 1, 0, 3)
    assert split_left(d, 2, 2) == (0, 2, 0, 0, 1, 0, 3)
    assert split_left(d, 2, 3) == (0, 2, 1, 0, 0, 0, 3)
    assert split_left(d, 2, 4) == (0, 2, 1, 0, 1, 0, 2)
    assert split_left(d, 2, 5) == (0, 2, 1, 0, 2, 0, 1)
    assert split_left(d, 2, 6) == (0, 2, 1, 0, 3, 0, 0)


def test_split_errors():
    with pytest.raises(ValueError):
        split_left((0, 0, 1), 3, 1)  # only two leading zeros
    with pytest.raises(ValueError):
        split_left((0, 1, 0), 1, 2)  # amount exceeds the total


def test_split_lex_lemma_exhaustive():
    # whenever e <= d lexicographically and some s-step shift e' of e reaches
    # at least split(d), everything collapses: e = d and e' = split(d)
    vectors = [
        (0, 2, 1),
        (0, 0, 2, 1),
        (0, 1, 0, 2),
        (0, 0, 1, 1, 2),
        (0, 0, 2, 0, 1),
    ]
    for d in vectors:
        total = sum(d)
        lead = next(i for i, v in enumerate(d) if v)
        for s in range(1, lead + 1):
            for m in range(1, total + 1):
                target = split_left(d, s, m)
                for e in itertools.product(*[range(3)] * len(d)):
                    if sum(e) != total or e > d:
                        continue
                    for e_shift in all_shifts(e, s, m):
                        if tuple(e_shift) >= target:
                            assert e == d
                            assert tuple(e_shift) == target


def test_merge_golden():
    a = ((0, 0, 0, 0), (1, 2, 1, 0), (0, 0, 2, 1), (0, 0, 0, 1))
    assert merge_row(a) == ((0, 0, 0, 0), (0, 0, 0, 0), (1, 2, 3, 1), (0, 0, 0, 1))
    assert merge_row(((1, 0), (0, 1))) == ((0, 0), (1, 1))


def test_merge_errors():
    with pytest.raises(ValueError):
        merge_row(((1, 0), (0, 0)))  # single nonzero row
    with pytest.raises(ValueError):
        merge_row(((0, 1), (1, 0)))  # not a zigzag


def test_shift_merge_inverse_and_ddeg_split():
    rng = random.Random(59)
    cases = 0
    while cases < 60:
        a = random_zigzag_matrix(rng, rng.randint(2, 4), rng.randint(2, 5), 3)
        nonzero = [i for i, row in enumerate(a) if any(row)]
        if len(nonzero) < 2:
            continue
        cases += 1
        i1, i2 = nonzero[0] + 1, nonzero[1] + 1
        r = row_sums(a)[i1 - 1]
        merged = merge_row(a)
        assert is_zigzag_matrix(merged)
        assert shift_row(merged, i2, i1, r) == a
        # shifts of zigzag matrices stay zigzag, and ddeg transforms by split
        g = Grid(len(a), len(a[0]))
        for i0 in range(1, i1):
            for m in range(r + 1):
                shifted = shift_row(a, i1, i0, m)
                assert is_zigzag_matrix(shifted)
                assert g.ddeg(g.exponents(shifted)) == split_left(
                    g.ddeg(g.exponents(a)), i1 - i0, m
                )


def test_polarization_leading_monomial_lemma():
    # on every 3x3 monomial of degree <= 4, iterated polarization moving a row
    # upward has the shifted monomial as its leading term
    g = Grid(3, 3)
    for degree in range(5):
        key = packed_key(g.diagonal_order(), g.nvars, degree)
        for exps in monomials_of_degree(9, degree):
            a = g.matrix(exps)
            for i1 in range(2, 4):
                for i0 in range(1, i1):
                    r = row_sums(a)[i1 - 1]
                    for m in range(r + 1):
                        current = g.monomial(a)
                        for _ in range(m):
                            current = polarize_row(current, g, i1, i0)
                        assert current
                        lead = max(current.terms, key=key)
                        assert g.matrix(lead) == shift_row(a, i1, i0, m)

import itertools
import math
import random
from fractions import Fraction

import pytest

from oracles import (
    RrefIdeal,
    diagonal_key,
    divisibility_clean_monomials,
    fraction_rref,
    full_slice_rows,
    oracle_slice,
    strict_compositions,
)
from ctring.linalg import (
    HomogeneousIdeal,
    bounded_exponents,
    extreme_monomials,
    integer_row,
    position_echelon,
)
from ctring.onerow import one_row_generators, one_row_ideal
from ctring.partitions import bounded_compositions, weak_compositions_upto
from ctring.polys import Grid, Poly
from ctring.quotient import (
    col_support,
    contingency_generators,
    margin_ideal,
    row_support,
)


def _margin(alpha, beta):
    """The generator list of the margin ideal and the ideal built from caps."""
    grid, gens = contingency_generators(alpha, beta)
    return grid, gens, margin_ideal(alpha, beta, grid, grid.diagonal_order())


def _monomials(gens):
    return [next(iter(g.terms)) for g in gens if len(g.terms) == 1]


def test_bounded_exponents():
    assert set(bounded_exponents(2, 2)) == {(2, 0), (1, 1), (0, 2)}
    assert bounded_exponents(3, 0) == [(0, 0, 0)]


def test_bounded_compositions_match_filtered_product():
    specs = [(), (0,), (0, 0), (3,), (2, 0, 1), (1, 3, 0, 2), (2, 2, 2), (0, 4, 1)]
    for bounds in specs:
        for total in range(-1, sum(bounds) + 2):
            expected = [
                c
                for c in itertools.product(*(range(b + 1) for b in bounds))
                if sum(c) == total
            ]
            assert bounded_compositions(total, bounds) == expected[::-1], (total, bounds)


def test_single_variable_caps():
    ideal = HomogeneousIdeal(2, None, caps=[((0,), 1), ((1,), 2)])
    assert ideal.clean_monomials(2) == ((1, 1), (0, 2))
    assert ideal.is_clean((1, 2)) and not ideal.is_clean((2, 0))


def test_clean_monomials_cannot_be_changed_by_callers():
    grid = Grid(2, 2)
    ideal = margin_ideal((2, 1), (2, 1), grid, grid.diagonal_order())
    with pytest.raises(AttributeError):
        ideal.clean_monomials(2).clear()
    assert [len(ideal.standard_monomials(d)) for d in range(4)] == [1, 1, 0, 0]


def test_bad_sums_and_caps_rejected():
    with pytest.raises(ValueError):
        HomogeneousIdeal(2, None, caps=[((0,), -1)])
    with pytest.raises(ValueError):
        HomogeneousIdeal(2, None, caps=[((2,), 1)])
    with pytest.raises(ValueError):
        HomogeneousIdeal(2, None, sums=[(0, 2)])
    with pytest.raises(ValueError):
        HomogeneousIdeal(2, None, sums=[(-1,)])
    # an order needs a singleton support on every variable to be total
    with pytest.raises(ValueError):
        HomogeneousIdeal(3, [(0, 1, 2), (0,), (1,)])
    with pytest.raises(ValueError):
        HomogeneousIdeal(2, [(0,), (1,), (2,)])
    assert HomogeneousIdeal(3, [(0, 1), (2,), (1, 1), (0,)]).order == (
        (0, 1), (2,), (1, 1), (0,)
    )


def test_sums_contract():
    # a one-variable sum is the cap 0 on that variable, and supports holding
    # the same variables, in any order or repeated, are one sum
    plain = HomogeneousIdeal(3, None, [(0, 1)], [((2,), 0)])
    single = HomogeneousIdeal(3, None, [(0, 1), (2,)])
    listed = HomogeneousIdeal(3, None, [(0, 1), (1, 0), (0, 0, 1), (2,), (2,)])
    assert single.caps == listed.caps == plain.caps
    assert single.sums == listed.sums == plain.sums == [(0, 1)]
    for d in range(4):
        expected = plain.slice(d)
        for ideal in (single, listed):
            basis = ideal.slice(d)
            assert (basis.columns, basis.rows) == (expected.columns, expected.rows)
    assert plain.standard_monomials(2) == ((0, 2, 0),)


def test_caps_match_divisibility_on_margin_ideals():
    # the caps' clean monomials are the monomials divisible by no monomial
    # generator of contingency_generators, on every margin pair n <= 5
    pairs = 0
    for n in range(6):
        comps = weak_compositions_upto(n, 3)
        for alpha in comps:
            for beta in comps:
                grid, gens, ideal = _margin(alpha, beta)
                monos = _monomials(gens)
                for d in range(n + 2):
                    assert list(ideal.clean_monomials(d)) == divisibility_clean_monomials(
                        monos, grid.nvars, d
                    ), (alpha, beta, d)
                pairs += 1
    assert pairs > 1000


def test_caps_match_divisibility_on_one_row_ideals():
    specs = [b for total in range(1, 9) for b in strict_compositions(total)]
    specs += [(0,), (0, 0), (1, 0, 2), (0, 3)]
    for bounds in specs:
        n = len(bounds)
        ideal = one_row_ideal(bounds)
        monos = _monomials(one_row_generators(bounds))
        for d in range(sum(bounds) + 2):
            assert list(ideal.clean_monomials(d)) == divisibility_clean_monomials(
                monos, n, d
            ), (bounds, d)


def _random_rows(rng):
    """A sparse rational matrix whose rank is usually deficient: random rows
    plus random combinations of them."""
    ncols = rng.randint(1, 12)
    rows = []
    for _ in range(rng.randint(1, 8)):
        row = {}
        for p in rng.sample(range(ncols), rng.randint(1, min(4, ncols))):
            num = rng.choice([-3, -2, -1, 1, 2, 3, 5])
            row[p] = Fraction(num, rng.randint(1, 4))
        rows.append(row)
    for _ in range(rng.randint(0, 4)):
        combo = {}
        for row in rng.sample(rows, min(2, len(rows))):
            scale = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
            for p, c in row.items():
                combo[p] = combo.get(p, 0) + scale * c
        rows.append({p: c for p, c in combo.items() if c})
    rng.shuffle(rows)
    return [r for r in rows if r]


def test_integer_echelon_matches_fraction_rref():
    rng = random.Random(2025)
    for _ in range(300):
        rows = _random_rows(rng)
        forward = position_echelon([integer_row(r) for r in rows])
        for lead, row in forward.items():
            assert all(isinstance(c, int) for c in row.values())
            assert min(row) == lead and row[lead] > 0
            assert math.gcd(*row.values()) == 1
        # the same row space: equal reduced forms
        assert fraction_rref(list(forward.values())) == fraction_rref(rows)


def test_slices_match_oracle():
    # columns, pivots and standard monomials of every slice, against the
    # divisibility filter plus Fraction Gauss-Jordan on the generator list
    cases = [((2, 1), (1, 1, 1)), ((2, 2), (2, 1, 1)), ((3, 1), (2, 2)), ((2,), (1, 1))]
    for alpha, beta in cases:
        grid, gens, ideal = _margin(alpha, beta)
        for d in range(sum(alpha) + 2):
            pivots, standard = oracle_slice(gens, grid.nvars, diagonal_key(grid), d)
            basis = ideal.slice(d)
            assert [basis.columns[p] for p in basis.rows] == pivots
            assert list(ideal.standard_monomials(d)) == standard
    for bounds in [(1, 2, 1), (2, 2), (3,), (1, 1, 1, 1)]:
        ideal = one_row_ideal(bounds)
        gens = one_row_generators(bounds)
        for d in range(sum(bounds) + 2):
            pivots, standard = oracle_slice(gens, len(bounds), None, d)
            basis = ideal.slice(d)
            assert [basis.columns[p] for p in basis.rows] == pivots
            assert list(ideal.standard_monomials(d)) == standard


def _assert_slices_unpruned(ideal, key, top):
    for d in range(top + 1):
        basis = ideal.slice(d)
        columns, rows = full_slice_rows(ideal, key, d)
        full = position_echelon(rows)
        assert list(basis.columns) == columns
        assert list(basis.rows) == sorted(full), d
        assert fraction_rref(list(basis.rows.values())) == fraction_rref(
            list(full.values())
        ), d


def _columns_first(alpha, beta):
    """The margin ideal with its line sums listed columns first, which makes
    the degree-1 slice drop a different dependent sum and record different
    leads than margin_ideal."""
    grid = Grid(len(alpha), len(beta))
    lines = [col_support(grid, j) for j in range(1, grid.p + 1)]
    lines += [row_support(grid, i) for i in range(1, grid.k + 1)]
    caps = zip(lines, tuple(beta) + tuple(alpha))
    return HomogeneousIdeal(grid.nvars, grid.diagonal_order(), lines, caps)


def test_koszul_skipping_keeps_every_slice():
    # the slices that skip Koszul rows have the pivots and the row space of
    # every sum times every clean factor, whichever order the sums come in
    pairs = 0
    for n in range(6):
        comps = weak_compositions_upto(n, 3)
        for alpha in comps:
            for beta in comps:
                grid, _, ideal = _margin(alpha, beta)
                key = diagonal_key(grid)
                _assert_slices_unpruned(ideal, key, n + 1)
                if n <= 4:
                    _assert_slices_unpruned(_columns_first(alpha, beta), key, n + 1)
                pairs += 1
    assert pairs > 1000
    grid, _, ideal = _margin((1,) * 5, (1,) * 5)
    _assert_slices_unpruned(ideal, diagonal_key(grid), 6)


def _assert_columns_sorted(ideal, key, top):
    for d in range(top + 1):
        expected = sorted(ideal.clean_monomials(d), key=key, reverse=True)
        assert list(ideal.slice(d).columns) == expected, d


def test_packed_order_sorts_every_slice():
    # the columns, sorted on packed integer keys, against the sort by the
    # oracle's tuple key: every slice of every margin pair with n <= 5 and
    # lengths <= 3 on both tiebreaks, and of the one-row ideals under lex
    pairs = 0
    for n in range(6):
        comps = weak_compositions_upto(n, 3)
        for alpha in comps:
            for beta in comps:
                grid = Grid(len(alpha), len(beta))
                for tiebreak in ("row", "column"):
                    order = grid.diagonal_order(tiebreak)
                    ideal = margin_ideal(alpha, beta, grid, order)
                    _assert_columns_sorted(ideal, diagonal_key(grid, tiebreak), n + 1)
                pairs += 1
    assert pairs > 1000
    for bounds in [b for total in range(1, 9) for b in strict_compositions(total)]:
        _assert_columns_sorted(one_row_ideal(bounds), None, sum(bounds) + 1)
    # the carry edge: with no caps, the degree-d slice holds x_v^d, whose
    # singleton digit is d, the largest that base d + 1 allows
    for grid in (Grid(2, 3), Grid(3, 2)):
        for tiebreak in ("row", "column"):
            ideal = HomogeneousIdeal(grid.nvars, grid.diagonal_order(tiebreak))
            _assert_columns_sorted(ideal, diagonal_key(grid, tiebreak), 4)
            assert (4,) + (0,) * (grid.nvars - 1) in ideal.slice(4).columns


def test_simple_ideal_slice():
    # (x1 + x2) in two variables: degree-1 leading {x1}, standard {x2}
    ideal = HomogeneousIdeal(2, None, [(0, 1)])
    basis = ideal.slice(1)
    assert [basis.columns[p] for p in basis.rows] == [(1, 0)]
    assert basis.standard == ((0, 1),)
    # degree d: x1*... all monomials except x2^d reduce
    assert ideal.standard_monomials(3) == ((0, 3),)


def test_contingency_slice_degree_one():
    grid, _, ideal = _margin((3, 2), (2, 2, 1))
    std = ideal.standard_monomials(1)
    assert {grid.matrix(m) for m in std} == {
        ((0, 0, 0), (0, 1, 0)),
        ((0, 0, 0), (0, 0, 1)),
    }


def test_degree_basis_counts():
    # every clean monomial is a pivot or standard, the rows are an echelon
    # form, and every unclean monomial lies in the initial ideal
    grid, _, ideal = _margin((2, 2), (2, 2))
    for d in range(4):
        basis = ideal.slice(d)
        clean = ideal.clean_monomials(d)
        assert len(basis.standard) + len(basis.rows) == len(basis.columns) == len(clean)
        # each row starts at its pivot with a positive entry, is primitive,
        # and the pivots ascend
        for pivot, row in basis.rows.items():
            assert min(row) == pivot and row[pivot] > 0
            assert math.gcd(*row.values()) == 1
        assert list(basis.rows) == sorted(basis.rows)
        unclean = set(bounded_exponents(grid.nvars, d)) - set(clean)
        assert all(ideal.in_initial_ideal(m) for m in unclean)


def test_normal_form_fixes_standard_and_kills_generators():
    grid, gens, ideal = _margin((3, 2), (2, 2, 1))
    for mono in ideal.standard_monomials(2):
        poly = Poly.monomial(mono)
        assert ideal.normal_form(poly) == poly
    for g in gens:
        assert not ideal.normal_form(g)


def test_normal_form_difference_in_ideal():
    grid, _, ideal = _margin((2, 1), (1, 1, 1))
    rng = random.Random(61)
    for _ in range(15):
        exps = [tuple(rng.randint(0, 1) for _ in range(grid.nvars)) for _ in range(3)]
        f = Poly(grid.nvars, {e: rng.randint(-2, 2) for e in exps})
        diff = f - ideal.normal_form(f)
        # membership: reducing the difference again must give zero, and its
        # homogeneous parts must lie in the span of the slice rows
        assert not ideal.normal_form(diff)
        for d, part in diff.homogeneous_parts().items():
            basis = ideal.slice(d)
            rows = list(basis.rows.values())
            clean_part = integer_row(
                {
                    basis.position[basis.key(m)]: c
                    for m, c in part.terms.items()
                    if ideal.is_clean(m)
                }
            )
            # no rank increase: it is in the span
            assert len(position_echelon(rows + [clean_part])) == len(rows)


def test_normal_form_linearity():
    _, _, ideal = _margin((2, 2), (2, 2))
    rng = random.Random(67)
    for _ in range(10):
        e1 = tuple(rng.randint(0, 1) for _ in range(4))
        e2 = tuple(rng.randint(0, 1) for _ in range(4))
        f, g = Poly.monomial(e1), Poly.monomial(e2)
        assert ideal.normal_form(f + g) == ideal.normal_form(f) + ideal.normal_form(g)


def test_normal_form_respects_ring_structure():
    # reduction is idempotent and computes products correctly in the quotient
    _, _, ideal = _margin((2, 2), (2, 2))
    rng = random.Random(97)
    for _ in range(15):
        e1 = tuple(rng.randint(0, 1) for _ in range(4))
        e2 = tuple(rng.randint(0, 1) for _ in range(4))
        f, g = Poly.monomial(e1), Poly.monomial(e2)
        nf = ideal.normal_form
        assert nf(nf(f)) == nf(f)
        assert nf(f * g) == nf(nf(f) * nf(g))


def test_extreme_monomials_smallest():
    # span of (x1-x2)(x2-x3): trailing monomial under lex is x2*x3
    n = 3
    f = (Poly.variable(n, 0) - Poly.variable(n, 1)) * (
        Poly.variable(n, 1) - Poly.variable(n, 2)
    )
    got = extreme_monomials([f], None, smallest=True)
    assert got == {(0, 1, 1)}
    assert extreme_monomials([f], None) == {(1, 1, 0)}
    # span of x1 + x2 and x1 + 2 x3: leading monomials x1 and x2 (the
    # difference 2 x3 - x2 leads with x2), trailing monomials x2 and x3
    g = [Poly(n, {(1, 0, 0): 1, (0, 1, 0): 1}), Poly(n, {(1, 0, 0): 1, (0, 0, 1): 2})]
    assert extreme_monomials(g, None) == {(1, 0, 0), (0, 1, 0)}
    assert extreme_monomials(g, None, smallest=True) == {(0, 1, 0), (0, 0, 1)}


def test_inputs_from_another_ring_are_rejected():
    # the margin ideal of (2,1)/(2,1) lives in 4 variables; as in Poly
    # arithmetic, a polynomial or monomial of another ring is a ValueError
    ideal = margin_ideal((2, 1), (2, 1), Grid(2, 2), Grid(2, 2).diagonal_order())
    with pytest.raises(ValueError, match="variable count mismatch"):
        ideal.normal_form(Poly(5, {(0, 0, 0, 1, 1): 1}))
    for exps in [(0, 0, 0, 1, 0), (1, 0, 0)]:
        with pytest.raises(ValueError, match="variable count mismatch"):
            ideal.in_initial_ideal(exps)
    with pytest.raises(ValueError, match="variable count mismatch"):
        extreme_monomials([Poly(2, {(1, 0): 1}), Poly(3, {(0, 0, 1): 1})], None)
    assert ideal.normal_form(Poly(4, {(0, 0, 0, 1): 1})).nvars == 4


def test_extreme_monomials_span_property():
    n = 3
    rng = random.Random(71)
    polys = []
    for _ in range(4):
        terms = {
            tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-2, 2)
            for _ in range(3)
        }
        p = Poly(n, terms)
        if p:
            polys.append(p)
    fins = extreme_monomials(polys, None, smallest=True)
    # every fin is realized, and every span element's fin belongs to the set
    for _ in range(30):
        combo = Poly(n)
        for p in polys:
            combo = combo + rng.randint(-2, 2) * p
        if combo:
            assert min(combo.terms) in fins


def _random_poly(rng, ideal, degree, coeff):
    """Random terms of one degree: up to three clean monomials and two
    arbitrary ones (usually unclean, which reduce to zero)."""
    clean = ideal.clean_monomials(degree)
    monomials = rng.sample(clean, min(3, len(clean)))
    for _ in range(2):
        exps = [0] * ideal.nvars
        for _ in range(degree):
            exps[rng.randrange(ideal.nvars)] += 1
        monomials.append(tuple(exps))
    return Poly(ideal.nvars, {m: coeff() for m in monomials})


def test_normal_form_matches_fraction_rref_oracle():
    # every slice of every margin pair with n <= 4 and lengths <= 3, against
    # Fraction Gauss-Jordan on the generator list, with integer and rational
    # coefficients, one homogeneous poly per slice and one mixed-degree poly
    rng = random.Random(4)

    def integer():
        return rng.randint(-3, 3)

    def rational():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 6))

    pairs = 0
    for n in range(5):
        comps = weak_compositions_upto(n, 3)
        for alpha in comps:
            for beta in comps:
                grid, gens, ideal = _margin(alpha, beta)
                oracle = RrefIdeal(gens, grid.nvars, diagonal_key(grid))
                mixed = Poly(grid.nvars)
                for d in range(n + 1):
                    for coeff in (integer, rational):
                        f = _random_poly(rng, ideal, d, coeff)
                        assert ideal.normal_form(f).terms == oracle.normal_form(
                            f.terms
                        ), (alpha, beta, f)
                        mixed = mixed + f
                assert ideal.normal_form(mixed).terms == oracle.normal_form(mixed.terms)
                pairs += 1
    assert pairs > 800


def test_integer_inputs_stay_integers():
    # slice rows, normal forms of integer polys and integer products never
    # leave the integers on a margin model
    grid, gens, ideal = _margin((3, 2), (2, 2, 1))
    rng = random.Random(5)
    for d in range(6):
        for row in ideal.slice(d).rows.values():
            assert all(type(c) is int for c in row.values())
        for _ in range(10):
            f = _random_poly(rng, ideal, d, lambda: rng.randint(-4, 4))
            assert all(type(c) is int for c in ideal.normal_form(f).terms.values())
    product = gens[0] * gens[-1] * (3 * Poly.variable(grid.nvars, 0))
    assert product and all(type(c) is int for c in product.terms.values())
    assert all(type(c) is int for c in (gens[0] - 2 * gens[1]).terms.values())

import itertools
import math
import random
from fractions import Fraction

import pytest

import ctring.linalg
import ctring.quotient
from oracles import (
    RrefIdeal,
    block_presentation,
    column_diagonal_order,
    column_margin_ideal,
    diagonal_key,
    divisibility_clean_monomials,
    fraction_rref,
    margin_ideal,
    oracle_slice,
    per_degree_lefschetz_report,
    per_degree_slice,
    strict_compositions,
    unskipped_slice_rows,
)
from ctring.linalg import (
    HomogeneousIdeal,
    bounded_exponents,
    extreme_monomials,
    integer_row,
    linear_form,
    position_echelon,
)
from ctring.onerow import one_row_generators, one_row_ideal, one_row_standard_monomials
from ctring.partitions import bounded_compositions, weak_compositions_upto
from ctring.polys import Grid, Poly
from ctring.quotient import QuotientModel, contingency_generators, lefschetz_report


def _margin(alpha, beta):
    """The generator list of the margin ideal and the oracle's ideal on the
    whole grid, its line sums as powers and its margins as caps."""
    grid, gens = contingency_generators(alpha, beta)
    return grid, gens, margin_ideal(alpha, beta)


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
    assert (1, 2) in ideal.clean_monomials(3) and (2, 0) not in ideal.clean_monomials(2)


def test_clean_monomials_cannot_be_changed_by_callers():
    ideal = margin_ideal((2, 1), (2, 1))
    with pytest.raises(AttributeError):
        ideal.clean_monomials(2).clear()
    assert [len(ideal.standard_monomials(d)) for d in range(4)] == [1, 1, 0, 0]


def test_bad_powers_and_caps_rejected():
    # each ideal holds a cap on all its variables, so only the fault named
    # can raise
    capped = [((0, 1), 1)]
    with pytest.raises(ValueError):
        HomogeneousIdeal(2, None, caps=[((0,), -1)] + capped)
    with pytest.raises(ValueError):
        HomogeneousIdeal(2, None, caps=[((2,), 1)] + capped)
    with pytest.raises(ValueError):
        HomogeneousIdeal(2, None, powers=[([(0, 2)], 1)], caps=capped)
    with pytest.raises(ValueError):
        HomogeneousIdeal(2, None, powers=[([(-1,)], 1)], caps=capped)
    # the exponent of a power is at least 1, on any lines
    for lines in ([(0, 1)], [(0,), (1,)], []):
        with pytest.raises(ValueError, match="exponent"):
            HomogeneousIdeal(2, None, powers=[(lines, 0)], caps=capped)
    # an order needs a singleton support on every variable to be total
    with pytest.raises(ValueError):
        HomogeneousIdeal(3, [(0, 1, 2), (0,), (1,)], caps=[((0, 1, 2), 1)])
    with pytest.raises(ValueError):
        HomogeneousIdeal(2, [(0,), (1,), (2,)], caps=capped)
    assert HomogeneousIdeal(3, [(0, 1), (2,), (1, 1), (0,)], caps=[((0, 1, 2), 1)]).order == (
        (0, 1), (2,), (1, 1), (0,)
    )


def test_an_uncapped_variable_is_rejected():
    # the caps bound every variable, a power on single variables counting as
    # a cap and an empty line as nothing, so the order is packed once, when
    # the ideal is built; a variable on no cap is a ValueError naming it
    for nvars, order, powers, caps, v in [
        (2, None, [], [], 0),
        (2, None, [([(), ()], 3)], [], 0),
        (3, None, [([(0, 1)], 2)], [((0,), 1)], 1),
        (3, [(0, 1, 2), (2,), (1,), (0,)], [([(0, 1), (1, 2)], 2)], [((0,), 1), ((1, 0), 2)], 2),
    ]:
        with pytest.raises(ValueError, match=f"variable {v} lies on no cap"):
            HomogeneousIdeal(nvars, order, powers, caps)
    # caps of 0 and powers on single variables cover their variables
    assert HomogeneousIdeal(2, None, caps=[((0, 1), 0)]).clean_monomials(1) == ()
    assert HomogeneousIdeal(2, None, [([(0,)], 2), ([(1,)], 1)]).caps == (((0,), 1), ((1,), 0))
    # every ideal the library builds has its variables capped: none at all,
    # the margin block of every pair with n <= 5 and lengths <= 3, and every
    # one-row ideal with total bound <= 8
    assert HomogeneousIdeal(0, None).clean_monomials(0) == ((),)
    models = 0
    for n in range(6):
        comps = weak_compositions_upto(n, 3)
        for alpha in comps:
            for beta in comps:
                assert isinstance(QuotientModel(alpha, beta).ideal, HomogeneousIdeal)
                models += 1
    assert models > 1000
    for bounds in [b for total in range(1, 9) for b in strict_compositions(total)]:
        assert isinstance(one_row_ideal(bounds), HomogeneousIdeal)


def test_powers_contract():
    # a power on one variable is the cap 0 on it, and on single variables
    # the cap e - 1 on their union; lines holding the same variables, in any
    # order or repeated, are one line, and an empty line, the sum 0, is none.
    # Each ideal holds a cap of 3 on all its variables, past the degrees read
    every = [((0, 1, 2), 3)]
    plain = HomogeneousIdeal(3, None, [([(0, 1)], 1)], every + [((2,), 0)])
    single = HomogeneousIdeal(3, None, [([(0, 1)], 1), ([(2,)], 1)], every)
    listed = HomogeneousIdeal(
        3, None, [([(0, 1), (1, 0), (0, 0, 1), ()], 1), ([(2,), (2,)], 1), ([()], 4)], every
    )
    assert single.caps == listed.caps == plain.caps == (((0, 1, 2), 3), ((2,), 0))
    for d in range(4):
        expected = plain.slice(d)
        for ideal in (single, listed):
            basis = ideal.slice(d)
            assert (basis.columns, basis.rows) == (expected.columns, expected.rows)
    assert plain.standard_monomials(2) == ((0, 2, 0),)
    # (x0, x1)^2 is every monomial of degree 2 on x0 and x1: the cap 1
    square = HomogeneousIdeal(3, None, [([(0,), (1,)], 2)], [((0, 1, 2), 2)])
    assert square.caps == (((0, 1, 2), 2), ((0, 1), 1))
    assert square.clean_monomials(2) == ((1, 0, 1), (0, 1, 1), (0, 0, 2))


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
    # one_row_ideal lives on x_2..x_n: its pure powers x_i^(d_i + 1), and on
    # a single variable x_2 the power x_2^(d_1 + 1) of the sum as well
    specs = [b for total in range(1, 9) for b in strict_compositions(total)]
    specs += [(0,), (0, 0), (1, 0, 2), (0, 3)]
    for bounds in specs:
        n = len(bounds) - 1
        ideal = one_row_ideal(bounds)
        monos = [next(iter(Poly.variable(n, i, d + 1).terms)) for i, d in enumerate(bounds[1:])]
        if n == 1:
            monos.append((bounds[0] + 1,))
        for d in range(sum(bounds) + 2):
            if n:
                expected = divisibility_clean_monomials(monos, n, d)
            else:
                expected = [()] if d == 0 else []
            assert list(ideal.clean_monomials(d)) == expected, (bounds, d)


def _sum(support):
    return [([support], 1)]


# cap systems that are neither margin nor one-row ideals: (nvars, powers, caps)
CAP_SYSTEMS = {
    # variable 3 on the cap of 7 on every variable only, as "no caps" is:
    # those caps remove no monomial of a degree the test reads, d < 7
    "uncapped variable": (4, _sum((0, 1, 2, 3)), [((0, 1), 2), ((1, 2), 1), ((0, 1, 2, 3), 7)]),
    "cap of 0": (4, _sum((0, 3)) + _sum((1, 2)), [((0, 1, 2), 3), ((2, 3), 0)]),
    "overlapping supports": (
        5,
        _sum((0, 1, 2)) + _sum((2, 3, 4)) + _sum((0, 4)),
        [((0, 2, 4), 2), ((1, 2, 3), 3), ((0, 3), 1), ((1, 4), 2)],
    ),
    # (0, 1) and (1, 0) are two caps on one support; (2, 2, 3) repeats 2
    "repeated support": (4, _sum((1, 2)), [((0, 1), 3), ((1, 0), 2), ((0, 1), 4), ((2, 2, 3), 1)]),
    "no caps": (3, _sum((0, 1)), [((0, 1, 2), 7)]),
    # powers: multinomial coefficients, products of overlapping lines, two
    # powers of one degree and of two, and the skip of the rows whose factor
    # a lead of an earlier line divides
    "cube of one line": (3, [([(0, 1, 2)], 3)], [((0,), 2), ((1, 2), 3)]),
    "square of overlapping lines": (
        5,
        [([(0, 1, 2), (2, 3, 4), (0, 4)], 2)],
        [((0, 2, 4), 3), ((1, 2, 3), 3)],
    ),
    "two powers": (
        4,
        [([(0, 1), (2, 3)], 2), ([(0, 2), (1, 3)], 1)],
        [((0, 1, 2, 3), 4)],
    ),
    "block of a 3 x 3 grid": (
        4,
        [([(0, 2), (1, 3)], 2), ([(0, 1), (2, 3)], 3)],
        [((0, 1), 2), ((2, 3), 1), ((0, 2), 2), ((1, 3), 2)],
    ),
}


def _power_generators(nvars, powers):
    """Every product of e of the line sums of each power, multiplied out."""
    gens = []
    for lines, e in powers:
        for picked in itertools.combinations_with_replacement(lines, e):
            product = Poly.monomial((0,) * nvars)
            for line in picked:
                product = product * linear_form(nvars, line)
            gens.append(product)
    return gens


@pytest.mark.parametrize("name", CAP_SYSTEMS)
def test_caps_match_divisibility_beyond_margins(name):
    # every clean monomial is made once, in the divisibility filter's order,
    # and every slice has the oracle's pivots and standard monomials
    nvars, powers, caps = CAP_SYSTEMS[name]
    ideal = HomogeneousIdeal(nvars, None, powers, caps)
    monos = []
    for support, cap in caps:
        support = sorted(set(support))
        for exps in bounded_exponents(len(support), cap + 1):
            full = [0] * nvars
            for v, e in zip(support, exps):
                full[v] = e
            monos.append(tuple(full))
    gens = _power_generators(nvars, powers) + [Poly.monomial(m) for m in monos]
    for d in range(7):
        clean = ideal.clean_monomials(d)
        assert len(set(clean)) == len(clean), d
        assert list(clean) == divisibility_clean_monomials(monos, nvars, d), d
        pivots, standard = oracle_slice(gens, nvars, None, d)
        basis = ideal.slice(d)
        assert [basis.columns[p] for p in basis.rows] == pivots, d
        assert list(ideal.standard_monomials(d)) == standard, d
    _assert_slices_unskipped(ideal, powers, None, 6)


def test_ideals_of_one_shape_keep_their_own_caps():
    # the set-up an ideal's shape fixes is shared between ideals, the cap
    # values are not: two margin ideals on one grid with different margins,
    # and a sum on one variable beside a cap on that variable, in either order,
    # each slice as the generator lists give it
    grid = Grid(2, 3)
    key = diagonal_key(grid)
    for alpha, beta in [((2, 1), (1, 1, 1)), ((1, 3), (2, 0, 2)), ((2, 1), (1, 1, 1))]:
        ideal = margin_ideal(alpha, beta)
        _, gens = contingency_generators(alpha, beta)
        for d in range(sum(alpha) + 2):
            basis = ideal.slice(d)
            assert ([basis.columns[p] for p in basis.rows], list(basis.standard)) == (
                oracle_slice(gens, grid.nvars, key, d)
            ), (alpha, beta, d)
    for cap in (2, 0, 1):
        for sums in ([(0, 1), (2,)], [(2,), (0, 1)]):
            powers = [([support], 1) for support in sums]
            # the cap of 4 on every variable is past the degrees read
            ideal = HomogeneousIdeal(3, None, powers, [((2,), cap), ((0, 2), 2), ((0, 1, 2), 4)])
            gens = [linear_form(3, support) for support in sums]
            gens += [Poly.monomial((0, 0, cap + 1))]
            gens += [Poly.monomial((a, 0, 3 - a)) for a in range(4)]
            assert dict(ideal.caps)[(2,)] == 0
            for d in range(5):
                basis = ideal.slice(d)
                assert ([basis.columns[p] for p in basis.rows], list(basis.standard)) == (
                    oracle_slice(gens, 3, None, d)
                ), (cap, sums, d)


@pytest.mark.parametrize("nvars", [0, 1, 2])
def test_negative_degrees_are_empty(nvars):
    for ideal in (
        HomogeneousIdeal(nvars, None, caps=[(tuple(range(nvars)), 1)]),
        HomogeneousIdeal(nvars, None, [([tuple(range(nvars))], 2)], [(tuple(range(nvars)), 2)]),
    ):
        for d in (-1, -2):
            assert ideal.clean_monomials(d) == ()
            basis = ideal.slice(d)
            assert (basis.columns, dict(basis.rows), basis.standard) == ((), {}, ())
            assert ideal.standard_monomials(d) == ()
        assert ideal.clean_monomials(0) == ((0,) * nvars,)


def test_degrees_past_the_last_clean_one_are_empty():
    # once a degree has no clean monomial, no higher degree is enumerated
    ideal = HomogeneousIdeal(3, None, [([(0, 1, 2)], 1)], [((0, 1, 2), 2)])
    assert ideal.clean_monomials(40) == ()
    assert len(ideal._clean) == 4  # degrees 0..3, the last one empty
    for d in (3, 4, 10**9):
        assert ideal.clean_monomials(d) == ()
        assert ideal.slice(d).columns == ideal.standard_monomials(d) == ()
    assert ideal.normal_form(Poly.monomial((0, 10**9, 0))) == Poly(3)


def test_powers_are_expanded_only_up_to_the_last_clean_degree(monkeypatch):
    # a power of exponent e is multiplied out only by a slice of degree at
    # least e that has a column, and then into its clean terms only, so a
    # power above the last clean degree costs nothing: on (10,1,1)/(1^12) the
    # column power (C_2, ..., C_12)^11 has C(21, 11) products of two-cell
    # lines, and on the one-row bounds (20, 1^10) the power
    # (x_2 + ... + x_11)^21 has C(30, 9) terms, while no clean degree is
    # above 2 and 10
    built = []
    products = HomogeneousIdeal._products

    def record(self, e, lines, leads):
        out = products(self, e, lines, leads)
        built.append((len(lines), e, sum(len(terms) for terms, _ in out)))
        return out

    monkeypatch.setattr(HomogeneousIdeal, "_products", record)
    model = QuotientModel((10, 1, 1), (1,) * 12)
    assert model.hilbert == (1, 22, 109) and model.size == 132
    assert [e for _, e, _ in built] == [2]  # the row power (R_2, R_3)^2
    built.clear()
    std = one_row_standard_monomials((20,) + (1,) * 10)
    assert [len(std[d]) for d in sorted(std)] == [math.comb(10, d) for d in range(11)]
    assert built == []
    # (x_2 + ... + x_11)^10 meets the last clean degree, 10, in one clean
    # term, x_2 * ... * x_11, the only one multiplied out
    ideal = one_row_ideal((9,) + (1,) * 10)
    assert ideal.standard_monomials(10) == ()
    assert built == [(1, 10, 1)]


def test_times_is_poly_multiplication_restricted_to_clean_monomials():
    # the one step that multiplies out a power's products and the Lefschetz
    # powers: terms times a linear form, kept on the clean monomials of the
    # next degree, with the coefficients that cancel dropped.  Random ideals
    # with caps of 0, random terms, clean or not, and forms with mixed signs
    # and repeated variables, against Poly multiplication; a cap of 4 on
    # every variable keeps every degree read, and the terms are keyed in the
    # ideal's packing, exact up to degree 4
    rng = random.Random(27)
    cancelled = 0
    for _ in range(300):
        nvars = rng.randint(1, 4)
        caps = [
            (rng.sample(range(nvars), rng.randint(1, nvars)), rng.randint(0, 3))
            for _ in range(rng.randint(0, 3))
        ]
        ideal = HomogeneousIdeal(nvars, None, caps=caps + [(range(nvars), 4)])
        key = ideal.slice(4).key
        for d in range(4):
            clean = set(ideal.clean_monomials(d + 1))
            every = bounded_exponents(nvars, d)
            terms = {m: rng.choice((-2, -1, 1, 3)) for m in rng.sample(every, min(4, len(every)))}
            form = [(rng.randrange(nvars), rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))]
            linear = Poly(nvars)
            for v, a in form:
                linear = linear + a * Poly.variable(nvars, v)
            product = (Poly(nvars, terms) * linear).terms
            expected = {m: c for m, c in product.items() if m in clean}
            got = ideal.times({key(m): c for m, c in terms.items()}, d, form)
            assert got == {key(m): c for m, c in expected.items()}, (caps, terms, form)
            assert all(got.values())
            reached = {e[:v] + (e[v] + 1,) + e[v + 1 :] for e in terms for v, a in form if a}
            cancelled += len(got) < len(reached & clean)
    assert cancelled  # some products lost a clean term to cancellation


def test_times_drops_the_terms_that_cancel():
    # (x0 - x1)(x0 + x1) = x0^2 - x1^2 loses x0 * x1; a cap of 1 on x0 then
    # leaves -x1^2 only, and x0^2 * x1^2 loses every term.  A cap of 4 on
    # both variables keeps every degree read, and the terms are keyed in each
    # ideal's packing, exact up to degree 4
    free = HomogeneousIdeal(2, None, caps=[((0, 1), 4)])
    key = free.slice(3).key
    assert free.times({key((1, 0)): 1, key((0, 1)): -1}, 1, [(0, 1), (1, 1)]) == {
        key((2, 0)): 1,
        key((0, 2)): -1,
    }
    capped = HomogeneousIdeal(2, None, caps=[((0,), 1), ((0, 1), 4)])
    ckey = capped.slice(3).key
    assert capped.times({ckey((1, 0)): 1, ckey((0, 1)): -1}, 1, [(0, 1), (1, 1)]) == {
        ckey((0, 2)): -1
    }
    assert capped.times({ckey((1, 1)): 2}, 2, [(0, 1)]) == {}
    assert capped.times({}, 0, [(0, 1)]) == {}
    # a form whose coefficients sum to zero on one variable adds nothing
    assert free.times({key((1, 0)): 1}, 1, [(1, 2), (1, -2)]) == {}


def test_no_zero_coefficient_reaches_a_row(monkeypatch):
    # the slice rows and the reduced Lefschetz images handed to elimination
    # hold no zero entry.  The step drops the terms that cancel, though its
    # two callers make none: a product of line sums has positive
    # coefficients, and a power of one linear form one multinomial term per
    # monomial.  The reduction drops the entries it clears
    echelon = ctring.linalg.position_echelon
    rows_seen = []

    def checked(rows, ncols=None):
        rows = list(rows)
        for row in rows:
            assert all(row.values()), row
        rows_seen.append(len(rows))
        return echelon(rows, ncols)

    monkeypatch.setattr(ctring.linalg, "position_echelon", checked)
    monkeypatch.setattr(ctring.quotient, "position_echelon", checked)
    pairs = [((1,) * 5, (1,) * 5), ((2, 1, 1), (2, 2)), ((3, 2), (2, 2, 1))]
    pairs += [((2, 2, 2), (2, 2, 2))]
    for alpha, beta in pairs:
        assert lefschetz_report(QuotientModel(alpha, beta))
    ideal = one_row_ideal((3, 2, 2, 1))
    for d in range(9):
        ideal.slice(d)
    assert sum(rows_seen) > 500


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


def _full_rank_rows(rng):
    """A sparse integer matrix of full column rank: an upper triangular
    square with nonzero diagonal, plus random combinations of its rows."""
    ncols = rng.randint(1, 10)
    rows = []
    for p in range(ncols):
        row = {p: rng.choice([-2, -1, 1, 3])}
        for q in rng.sample(range(p + 1, ncols), min(3, ncols - p - 1)):
            row[q] = rng.choice([-3, -1, 1, 2])
        rows.append(row)
    for _ in range(rng.randint(0, 6)):
        combo = {}
        for row in rng.sample(rows, min(2, len(rows))):
            scale = rng.choice([-2, -1, 1, 3])
            for p, c in row.items():
                combo[p] = combo.get(p, 0) + scale * c
        rows.append({p: c for p, c in combo.items() if c})
    rng.shuffle(rows)
    return rows, ncols


def test_stop_at_full_rank_keeps_the_echelon():
    # with the column count given, elimination stops once every column is
    # a pivot; the echelon is the one that takes every row
    rng = random.Random(3030)
    full = 0
    for _ in range(300):
        rows = [integer_row(r) for r in _random_rows(rng)]
        ncols = 1 + max(p for row in rows for p in row)
        assert position_echelon(rows, ncols) == position_echelon(rows)
        square, ncols = _full_rank_rows(rng)
        stopped = position_echelon(square, ncols)
        assert stopped == position_echelon(square) and len(stopped) == ncols
        full += len(square) > ncols
    assert full > 100


def test_full_rank_slice_stops_eliminating(monkeypatch):
    # the slice of (1^8) one past its top degree has full rank; once every
    # column is a pivot, the rows left are not reduced at all
    echelon = ctring.linalg.position_echelon
    eliminate = ctring.linalg._eliminate
    seen = []
    calls = [0]

    def recorded(rows, ncols=None):
        rows = list(rows)
        seen.append((rows, ncols))
        return echelon(rows, ncols)

    def counted(vec, p, prow):
        calls[0] += 1
        return eliminate(vec, p, prow)

    monkeypatch.setattr(ctring.linalg, "position_echelon", recorded)
    monkeypatch.setattr(ctring.linalg, "_eliminate", counted)
    basis = one_row_ideal((1,) * 8).slice(5)
    assert not basis.standard and len(seen) == 1
    stopped = calls[0]
    rows, ncols = seen[0]
    assert ncols == len(basis.columns)
    calls[0] = 0
    assert echelon(rows) == basis.rows
    assert stopped < calls[0]


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
    # the one-row ideal on x_2..x_n against its generators there, and its
    # standard monomials with x_1 = 0 against those of the whole row
    for bounds in [(1, 2, 1), (2, 2), (3,), (1, 1, 1, 1), (2, 1, 2, 1)]:
        ideal = one_row_ideal(bounds)
        n = len(bounds) - 1
        gens = [Poly.variable(n, i, d + 1) for i, d in enumerate(bounds[1:])]
        gens += _power_generators(n, [([tuple(range(n))], bounds[0] + 1)])
        for d in range(sum(bounds) + 2):
            basis = ideal.slice(d)
            standard = list(ideal.standard_monomials(d))
            if n:
                pivots, expected = oracle_slice(gens, n, None, d)
                assert [basis.columns[p] for p in basis.rows] == pivots
                assert standard == expected
            whole = oracle_slice(one_row_generators(bounds), n + 1, None, d)[1]
            assert [(0,) + m for m in standard] == whole


def _assert_slices_unskipped(ideal, powers, key, top):
    """Every slice up to top has the columns, the pivots and the row space of
    the unskipped rows of the presentation; returns how many nonempty rows
    those are, summed over the slices."""
    full_rows = 0
    for d in range(top + 1):
        basis = ideal.slice(d)
        columns, rows = unskipped_slice_rows(ideal, powers, key, d)
        full = position_echelon(rows)
        assert list(basis.columns) == columns, d
        assert list(basis.rows) == sorted(full), d
        assert fraction_rref(list(basis.rows.values())) == fraction_rref(
            list(full.values())
        ), d
        full_rows += sum(map(bool, rows))
    return full_rows


def test_skipped_rows_keep_every_slice(monkeypatch):
    # the slices skip a product's row when a lead of a line before its last
    # divides the factor; the rows left have the pivots and the row space of
    # every product times every clean factor, on the block ideal of every
    # margin pair with n <= 5 and lengths <= 3 and of four pairs with longer
    # margins, which the model builds as block_presentation states it, and on
    # the one-row ideals, where one line leaves nothing to skip
    kept = []
    echelon = ctring.linalg.position_echelon

    def counted(rows, ncols=None):
        rows = list(rows)
        kept.append(sum(map(bool, rows)))
        return echelon(rows, ncols)

    monkeypatch.setattr(ctring.linalg, "position_echelon", counted)
    pairs = [
        (alpha, beta)
        for n in range(6)
        for alpha in weak_compositions_upto(n, 3)
        for beta in weak_compositions_upto(n, 3)
        if sum(alpha) == sum(beta)
    ]
    pairs += [((1,) * 5, (1,) * 5), ((2, 1, 1, 1), (1,) * 5), ((1,) * 5, (2, 1, 1, 1))]
    pairs += [((3, 1, 1, 1), (2, 1, 1, 1, 1))]
    full = 0
    for alpha, beta in pairs:
        nvars, order, powers, caps = block_presentation(alpha, beta)
        ideal = QuotientModel(alpha, beta).ideal
        block = Grid(len(alpha) - 1, len(beta) - 1) if nvars else None
        key = diagonal_key(block) if block else None
        kept.clear()
        for d in range(sum(alpha) + 2):
            ideal.slice(d)
        library = sum(kept)
        reference = HomogeneousIdeal(nvars, order, powers, caps)
        for d in range(sum(alpha) + 2):
            assert reference.slice(d).columns == ideal.slice(d).columns, (alpha, beta)
        full += _assert_slices_unskipped(ideal, powers, key, sum(alpha) + 1) - library
    assert len(pairs) > 1500 and full > 1000  # rows were skipped
    for bounds in [b for total in range(1, 8) for b in strict_compositions(total)]:
        n = len(bounds) - 1
        powers = [([tuple(range(n))], bounds[0] + 1)] if n else []
        _assert_slices_unskipped(one_row_ideal(bounds), powers, None, sum(bounds) + 1)


def _assert_columns_sorted(ideal, key, top):
    for d in range(top + 1):
        expected = sorted(ideal.clean_monomials(d), key=key, reverse=True)
        assert list(ideal.slice(d).columns) == expected, d


def test_packed_order_sorts_every_slice():
    # the columns, sorted on packed integer keys, against the sort by the
    # oracle's tuple key: every slice of every margin pair with n <= 5 and
    # lengths <= 3 under the library's diagonal order and the column-ranked
    # one, of its block ideal under the diagonal order of the block, and of
    # the one-row ideals under lex
    pairs = 0
    for n in range(6):
        comps = weak_compositions_upto(n, 3)
        for alpha in comps:
            for beta in comps:
                grid = Grid(len(alpha), len(beta))
                for tiebreak, ideal in (
                    ("row", margin_ideal(alpha, beta)),
                    ("column", column_margin_ideal(alpha, beta)),
                ):
                    _assert_columns_sorted(ideal, diagonal_key(grid, tiebreak), n + 1)
                if min(grid.k, grid.p) > 1:
                    block = diagonal_key(Grid(grid.k - 1, grid.p - 1))
                    _assert_columns_sorted(QuotientModel(alpha, beta).ideal, block, n + 1)
                pairs += 1
    assert pairs > 1000
    for bounds in [b for total in range(1, 9) for b in strict_compositions(total)]:
        _assert_columns_sorted(one_row_ideal(bounds), None, sum(bounds) + 1)
    # the carry edge: with a cap of 4 on every variable, the order is packed
    # in base 5 and the degree-4 slice holds x_v^4, whose singleton digit 4
    # is the largest that base 5 allows
    for grid in (Grid(2, 3), Grid(3, 2)):
        for tiebreak, order in (
            ("row", grid.diagonal_order()),
            ("column", column_diagonal_order(grid)),
        ):
            ideal = HomogeneousIdeal(grid.nvars, order, caps=[(range(grid.nvars), 4)])
            _assert_columns_sorted(ideal, diagonal_key(grid, tiebreak), 4)
            assert (4,) + (0,) * (grid.nvars - 1) in ideal.slice(4).columns


def _assert_per_degree(ideal, degree):
    basis, expected = ideal.slice(degree), per_degree_slice(ideal, degree)
    assert basis.columns == expected.columns, degree
    assert {p: dict(row) for p, row in basis.rows.items()} == {
        p: dict(row) for p, row in expected.rows.items()
    }, degree
    assert basis.standard == expected.standard, degree


def test_one_packing_matches_the_per_degree_slices():
    # the order packed once per ideal, with keys carried from the clean
    # monomial walk through the products to the rows, against the order
    # packed per degree with every key a dot product and the products on
    # exponent tuples: every slice's columns, echelon rows and standard
    # monomials, and every Lefschetz report, on every margin pair with
    # n <= 5 and lengths <= 3 and on every one-row bound with total <= 8
    slices = 0
    for n in range(6):
        comps = weak_compositions_upto(n, 3)
        for alpha in comps:
            for beta in comps:
                model = QuotientModel(alpha, beta)
                for d in range(n + 2):
                    _assert_per_degree(model.ideal, d)
                    slices += 1
                assert lefschetz_report(model) == per_degree_lefschetz_report(model)
    for bounds in [b for total in range(1, 9) for b in strict_compositions(total)]:
        ideal = one_row_ideal(bounds)
        for d in range(sum(bounds) + 2):
            _assert_per_degree(ideal, d)
            slices += 1
    assert slices > 12000


def test_an_ideal_packs_its_order_once_at_construction(monkeypatch):
    # with the block and the layout warm, an ideal calls order_weights once,
    # when it is built, and keeps that packing: a one-row ideal through
    # slices past its last clean degree, a long clean-monomial walk and a
    # keyed clean-term step, and a model through its slices and its
    # Lefschetz report
    QuotientModel((2, 2, 2), (2, 2, 1, 1))
    one_row_ideal((1,) * 6)
    calls = []
    weights = ctring.linalg.order_weights

    def counted(*args):
        calls.append(args)
        return weights(*args)

    monkeypatch.setattr(ctring.linalg, "order_weights", counted)
    ideal = one_row_ideal((1,) * 6)
    packing = ideal._weights
    assert [len(ideal.standard_monomials(d)) for d in range(11)] == [1, 5, 9, 5] + [0] * 7
    assert ideal.clean_monomials(40) == () and ideal.slice(10).columns == ()
    key = ideal.slice(1).key
    assert ideal.times({key((1, 0, 0, 0, 0)): 1}, 1, [(1, 1)]) == {key((1, 1, 0, 0, 0)): 1}
    assert len(calls) <= 1 and ideal._weights is packing
    calls.clear()
    model = QuotientModel((2, 2, 2), (2, 2, 1, 1))
    packing = model.ideal._weights
    lefschetz_report(model)
    assert len(model.hilbert) > 2 and len(calls) <= 1 and model.ideal._weights is packing


def test_simple_ideal_slice():
    # (x1 + x2) in two variables: degree-1 leading {x1}, standard {x2}
    ideal = HomogeneousIdeal(2, None, [([(0, 1)], 1)], [((0, 1), 3)])
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
        assert not unclean & set(ideal.standard_monomials(d))


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
                    if m in basis.columns
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
    # arithmetic, a polynomial of another ring is a ValueError
    ideal = margin_ideal((2, 1), (2, 1))
    with pytest.raises(ValueError, match="variable count mismatch"):
        ideal.normal_form(Poly(5, {(0, 0, 0, 1, 1): 1}))
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

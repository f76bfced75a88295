import itertools
import random

import pytest

import ctring.onerow
from oracles import backtracking_two_row_tableaux, strict_compositions
from ctring.errors import CheckFailed
from ctring.linalg import HomogeneousIdeal, extreme_monomials
from ctring.onerow import (
    column_product,
    dimension_counts,
    one_row_generators,
    one_row_hilbert,
    one_row_ideal,
    one_row_standard_monomials,
    run_saturation,
    saturation_successor,
    tableau_from_first_row,
    two_row_tableaux,
)
from ctring.partitions import tableau_content, weak_compositions
from ctring.polys import Poly, diff_pairing


def test_generators_golden():
    gens = one_row_generators((1, 2, 1))
    expected = {
        Poly.variable(3, 0, power=2),
        Poly.variable(3, 1, power=3),
        Poly.variable(3, 2, power=2),
        Poly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}),
    }
    assert set(gens) == expected
    assert len(gens) == 4


def test_generators_degenerate():
    assert one_row_generators((0,)) == [Poly.variable(1, 0)]
    gens = one_row_generators((2, 2))
    assert gens == [
        Poly.variable(2, 0, power=3),
        Poly.variable(2, 1, power=3),
        Poly(2, {(1, 0): 1, (0, 1): 1}),
    ]


def test_hilbert_golden():
    assert one_row_hilbert((1, 2, 1)) == [1, 2, 1]
    assert one_row_hilbert((0, 0, 0)) == [1]
    assert one_row_hilbert((2,)) == [1]


def test_hilbert_against_linear_algebra():
    for bounds in [(1,), (2, 1), (1, 1, 1), (3, 2), (2, 2, 1), (1, 2, 1, 2)]:
        std = one_row_standard_monomials(bounds)
        assert one_row_hilbert(bounds) == [len(std[d]) for d in sorted(std)]


def test_two_row_tableaux_golden():
    tabs = set(two_row_tableaux((1, 2, 1)))
    assert tabs == {
        ((), ()),
        ((1,), (2,)),
        ((1,), (3,)),
        ((2,), (3,)),
        ((1, 2), (2, 3)),
    }


def test_two_row_tableaux_trivial():
    assert two_row_tableaux((0, 0)) == [((), ())]


def test_two_row_tableaux_match_backtracking_oracle():
    # the same list, order included, on every strict composition with total
    # <= 10 and every bounds vector in {0..3}^n with n <= 4
    cases = [b for total in range(11) for b in strict_compositions(total)]
    cases += [b for n in range(5) for b in itertools.product(range(4), repeat=n)]
    for bounds in cases:
        assert two_row_tableaux(bounds) == backtracking_two_row_tableaux(bounds), bounds


def test_memoized_results_are_fresh_lists():
    # mutating a returned list leaves the next call's answer as it was
    for entry in (two_row_tableaux, one_row_hilbert):
        for bounds in [(1, 2, 1), (2, 2)]:
            first = entry(bounds)
            expected = list(first)
            first.pop()
            first.append(None)
            again = entry(bounds)
            assert again == expected and again is not first, (entry, bounds)


def test_dimension_counts_shares_the_listings():
    # one op asks for the counts, the tableaux and the series of one bounds
    # vector: the tableaux and the series are each computed once, by
    # dimension_counts, and read back from the memo by the next call
    ctring.onerow._tableaux.cache_clear()
    ctring.onerow._hilbert.cache_clear()
    bounds = (1, 2, 1, 2)
    dimension_counts(bounds)
    two_row_tableaux(bounds)
    one_row_hilbert(bounds)
    for memo in (ctring.onerow._tableaux, ctring.onerow._hilbert):
        info = memo.cache_info()
        assert (info.misses, info.hits) == (1, 1), memo


def test_negative_bound_is_rejected():
    # every entry point checks the bounds before any work, and the error
    # names the bad bound
    entry_points = [
        two_row_tableaux,
        one_row_hilbert,
        dimension_counts,
        one_row_ideal,
        one_row_standard_monomials,
        one_row_generators,
    ]
    for entry in entry_points:
        for bounds in [(-1, 3), (2, 0, -2)]:
            with pytest.raises(ValueError, match=f"bad bound {min(bounds)}"):
                entry(bounds)


def test_dimension_counts():
    assert dimension_counts((1, 2, 1)) == (4, 4, 4)
    assert dimension_counts((0, 0)) == (1, 1, 1)
    rng = random.Random(73)
    for _ in range(15):
        n = rng.randint(1, 4)
        bounds = tuple(rng.randint(0, 3) for _ in range(n))
        c1, c2, c3 = dimension_counts(bounds)
        assert c1 == c2 == c3


def test_saturation_golden():
    bounds = (3, 2, 3, 3, 2, 2)
    beta = (3, 0, 0, 2, 1, 0)
    dots, unsatisfied = run_saturation(bounds, beta)
    assert dots == (0, 2, 1, 0, 1, 2)
    assert not any(unsatisfied)
    # rightmost unsaturated entry is position 4, which gets incremented
    assert saturation_successor(bounds, beta) == (3, 0, 0, 3, 1, 0)


def test_saturation_reconstruction_golden():
    assert tableau_from_first_row((3, 2, 3, 3, 2, 2), (2, 1, 0, 0, 1, 0)) == (
        (1, 1, 2, 5),
        (2, 3, 3, 6),
    )


def test_saturation_zero_composition():
    # nothing to dot: every positive-bound entry stays unsaturated, so the
    # rightmost of them is incremented
    assert saturation_successor((2, 2, 0), (0, 0, 0)) == (0, 1, 0)


def test_saturation_precondition():
    with pytest.raises(ValueError):
        saturation_successor((1, 1), (1, 0))  # weight 2 exceeds half of 2
    with pytest.raises(ValueError):
        saturation_successor((1, 1), (2, 0))  # not under the bounds


def test_phi_golden():
    assert tableau_content(((1, 2, 2, 4),), 5) == (1, 2, 0, 1, 0)
    assert tableau_content(((),), 4) == (0, 0, 0, 0)


def test_disjoint_union_small():
    for bounds in [(1, 2, 1), (2, 2), (3, 1, 2), (1, 1, 1, 1)]:
        n = len(bounds)
        tabs = two_row_tableaux(bounds)
        for m in range(sum(bounds) // 2 + 1):
            world = {
                w
                for w in weak_compositions(m, n)
                if all(x <= y for x, y in zip(w, bounds))
            }
            phi_image = {tableau_content((t[0],), n) for t in tabs if len(t[0]) == m}
            if m == 0:
                psi_image = set()
            else:
                prev = {
                    w
                    for w in weak_compositions(m - 1, n)
                    if all(x <= y for x, y in zip(w, bounds))
                }
                psi_image = {saturation_successor(bounds, w) for w in prev}
                assert len(psi_image) == len(prev)  # injective
            assert phi_image | psi_image == world
            assert not (phi_image & psi_image)


def test_column_product_golden():
    t = ((1, 1, 2, 3), (2, 3, 3, 4))
    f = column_product(t, 4)
    x = [Poly.variable(4, i) for i in range(4)]
    assert f == (x[0] - x[1]) * (x[0] - x[2]) * (x[1] - x[2]) * (x[2] - x[3])
    assert column_product(((), ()), 3) == Poly(3, {(0, 0, 0): 1})


def test_column_product_annihilated_by_generators():
    bounds = (1, 2, 1)
    gens = one_row_generators(bounds)
    for t in two_row_tableaux(bounds):
        f = column_product(t, 3)
        for g in gens:
            assert not diff_pairing(g, f)


def test_standard_basis_golden():
    std = one_row_standard_monomials((1, 2, 1))
    flat = {m for v in std.values() for m in v}
    assert flat == {(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)}


def test_standard_equals_second_row_monomials():
    for bounds in [(1, 2, 1), (2, 2), (1, 1, 1), (3, 1)]:
        n = len(bounds)
        std = {m for v in one_row_standard_monomials(bounds).values() for m in v}
        second = {tableau_content((b,), n) for _, b in two_row_tableaux(bounds)}
        assert std == second


def test_trailing_term_of_column_product():
    # lex-smallest term of the column product is the bottom-row monomial,
    # lex-largest is the top-row monomial
    for t in two_row_tableaux((1, 2, 1)):
        f = column_product(t, 3)
        assert min(f.terms) == tableau_content((t[1],), 3)
        assert max(f.terms) == tableau_content((t[0],), 3)


def test_inverse_system_trailing_monomials_match_standard():
    for bounds in [(1, 2, 1), (2, 2), (2, 1, 1)]:
        n = len(bounds)
        polys = [column_product(t, n) for t in two_row_tableaux(bounds)]
        fins = extreme_monomials(polys, None, smallest=True)
        std = {m for v in one_row_standard_monomials(bounds).values() for m in v}
        assert fins == std


def test_violating_monomials_lie_in_initial_ideal():
    # any monomial breaking one of the prefix inequalities has some element of
    # the ideal leading at it
    for bounds in [(1, 2, 1), (2, 2), (2, 1, 2)]:
        n = len(bounds)
        std = one_row_standard_monomials(bounds)
        half = sum(bounds) // 2
        for degree in range(half + 2):
            standard = set(std.get(degree, ()))
            assert all(len(m) == n for m in standard)
            for exps in weak_compositions(degree, n):
                violating = any(
                    2 * sum(exps[:i]) + exps[i] > sum(bounds[:i]) for i in range(n)
                )
                if violating:
                    assert exps not in standard


# Injected faults: each one-row theorem check fails as CheckFailed, the
# exception the CLI maps to a failed check, not as a crash.


def test_negative_hilbert_coefficient_is_a_failed_check(monkeypatch):
    # a product that flips the sign of every coefficient
    mul = ctring.onerow._qpoly_mul
    monkeypatch.setattr(
        ctring.onerow, "_qpoly_mul", lambda a, b: [-c for c in mul(a, b)]
    )
    # the series is memoized: empty the memo so that the formula itself runs
    # under the patch, and leave it empty
    ctring.onerow._hilbert.cache_clear()
    try:
        with pytest.raises(CheckFailed, match="nonnegative"):
            one_row_hilbert((1, 1))
    finally:
        ctring.onerow._hilbert.cache_clear()


def test_fully_saturated_composition_is_a_failed_check(monkeypatch):
    # dotting that fills every entry up to its bound leaves none to increment
    def saturate(bounds, beta):
        dots = tuple(d - b for d, b in zip(bounds, beta))
        return dots, (False,) * len(bounds)

    monkeypatch.setattr(ctring.onerow, "run_saturation", saturate)
    with pytest.raises(CheckFailed, match="unsaturated"):
        saturation_successor((1, 2, 1), (0, 1, 0))


def test_nonterminating_walk_is_a_failed_check(monkeypatch):
    # with its variable caps replaced by a cap of 10 on both, or as that cap
    # alone, the quotient has standard monomials past sum(bounds) + 1, the
    # last degree the walk reads
    for ideal in (
        lambda bounds: HomogeneousIdeal(2, None, [([(0, 1)], bounds[0] + 1)], [((0, 1), 10)]),
        lambda bounds: HomogeneousIdeal(2, None, caps=[((0, 1), 10)]),
    ):
        monkeypatch.setattr(ctring.onerow, "one_row_ideal", ideal)
        with pytest.raises(CheckFailed, match="terminate"):
            one_row_standard_monomials((1, 2, 1))

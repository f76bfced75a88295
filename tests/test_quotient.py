import math
import random

import pytest

from oracles import diagonal_key, nf_lefschetz_report, oracle_slice
from ctring.linalg import HomogeneousIdeal, linear_form
from ctring.partitions import weak_compositions_upto
from ctring.polys import Grid, Poly, polarize_row
from ctring.quotient import (
    QuotientModel,
    col_support,
    colsum_ideal_generators,
    contingency_generators,
    derived_matrix_set,
    hilbert_series_linear,
    hilbert_series_zigzag,
    lefschetz_element,
    lefschetz_report,
    margin_ideal,
    row_support,
    rowsum_ideal_generators,
    verify_associated_graded,
)
from ctring.series import hilbert_kostka


def _binom(n, k):
    return math.comb(n, k)


def test_generators_trivial_case():
    grid, gens = contingency_generators((1,), (1,))
    assert set(gens) == {
        Poly.variable(1, 0),
        Poly.variable(1, 0, power=2),
    }


def test_generators_contents():
    grid, gens = contingency_generators((3, 2), (2, 2, 1))
    assert linear_form(grid.nvars, row_support(grid, 2)) in gens
    # all degree-3 monomials supported on row 2 appear (row margin 2)
    row2 = [g for g in gens if len(g.terms) == 1 and g.degree() == 3]
    mono_row2 = {
        next(iter(g.terms))
        for g in row2
        if all(e == 0 for e in next(iter(g.terms))[:3])
    }
    assert len(mono_row2) == _binom(3 + 2, 2)  # degree 3 in 3 variables
    # all degree-3 monomials in column 1 appear (column margin 2)
    col1 = {
        next(iter(g.terms))
        for g in gens
        if len(g.terms) == 1
        and g.degree() == 3
        and all(next(iter(g.terms))[i] == 0 for i in (1, 2, 4, 5))
    }
    assert len(col1) == _binom(3 + 1, 1)  # degree 3 in 2 variables


def test_generator_count_formula():
    for alpha, beta in [((2, 1), (1, 1, 1)), ((3,), (1, 2)), ((2, 2, 2), (3, 3))]:
        k, p = len(alpha), len(beta)
        _, gens = contingency_generators(alpha, beta)
        expected = (
            k
            + p
            + sum(_binom(a + p, p - 1) for a in alpha)
            + sum(_binom(b + k, k - 1) for b in beta)
        )
        assert len(gens) == expected


def test_standard_basis_golden():
    model = QuotientModel((3, 2), (2, 2, 1))
    expected = {
        ((0, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 1, 0)),
        ((0, 0, 0), (0, 0, 1)),
        ((0, 0, 0), (0, 2, 0)),
        ((0, 0, 0), (0, 1, 1)),
    }
    assert model.standard_exponent_matrices() == expected
    assert model.standard_exponent_matrices() == derived_matrix_set((3, 2), (2, 2, 1))


def test_standard_basis_single_cell():
    model = QuotientModel((4,), (4,))
    assert model.standard_exponent_matrices() == {((0,),)}
    assert list(model.hilbert) == [1]


def test_hilbert_goldens():
    assert hilbert_series_linear((3, 2), (2, 2, 1)) == [1, 2, 2]
    assert hilbert_series_linear((1, 1), (1, 1)) == [1, 1]
    assert hilbert_series_zigzag((1, 1), (1, 1)) == [1, 1]
    assert hilbert_kostka((1, 1), (1, 1)) == [1, 1]


def test_zero_margin_parts():
    model = QuotientModel((2, 0), (1, 1))
    assert list(model.hilbert) == [1]
    assert model.size == 1


def test_lefschetz_element_golden():
    g = Grid(3, 2)
    lef = lefschetz_element((2, 2, 1), (3, 2), g)
    expected = (
        g.variable(1, 1) + g.variable(2, 1) + g.variable(2, 2) + g.variable(3, 2)
    )
    assert lef == expected
    g1 = Grid(1, 1)
    assert lefschetz_element((5,), (5,), g1) == g1.variable(1, 1)


def test_lefschetz_block_incidence_oracle():
    rng = random.Random(79)
    for _ in range(25):
        k, p = rng.randint(1, 4), rng.randint(1, 4)
        alpha = tuple(rng.randint(0, 3) for _ in range(k))
        beta = tuple(rng.randint(0, 3) for _ in range(p))
        grid = Grid(k, p)
        lef = lefschetz_element(alpha, beta, grid)
        # oracle: walk the n x n diagonal and mark which blocks it visits
        marked = set()
        for t in range(1, sum(alpha) + 1 if sum(alpha) else 1):
            i = j = None
            acc = 0
            for idx, a in enumerate(alpha, 1):
                if acc < t <= acc + a:
                    i = idx
                acc += a
            acc = 0
            for idx, b in enumerate(beta, 1):
                if acc < t <= acc + b:
                    j = idx
                acc += b
            if i and j and sum(alpha) == sum(beta):
                marked.add((i, j))
        if sum(alpha) != sum(beta):
            continue
        got = {
            divmod(next(i for i, e in enumerate(exps) if e), p)
            for exps in lef.terms
        }
        assert {(i + 1, j + 1) for i, j in got} == marked


def test_lefschetz_report_golden():
    model = QuotientModel((3, 2), (2, 2, 1))
    report = lefschetz_report(model)
    assert report[0] == {
        "k": 0,
        "power": 2,
        "dim_source": 1,
        "dim_target": 2,
        "rank": 1,
        "injective": True,
    }
    assert report[1]["k"] == 1 and report[1]["power"] == 0
    assert report[1]["injective"] is True


def test_lefschetz_trivial_quotient():
    model = QuotientModel((3,), (3,))
    report = lefschetz_report(model)
    assert all(entry["injective"] for entry in report)


def test_verify_associated_graded():
    report = verify_associated_graded((3, 2), (2, 2, 1), QuotientModel((3, 2), (2, 2, 1)))
    assert report["lifts_vanish"] and report["dimension_match"]
    assert report["dimension"] == 5
    assert verify_associated_graded((1,), (1,), QuotientModel((1,), (1,)))["dimension_match"]
    # margins as lists name the same model; a model of other margins is the
    # caller's mistake, not a failed check
    model = QuotientModel((2, 1), (2, 1))
    assert verify_associated_graded([2, 1], [2, 1], model)["dimension_match"]
    for alpha, beta in [((3,), (3,)), ((1, 2), (2, 1)), ((2, 1), (1, 2))]:
        with pytest.raises(ValueError, match="margins"):
            verify_associated_graded(alpha, beta, model)
    with pytest.raises(ValueError, match="margins"):
        verify_associated_graded((2, 1), (2, 1), QuotientModel((3,), (3,)))


def test_shared_slices_are_read_only():
    # slices are cached and shared: a caller cannot change what the next
    # caller reads, such as the ranks of the Lefschetz report
    model = QuotientModel((2, 2), (2, 2))
    ranks = [entry["rank"] for entry in lefschetz_report(model)]
    assert ranks == [1, 1]
    basis = model.ideal.slice(2)
    with pytest.raises((AttributeError, TypeError)):
        basis.position.clear()
    with pytest.raises(TypeError):
        basis.position[0] = 0
    with pytest.raises((AttributeError, TypeError)):
        basis.rows.popitem()
    with pytest.raises(TypeError):
        del basis.rows[next(iter(basis.rows))]
    assert [entry["rank"] for entry in lefschetz_report(model)] == ranks


def test_ideal_sum_observation():
    # generators of the two one-sided ideals together span the same slices as
    # the margin generators, and as the line sums with line caps
    for alpha, beta in [((2, 1), (1, 1, 1)), ((2, 2), (2, 2)), ((3, 1), (2, 1, 1))]:
        grid, gens = contingency_generators(alpha, beta)
        key = diagonal_key(grid)
        _, row_side = rowsum_ideal_generators(beta, len(alpha), grid)
        _, col_side = colsum_ideal_generators(alpha, len(beta), grid)
        caps = margin_ideal(alpha, beta, grid, grid.diagonal_order())
        for d in range(sum(alpha) + 2):
            combined = oracle_slice(row_side + col_side, grid.nvars, key, d)
            assert combined == oracle_slice(gens, grid.nvars, key, d)
            basis = caps.slice(d)
            assert combined == (
                [basis.columns[p] for p in basis.rows],
                list(basis.standard),
            )


def test_row_polarization_preserves_rowsum_ideal():
    beta = (2, 1)
    k = 3
    grid, gens = rowsum_ideal_generators(beta, k)
    key = diagonal_key(grid)
    ideal = HomogeneousIdeal(
        grid.nvars,
        grid.diagonal_order(),
        [row_support(grid, i) for i in range(1, k + 1)],
        [(col_support(grid, j), b) for j, b in enumerate(beta, start=1)],
    )
    for d in range(1, 4):
        basis = ideal.slice(d)
        pivots = [basis.columns[p] for p in basis.rows]
        assert pivots == oracle_slice(gens, grid.nvars, key, d)[0]
        for row in basis.rows.values():
            poly = Poly(grid.nvars, {basis.columns[p]: c for p, c in row.items()})
            for source in range(1, k + 1):
                for dest in range(1, k + 1):
                    if source == dest:
                        continue
                    image = polarize_row(poly, grid, source, dest)
                    assert not ideal.normal_form(image)


def test_nonconvergence_guard():
    # sanity: model construction checks its own dimension bound
    model = QuotientModel((2, 2), (2, 2))
    assert sum(model.hilbert) == model.size


def test_standard_basis_independent_of_diagonal_tiebreak():
    # the standard monomial set is the same for every diagonal order, so the
    # column-ranked tiebreak must reproduce the row-ranked result
    for alpha, beta in [((3, 2), (2, 2, 1)), ((2, 2), (2, 2)), ((2, 1, 1), (1, 2, 1))]:
        grid = Grid(len(alpha), len(beta))
        a = margin_ideal(alpha, beta, grid, grid.diagonal_order(tiebreak="row"))
        b = margin_ideal(alpha, beta, grid, grid.diagonal_order(tiebreak="column"))
        for d in range(sum(alpha) + 1):
            std_a = set(a.standard_monomials(d))
            std_b = set(b.standard_monomials(d))
            assert std_a == std_b
            if not std_a:
                break


@pytest.mark.parametrize(
    "alpha, beta", [((3, 3, 3), (3, 3, 3)), ((3, 3, 2), (2, 2, 2, 2))]
)
def test_standard_basis_frontier(alpha, beta):
    # the largest margins checked in tier 1: standard monomials are the
    # matrix-ball derived matrices and the Hilbert series is the Kostka one
    model = QuotientModel(alpha, beta)
    assert model.standard_exponent_matrices() == derived_matrix_set(alpha, beta)
    assert list(model.hilbert) == hilbert_kostka(alpha, beta)


def test_lefschetz_ranks_match_normal_form_route(sweep):
    # every pair with n <= 5 and lengths <= 3: the slice-rank route against
    # normal forms over Fraction Gauss-Jordan on the generator list
    pairs = 0
    for r in sweep["records"]:
        if r["n"] <= 5:
            assert r["lefschetz"] == nf_lefschetz_report(r["alpha"], r["beta"]), r
            pairs += 1
    assert pairs > 900


def test_deficient_lefschetz_ranks_match_normal_form_route(monkeypatch):
    # the diagonal-block form is injective on every pair the sweep covers, so
    # there the rank equals dim_source whatever the route; a single variable
    # or one row sum as the linear form makes ranks drop, and the slice-rank
    # route must still agree with normal forms over Fraction Gauss-Jordan
    import ctring.quotient

    forms = {
        "x11": lambda grid: [grid.index(1, 1)],
        "row1": lambda grid: [grid.index(1, j) for j in range(1, grid.p + 1)],
    }
    deficient = 0
    for name, support_of in forms.items():
        monkeypatch.setattr(
            ctring.quotient,
            "lefschetz_element",
            lambda alpha, beta, grid: linear_form(grid.nvars, support_of(grid)),
        )
        for n in range(1, 4):
            comps = weak_compositions_upto(n, 3)
            for alpha in comps:
                for beta in comps:
                    model = QuotientModel(alpha, beta)
                    report = lefschetz_report(model)
                    expected = nf_lefschetz_report(alpha, beta, support_of(model.grid))
                    assert report == expected, (name, alpha, beta)
                    deficient += sum(not r["injective"] for r in report)
    assert deficient > 100

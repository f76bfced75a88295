import math
import random
from itertools import combinations

import pytest

from oracles import (
    col_support,
    column_margin_ideal,
    diagonal_key,
    full_lefschetz_ranks,
    margin_ideal,
    nf_lefschetz_report,
    oracle_slice,
    per_degree_lefschetz_report,
    row_support,
)
from ctring.experiments import sweep_record
from ctring.linalg import HomogeneousIdeal, linear_form
from ctring.partitions import partitions, weak_compositions, weak_compositions_upto
from ctring.polys import Grid, Poly, polarize_row
from ctring.quotient import (
    QuotientModel,
    colsum_ideal_generators,
    contingency_generators,
    derived_matrix_set,
    hilbert_series_linear,
    hilbert_series_zigzag,
    lefschetz_element,
    lefschetz_report,
    rowsum_ideal_generators,
    verify_associated_graded,
)
from ctring.psi import graded_decomposition
from ctring.series import hilbert_kostka, q_ehrhart
from ctring.tables import contingency_tables, count_contingency_tables


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
    assert len(mono_row2) == math.comb(3 + 2, 2)  # degree 3 in 3 variables
    # all degree-3 monomials in column 1 appear (column margin 2)
    col1 = {
        next(iter(g.terms))
        for g in gens
        if len(g.terms) == 1
        and g.degree() == 3
        and all(next(iter(g.terms))[i] == 0 for i in (1, 2, 4, 5))
    }
    assert len(col1) == math.comb(3 + 1, 1)  # degree 3 in 2 variables


def test_generator_count_formula():
    for alpha, beta in [((2, 1), (1, 1, 1)), ((3,), (1, 2)), ((2, 2, 2), (3, 3))]:
        k, p = len(alpha), len(beta)
        _, gens = contingency_generators(alpha, beta)
        expected = (
            k
            + p
            + sum(math.comb(a + p, p - 1) for a in alpha)
            + sum(math.comb(b + k, k - 1) for b in beta)
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
    lef = lefschetz_element((2, 2, 1), (3, 2))
    expected = (
        g.variable(1, 1) + g.variable(2, 1) + g.variable(2, 2) + g.variable(3, 2)
    )
    assert lef == expected
    g1 = Grid(1, 1)
    assert lefschetz_element((5,), (5,)) == g1.variable(1, 1)


def test_lefschetz_block_incidence_oracle():
    with pytest.raises(ValueError, match="row and column sums must agree"):
        lefschetz_element((2, 1, 0), (1, 1))
    rng = random.Random(79)
    for _ in range(25):
        k, p = rng.randint(1, 4), rng.randint(1, 4)
        alpha = tuple(rng.randint(0, 3) for _ in range(k))
        beta = rng.choice(weak_compositions(sum(alpha), p))
        lef = lefschetz_element(alpha, beta)
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
            if i and j:
                marked.add((i, j))
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


def test_lefschetz_report_is_symmetric_under_transposition():
    # transposition x_ij -> x_ji is a graded isomorphism of the two quotients
    # that fixes the blocks meeting the diagonal, hence the Lefschetz element:
    # every map has the same ranks, so the conjecture scan asks once per pair
    for n in range(1, 7):
        for mu, nu in combinations(partitions(n), 2):
            ahead = lefschetz_report(QuotientModel(mu, nu))
            assert ahead == lefschetz_report(QuotientModel(nu, mu)), (mu, nu)


def test_lefschetz_trivial_quotient():
    model = QuotientModel((3,), (3,))
    report = lefschetz_report(model)
    assert all(entry["injective"] for entry in report)


def test_sweep_record_multiplies_no_polys(monkeypatch):
    # the Lefschetz powers are built on the target slice's packed keys, and
    # nothing else in a sweep record multiplies polynomials
    calls = []
    product = Poly.__mul__

    def counted(self, other):
        calls.append((self, other))
        return product(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    for alpha, beta in [((3, 2), (2, 2, 1)), ((2, 2, 1), (2, 2, 1)), ((2, 0, 2), (1, 3))]:
        assert sweep_record(alpha, beta)["lefschetz"]
    assert calls == []
    assert Poly.variable(2, 0) * Poly.variable(2, 1) == Poly.monomial((1, 1))
    assert len(calls) == 1  # the wrapper counts


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
    # caller reads, such as the ranks of the Lefschetz report, which reduces
    # against the one row of the block slice of degree 2
    model = QuotientModel((1, 1, 1), (1, 1, 1))
    ranks = [entry["rank"] for entry in lefschetz_report(model)]
    assert ranks == [1, 4]
    basis = model.ideal.slice(2)
    assert len(basis.rows) == 1
    with pytest.raises((AttributeError, TypeError)):
        basis.position.clear()
    with pytest.raises(TypeError):
        basis.position[0] = 0
    with pytest.raises((AttributeError, TypeError)):
        basis.rows.popitem()
    with pytest.raises(TypeError):
        del basis.rows[next(iter(basis.rows))]
    # and so is each row: a cleared row would break every later reduction
    for row in basis.rows.values():
        with pytest.raises((AttributeError, TypeError)):
            row.clear()
        with pytest.raises(TypeError):
            row[min(row)] = 0
    assert [entry["rank"] for entry in lefschetz_report(model)] == ranks


def test_row_free_slices_are_read_only():
    # a slice that builds no row, degree 0 or a degree below both powers of
    # the block ideal, shares one empty, read-only row mapping, and its
    # standard monomials are its columns
    model = QuotientModel((2, 2, 2), (2, 2, 2))
    free = [model.ideal.slice(d) for d in range(3)]
    assert [len(basis.columns) for basis in free] == [1, 4, 10]
    for basis in free:
        assert basis.standard == basis.columns and len(basis.rows) == 0
        assert basis.rows is free[0].rows
        with pytest.raises(TypeError):
            basis.rows[0] = {}
        with pytest.raises((AttributeError, TypeError)):
            basis.rows.clear()
    assert model.ideal.slice(3).rows


def test_power_zero_lefschetz_map_is_never_reduced(monkeypatch):
    # L^0 = 1 is the identity of R_k: its rank is dim R_k without a single
    # reduction, so on every pair with n <= 4 and lengths <= 3 the reductions
    # are one per source monomial of the entries of positive power, and none
    # lands on the middle slice of an even top degree
    import ctring.linalg

    reduce = ctring.linalg.DegreeBasis.reduce
    reduced = []

    def counted(basis, vec):
        reduced.append(basis)
        return reduce(basis, vec)

    monkeypatch.setattr(ctring.linalg.DegreeBasis, "reduce", counted)
    even = 0
    for n in range(5):
        for alpha in weak_compositions_upto(n, 3):
            for beta in weak_compositions_upto(n, 3):
                model = QuotientModel(alpha, beta)
                reduced.clear()
                report = lefschetz_report(model)
                assert len(reduced) == sum(r["dim_source"] for r in report if r["power"])
                if model.top_degree % 2 == 0:
                    even += 1
                    middle = model.ideal.slice(model.top_degree // 2)
                    assert all(basis is not middle for basis in reduced)
                    entry = report[-1]
                    assert entry["power"] == 0 and entry["injective"]
                    assert entry["rank"] == entry["dim_target"] == len(middle.standard)
    assert even > 400


def _both_sides(one_sided):
    """A one-sided generator helper takes one margin and the length of the
    other: ask it for both sides of the pair."""
    return lambda a, b: (one_sided(a, len(b)), one_sided(b, len(a)))


def test_negative_margin_is_rejected_on_every_route():
    # a margin with a negative part is no weak composition, and the empty
    # composition is no margin: every route to the tables, their count, their
    # series or the ideal's generators raises, none answers empty or 1 (a
    # negative cap would give the constant monomial, and the unit ideal); a
    # route given both margins also raises on unequal sums, where caps zipped
    # onto the lines would make a quotient of no table
    two_margin = [
        contingency_tables,
        count_contingency_tables,
        derived_matrix_set,
        hilbert_kostka,
        hilbert_series_linear,
        hilbert_series_zigzag,
        QuotientModel,
        contingency_generators,
        margin_ideal,
        lefschetz_element,
        lambda a, b: q_ehrhart(a, b, 2),
        lambda a, b: q_ehrhart(a, b, 2, interior=True),
    ]
    routes = two_margin + [
        _both_sides(rowsum_ideal_generators),
        _both_sides(colsum_ideal_generators),
    ]
    for route in two_margin:
        with pytest.raises(ValueError, match="row and column sums must agree"):
            route((2, 1), (1, 1))
    for alpha, beta in [((-1, 2), (1,)), ((1,), (2, -1))]:
        for route in routes:
            with pytest.raises(ValueError, match="not a weak composition"):
                route(alpha, beta)
    for alpha, beta in [((), ()), ((), (0,)), ((0,), ())]:
        for route in routes:
            with pytest.raises(ValueError, match="compositions must be nonempty"):
                route(alpha, beta)
    # the graded module takes partitions, and () is the only one of 0
    with pytest.raises(ValueError, match="compositions must be nonempty"):
        graded_decomposition((), ())


def test_ideal_sum_observation():
    # generators of the two one-sided ideals together span the same slices as
    # the margin generators, and as the line sums with line caps
    for alpha, beta in [((2, 1), (1, 1, 1)), ((2, 2), (2, 2)), ((3, 1), (2, 1, 1))]:
        grid, gens = contingency_generators(alpha, beta)
        key = diagonal_key(grid)
        _, row_side = rowsum_ideal_generators(beta, len(alpha))
        _, col_side = colsum_ideal_generators(alpha, len(beta))
        caps = margin_ideal(alpha, beta)
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
        [([row_support(grid, i)], 1) for i in range(1, k + 1)],
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


def test_block_model_matches_full_ring_oracle():
    # the model on the block against the margin ideal on the whole grid, its
    # line sums as powers and nothing substituted: the Hilbert series, the
    # standard monomials (lifted with a zero first row and column) and the
    # Lefschetz ranks by normal forms there, on every pair with n <= 5 and
    # lengths <= 3
    pairs = 0
    for n in range(6):
        comps = weak_compositions_upto(n, 3)
        for alpha in comps:
            for beta in comps:
                model = QuotientModel(alpha, beta)
                ideal = margin_ideal(alpha, beta)
                standard = [ideal.standard_monomials(d) for d in range(n + 2)]
                while not standard[-1]:
                    standard.pop()
                assert list(model.hilbert) == list(map(len, standard)), (alpha, beta)
                assert set(model.standard) == {m for std in standard for m in std}
                assert len(model.standard) == model.size
                ranks = [entry["rank"] for entry in lefschetz_report(model)]
                assert ranks == full_lefschetz_ranks(alpha, beta), (alpha, beta)
                pairs += 1
    assert pairs > 1500


def test_nonconvergence_guard():
    # sanity: model construction checks its own dimension bound
    model = QuotientModel((2, 2), (2, 2))
    assert sum(model.hilbert) == model.size


def test_standard_basis_independent_of_diagonal_tiebreak():
    # the standard monomial set is the same for every diagonal order, so the
    # column-ranked order of the oracles must reproduce the library's
    # row-ranked result
    for alpha, beta in [((3, 2), (2, 2, 1)), ((2, 2), (2, 2)), ((2, 1, 1), (1, 2, 1))]:
        a = margin_ideal(alpha, beta)
        b = column_margin_ideal(alpha, beta)
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


def test_one_table_pair_builds_no_lefschetz_form(monkeypatch):
    # a model of top degree 0 has the one map L^0 = 1: with no linear form to
    # be had, every such model with n <= 4 and lengths <= 3 still reports as
    # the per-degree route does, and a model of top degree 1 asks for a form
    import ctring.quotient

    def no_form(alpha, beta):
        raise AssertionError(f"a Lefschetz form was built for {alpha}, {beta}")

    monkeypatch.setattr(ctring.quotient, "lefschetz_element", no_form)
    pairs = 0
    for n in range(5):
        comps = weak_compositions_upto(n, 3)
        for alpha in comps:
            for beta in comps:
                if count_contingency_tables(alpha, beta) == 1:
                    model = QuotientModel(alpha, beta)
                    assert model.top_degree == 0
                    assert lefschetz_report(model) == per_degree_lefschetz_report(model)
                    pairs += 1
    assert pairs > 400
    with pytest.raises(AssertionError, match="form was built"):
        lefschetz_report(QuotientModel((1, 1), (1, 1)))


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
            lambda alpha, beta: linear_form(
                len(alpha) * len(beta), support_of(Grid(len(alpha), len(beta)))
            ),
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

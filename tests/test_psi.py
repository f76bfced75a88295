import hashlib
import random
from collections import Counter
from itertools import product

import pytest

from oracles import (
    classwise_tensor_multiplicities,
    count_fixed_tables,
    h_route_invariants_s,
    h_to_s,
    invariants_frobenius_h,
    ordered_block_partition_count,
    s_to_h_expansion,
    unpruned_multiset_partitions,
)
import ctring.psi
from ctring.errors import CheckFailed
from ctring.experiments import dominance_violations
from ctring.partitions import partitions
from ctring.psi import (
    graded_decomposition,
    invariants_frobenius_s,
    kronecker_dominance,
    kronecker_product,
    pair_group,
    stab_factor_data,
    stab_group,
    stab_permutation,
)
from ctring.series import hilbert_kostka
from ctring.symfunc import SymmetricProductGroup, TensorSymFunc, _module_character
from ctring.tables import contingency_tables


def test_stab_factor_data():
    assert stab_factor_data((2, 1, 1, 1)) == [(1, 3, (2, 3, 4)), (2, 1, (1,))]
    assert stab_factor_data((3, 2)) == [(2, 1, (2,)), (3, 1, (1,))]
    assert stab_factor_data((1, 1, 1)) == [(1, 3, (1, 2, 3))]


def test_stab_factor_data_cannot_be_changed_by_callers():
    # the data is memoised per margin; each call hands out a fresh list
    data = stab_factor_data((2, 1, 1, 1))
    data.append((5, 1, (5,)))
    data[0] = (9, 9, ())
    data.sort()
    assert stab_factor_data((2, 1, 1, 1)) == [(1, 3, (2, 3, 4)), (2, 1, (1,))]
    assert stab_group((2, 1, 1, 1)).sizes == (3, 1)


def test_stab_permutation():
    # a 3-cycle on the three singleton positions of (2,1,1,1)
    w = stab_permutation((2, 1, 1, 1), ((3,), (1,)))
    assert w == (0, 2, 3, 1)
    assert stab_permutation((3, 2), ((1,), (1,))) == (0, 1)
    # one cycle type per factor, no fewer and no more
    assert stab_permutation((2, 2, 1), ((2,), (1,))) == (1, 0, 2)
    for short_or_long in (((2,),), ((2,), (1,), (1,))):
        with pytest.raises(ValueError):
            stab_permutation((2, 2, 1), short_or_long)


def test_multiset_partitions_golden():
    # letters 1^3 2^2 split into block sizes (2,1,1,1)
    got = unpruned_multiset_partitions((3, 2), (2, 1, 1, 1))
    expected = {
        ((2, 0), (1, 0), (0, 1), (0, 1)),
        ((1, 1), (1, 0), (1, 0), (0, 1)),
        ((0, 2), (1, 0), (1, 0), (1, 0)),
    }
    assert set(got) == expected
    assert len(got) == 3


def test_multiset_partitions_no_duplicates():
    rng = random.Random(83)
    for _ in range(20):
        n = rng.randint(1, 6)
        lam = rng.choice(partitions(n))
        mu = rng.choice(partitions(n))
        parts = unpruned_multiset_partitions(lam, mu)
        assert len(parts) == len(set(parts))
        for blocks in parts:
            assert tuple(sum(b) for b in blocks) == mu
            totals = [sum(b[i] for b in blocks) for i in range(len(lam))]
            assert tuple(totals) == lam


def _listed_h_image(mu, lam) -> dict:
    """The h-image by listing: each multiset partition of lam into blocks of
    the sizes of mu adds 1 to the multiplicity types of its equal-size block
    groups, in factor order."""
    coeffs: dict = {}
    for blocks in unpruned_multiset_partitions(lam, mu):
        by_size: dict = {}
        for size, block in zip(mu, blocks):
            by_size.setdefault(size, []).append(block)
        key = tuple(
            tuple(sorted(Counter(by_size[size]).values(), reverse=True))
            for size, _, _ in stab_factor_data(mu)
        )
        coeffs[key] = coeffs.get(key, 0) + 1
    return coeffs


def test_counted_h_image_matches_the_unpruned_enumeration():
    # every content and shape of size n <= 8
    for n in range(1, 9):
        for lam in partitions(n):
            for mu in partitions(n):
                image = invariants_frobenius_h(mu, lam)
                assert image.degrees == tuple(m for _, m, _ in stab_factor_data(mu))
                assert dict(image.coeffs) == _listed_h_image(mu, lam), (mu, lam)


def test_counting_drops_dead_branches(monkeypatch):
    # one partition of 1^n into n singletons: with the reach bound each block
    # is placed after trying at most three listed blocks, without it the 2^n
    # dead branches come back.  A group's blocks are listed once, so the
    # count is of the listed blocks tried, read off the list itself
    import oracles

    tried = []
    enumerate_blocks = oracles.bounded_compositions

    class Tried(list):
        def __getitem__(self, i):
            tried.append(i)
            return super().__getitem__(i)

    def counted(total, bounds):
        return Tried(enumerate_blocks(total, bounds))

    monkeypatch.setattr(oracles, "bounded_compositions", counted)
    for n in (13, 16):
        oracles._h_counts.cache_clear()
        tried.clear()
        image = invariants_frobenius_h((1,) * n, (1,) * n)
        assert dict(image.coeffs) == {((1,) * n,): 1}
        assert n <= len(tried) <= 3 * n, (n, len(tried))


def test_invariants_h_golden():
    t = invariants_frobenius_h((2, 1, 1, 1), (3, 2))
    assert t.degrees == (3, 1)
    assert dict(t.coeffs) == {
        ((2, 1), (1,)): 2,
        ((3,), (1,)): 1,
    }


def test_invariants_h_identity_when_all_parts_distinct():
    # mu = (1^n): a single factor of size n, acting as the identity on h
    t = invariants_frobenius_h((1, 1, 1), (2, 1))
    assert t.degrees == (3,)
    assert dict(t.coeffs) == {((2, 1),): 1}


def test_invariants_h_dimension_matches_ordered_count():
    rng = random.Random(89)
    for _ in range(20):
        n = rng.randint(1, 6)
        lam = rng.choice(partitions(n))
        mu = rng.choice(partitions(n))
        t = invariants_frobenius_h(mu, lam)
        module = TensorSymFunc(t.degrees, "s", h_to_s(t.coeffs))
        assert module.dimension() == ordered_block_partition_count(lam, mu)


def test_invariants_s_goldens():
    # trivial module: single one-row tensor with coefficient 1
    for mu in partitions(4):
        t = invariants_frobenius_s(mu, (4,))
        key = tuple((m,) for _, m, _ in stab_factor_data(mu))
        assert dict(t.coeffs) == {key: 1}
    # identity at mu = (1^n)
    for lam in partitions(4):
        t = invariants_frobenius_s((1, 1, 1, 1), lam)
        assert dict(t.coeffs) == {(lam,): 1}
    # worked case: psi of the irreducible (3,2) under (2,1,1,1)
    t = invariants_frobenius_s((2, 1, 1, 1), (3, 2))
    assert dict(t.coeffs) == {((2, 1), (1,)): 1, ((3,), (1,)): 1}


def test_invariants_s_match_the_inverse_kostka_route():
    # back-substitution along the Kostka column against s_lam expanded on
    # the h basis by the inverse Kostka table
    for n in range(9):
        for mu in partitions(n):
            for lam in partitions(n):
                assert invariants_frobenius_s(mu, lam) == h_route_invariants_s(mu, lam)


def test_invariants_s_nonnegative_small():
    for n in range(1, 7):
        for mu in partitions(n):
            for lam in partitions(n):
                t = invariants_frobenius_s(mu, lam)
                assert all(c >= 0 for c in t.coeffs.values())


def test_coset_values_equal_the_character_of_the_multiplicities():
    # every (mu, lam) with n <= 8: the class values an invariant module
    # carries from the coset pass are the character of its Schur
    # multiplicities, formed factor by factor
    checked = 0
    for n in range(9):
        for mu in partitions(n):
            for lam in partitions(n):
                module = invariants_frobenius_s(mu, lam)
                expected = _module_character(module.degrees, module.coeffs)
                assert list(module.class_values()) == expected, (mu, lam)
                checked += 1
    assert checked == 919


def test_coset_pass_worked_values():
    # (2,1,1,1): Stab is S_3 x S_1, its classes (3), (2,1), (1^3) on the S_3
    # factor.  The trivial irreducible has trivial invariants; for lam =
    # (3,2) the invariants are s_(2,1) + s_(3) on the S_3 factor, so the
    # values are -1 + 1, 0 + 1, 2 + 1
    characters = ctring.psi._coset_characters((2, 1, 1, 1))
    assert characters[(5,)] == (1, 1, 1)
    assert characters[(3, 2)] == (0, 1, 3)
    assert invariants_frobenius_s((2, 1, 1, 1), (3, 2)).class_values() == (0, 1, 3)


def test_a_coset_average_that_is_no_int_is_a_failed_check(monkeypatch):
    # every block cycle's share of the denominator doubled: the average of
    # the trivial character over a coset is then a fraction
    from math import factorial

    monkeypatch.setattr(ctring.psi, "factorial", lambda a: 2 * factorial(a))
    ctring.psi._coset_characters.cache_clear()
    try:
        with pytest.raises(CheckFailed, match="class values must be ints"):
            ctring.psi._coset_characters((2, 1))
    finally:
        monkeypatch.undo()
        ctring.psi._coset_characters.cache_clear()


def test_graded_decompositions_and_dominance_golden():
    # the coefficients and class values of every degree, and the dominance
    # verdict, of every partition pair with n <= 7 (1351 degrees), hashed;
    # the digest was taken from the h-basis route before the coset pass
    digest = hashlib.sha256()
    degrees = 0
    for n in range(1, 8):
        for mu, nu in product(partitions(n), repeat=2):
            for d, module in graded_decomposition(mu, nu).items():
                record = (mu, nu, d, sorted(module.coeffs.items()), module.class_values())
                digest.update(repr(record).encode())
                degrees += 1
            digest.update(repr((mu, nu, dominance_violations(mu, nu))).encode())
    assert degrees == 1351
    assert digest.hexdigest() == (
        "994363881350f06ebc2d5a5ff313828e933ba940665de9ddd6173bea8d074a87"
    )


def test_graded_decomposition_dimensions_golden():
    dec = graded_decomposition((3, 2), (2, 2, 1))
    assert [dec[d].dimension() for d in sorted(dec)] == [1, 2, 2]
    only = graded_decomposition((4,), (4,))
    assert list(only) == [0] and only[0].dimension() == 1


def test_graded_dimensions_match_hilbert():
    for n in range(1, 6):
        for mu in partitions(n):
            for nu in partitions(n):
                dec = graded_decomposition(mu, nu)
                coeffs = hilbert_kostka(mu, nu)
                dims = [dec[d].dimension() if d in dec else 0 for d in range(len(coeffs))]
                assert dims == coeffs


def test_ungraded_character_counts_fixed_tables():
    for n in range(1, 6):
        for mu in partitions(n):
            for nu in partitions(n):
                dec = graded_decomposition(mu, nu)
                tables = contingency_tables(mu, nu)
                for cls_mu, _ in stab_group(mu).classes():
                    w1 = stab_permutation(mu, cls_mu)
                    for cls_nu, _ in stab_group(nu).classes():
                        w2 = stab_permutation(nu, cls_nu)
                        total = sum(t.character(cls_mu + cls_nu) for t in dec.values())
                        assert total == count_fixed_tables(tables, w1, w2)


def test_s_to_h_expansion_cannot_be_changed_by_callers():
    # the oracle's inverse Kostka rows are a memo shared by every test that
    # compares against the h-basis route
    expected = graded_decomposition((2, 1), (2, 1))
    assert sorted(expected) == [0, 1]
    with pytest.raises(AttributeError):
        s_to_h_expansion((2, 1)).clear()
    invariants_frobenius_s.cache_clear()  # recompute from the coset characters
    assert graded_decomposition((2, 1), (2, 1)) == expected
    assert invariants_frobenius_s((2, 1), (2, 1)) == h_route_invariants_s((2, 1), (2, 1))


def test_invariants_cannot_be_changed_by_callers():
    expected = graded_decomposition((2, 1), (2, 1))
    with pytest.raises(AttributeError):
        invariants_frobenius_s((2, 1), (3,)).coeffs.clear()
    with pytest.raises(TypeError):
        invariants_frobenius_h((2, 1), (3,)).coeffs[((1,), (1,))] = 5
    assert graded_decomposition((2, 1), (2, 1)) == expected


def test_kronecker_dominance_trivial_cases():
    group = pair_group((2, 1), (2, 1))
    dec = graded_decomposition((2, 1), (2, 1))
    empty = TensorSymFunc(group.sizes, "s")
    # zero module is always dominated
    assert kronecker_dominance(dec[0], empty, group) == []
    # equality case: comparing A (x) A against itself
    square = kronecker_product(dec[1], dec[1], group)
    assert kronecker_dominance(dec[1], square, group) == []


def test_kronecker_dominance_violation_detected():
    # sign does not appear in sign (x) sign over S_2
    group = pair_group((1, 1), (2,))
    sign = TensorSymFunc(group.sizes, "s", {((1, 1), (1,)): 1})
    assert kronecker_dominance(sign, sign, group) == [((1, 1), (1,))]


def test_permutation_case_consecutive_degrees_dominate():
    mu = (1, 1, 1)
    dec = graded_decomposition(mu, mu)
    group = pair_group(mu, mu)
    empty = TensorSymFunc(group.sizes, "s")
    top = max(dec)
    for k in range(1, top + 1):
        outer = kronecker_product(
            dec.get(k - 1, empty), dec.get(k + 1, empty), group
        )
        assert kronecker_dominance(dec.get(k, empty), outer, group) == []


def test_tensor_multiplicities_match_classwise_oracle_on_dominance_pairs():
    # every tensor product the dominance scan forms for n <= 6: neighbours
    # k - 1 and k + 1, and the square of degree k
    checked = 0
    for n in range(1, 7):
        for mu in partitions(n):
            for nu in partitions(n):
                group = pair_group(mu, nu)
                mults = {
                    d: {k: int(v) for k, v in t.coeffs.items()}
                    for d, t in graded_decomposition(mu, nu).items()
                }
                for k in range(1, max(mults, default=0)):
                    pairs = [(mults.get(k - 1, {}), mults.get(k + 1, {}))]
                    pairs.append((mults.get(k, {}), mults.get(k, {})))
                    for a, b in pairs:
                        if a and b:
                            expected = classwise_tensor_multiplicities(group.sizes, a, b)
                            module_a = TensorSymFunc(group.sizes, "s", a)
                            module_b = TensorSymFunc(group.sizes, "s", b)
                            assert group.tensor_multiplicities(module_a, module_b) == expected
                            checked += 1
    assert checked > 300


def test_kronecker_functions_reject_a_group_of_other_sizes():
    # the class values a degree carries are contracted with the group's
    # factor tables, so a group whose sizes are not the degrees is refused,
    # also when it has the same factors in another order, with one message
    for degrees, sizes in [((1, 1, 1, 1), (1, 1, 2)), ((2, 1), (1, 2))]:
        group = SymmetricProductGroup(sizes)
        module = TensorSymFunc(degrees, "s", {tuple((m,) for m in degrees): 1})
        empty = TensorSymFunc(degrees, "s")
        for a, b in [(module, module), (module, empty), (empty, empty)]:
            with pytest.raises(ValueError, match="do not live over this group"):
                kronecker_product(a, b, group)
            with pytest.raises(ValueError, match="do not live over this group"):
                kronecker_dominance(a, b, group)
        with pytest.raises(ValueError, match="do not live over this group"):
            group.tensor_multiplicities(module, module)


def test_degrees_carry_their_class_values():
    # each degree's values, from the per-(margin, lam) invariant characters,
    # equal the character formed from its multiplicities, class by class
    for n in range(1, 7):
        for mu in partitions(n):
            for nu in partitions(n):
                group = pair_group(mu, nu)
                for d, degree in graded_decomposition(mu, nu).items():
                    expected = _module_character(group.sizes, degree.coeffs)
                    assert list(degree.class_values()) == expected, (mu, nu, d)


@pytest.mark.parametrize("mu, nu", [((1,) * 6, (1,) * 6), ((2, 2, 1, 1), (3, 1, 1, 1))])
def test_dominance_scan_forms_each_invariant_character_once(monkeypatch, mu, nu):
    # a scan runs the coset pass once per margin, never in a Kronecker step,
    # and forms no module character: the steps multiply the values their
    # degrees carry, which the invariant modules brought from the pass
    import ctring.symfunc

    coset_characters = ctring.psi._coset_characters
    module_character = ctring.symfunc._module_character
    passes = []
    characters = []
    steps = []
    in_step = []

    def counted_pass(margin):
        before = coset_characters.cache_info().misses
        out = coset_characters(margin)
        if coset_characters.cache_info().misses > before:
            passes.append((margin, bool(in_step)))
        return out

    def counted_character(sizes, module):
        characters.append(sizes)
        return module_character(sizes, module)

    def step(kronecker):
        def run(*args):
            steps.append(kronecker)
            in_step.append(True)
            try:
                return kronecker(*args)
            finally:
                in_step.pop()

        return run

    monkeypatch.setattr(ctring.psi, "_coset_characters", counted_pass)
    monkeypatch.setattr(ctring.symfunc, "_module_character", counted_character)
    monkeypatch.setattr(ctring.psi, "kronecker_product", step(kronecker_product))
    monkeypatch.setattr(ctring.psi, "kronecker_dominance", step(kronecker_dominance))
    coset_characters.cache_clear()
    ctring.psi.invariants_frobenius_s.cache_clear()
    try:
        dominance_violations(mu, nu)
        assert steps
        assert sorted(passes) == sorted((margin, False) for margin in {mu, nu})
        assert characters == []
        passes.clear()
        dominance_violations(mu, nu)
        assert passes == [] and characters == []
    finally:
        monkeypatch.undo()
        coset_characters.cache_clear()
        ctring.psi.invariants_frobenius_s.cache_clear()


def test_every_psi_and_symfunc_memo_is_hit_by_a_dominance_scan():
    # a memo that no call reads back only holds memory, as a default that no
    # call passes is a knob nothing turns: with the memos emptied, the n <= 6
    # dominance scan hits each lru_cache of psi and symfunc at least once
    import ctring.symfunc
    from ctring.experiments import conjecture_scan

    memos = {
        f"{module.__name__}.{name}": value
        for module in (ctring.psi, ctring.symfunc)
        for name, value in vars(module).items()
        if hasattr(value, "cache_info") and value.__module__ == module.__name__
    }
    assert {
        "ctring.psi._coset_characters",
        "ctring.psi._factor_data",
        "ctring.psi._stab_group",
        "ctring.psi.invariants_frobenius_s",
    } <= set(memos)
    for memo in memos.values():
        memo.cache_clear()
    conjecture_scan(0, 0, 6)
    assert [name for name, memo in memos.items() if not memo.cache_info().hits] == []


def test_dominance_scan_forms_each_margins_factor_data_once():
    # conjecture_scan(0, 0, 6) asks for the factor data 656 times; with the
    # memos empty it forms the data, and the group, once per distinct margin
    import ctring.symfunc
    from ctring.experiments import conjecture_scan

    for module in (ctring.psi, ctring.symfunc):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    conjecture_scan(0, 0, 6)
    margins = sum(len(partitions(n)) for n in range(1, 7))
    assert margins == 29
    assert ctring.psi._factor_data.cache_info().misses == margins
    assert ctring.psi._stab_group.cache_info().misses == margins

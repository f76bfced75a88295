import pytest

from oracles import per_shape_hilbert_kostka
from ctring.partitions import partitions, weak_compositions
from ctring.series import (
    hilbert_kostka,
    log_concavity_violations,
    q_ehrhart,
    uniform_family,
)
from ctring.tables import contingency_tables, zigzag_number


def test_hilbert_kostka_golden():
    assert hilbert_kostka((3, 2), (2, 2, 1)) == [1, 2, 2]


def test_hilbert_kostka_families():
    expected = {
        1: [1, 3481, 5851621, 6329639181],
        2: [1, 841, 354061, 99222341],
        3: [1, 361, 65341, 7906261],
        4: [1, 196, 19306, 1274196],
    }
    for part, coeffs in expected.items():
        alpha = uniform_family(part)
        assert hilbert_kostka(alpha, alpha, max_degree=3) == coeffs


def test_hilbert_kostka_truncation_consistency():
    # the truncated series is the zero-padded prefix of the full series
    for n in range(11):
        parts = partitions(n)
        for alpha in parts:
            for beta in parts:
                full = hilbert_kostka(alpha, beta)
                for cap in range(5):
                    padded = (full + [0] * cap)[: min(cap, n) + 1]
                    assert hilbert_kostka(alpha, beta, max_degree=cap) == padded


def test_negative_max_degree_is_rejected():
    with pytest.raises(ValueError):
        hilbert_kostka((2, 1), (3,), max_degree=-1)


def test_hilbert_kostka_matches_per_shape_loop_on_partition_pairs():
    for n in range(11):
        parts = partitions(n)
        for alpha in parts:
            for beta in parts:
                assert hilbert_kostka(alpha, beta) == per_shape_hilbert_kostka(alpha, beta)


def test_hilbert_kostka_matches_per_shape_loop_on_weak_compositions():
    # zeros and unsorted parts, n <= 8 and lengths <= 4: each composition
    # against every partition of n and against its own reversal
    for n in range(9):
        for alpha in (c for length in range(1, 5) for c in weak_compositions(n, length)):
            for beta in partitions(n) + [alpha[::-1]]:
                assert hilbert_kostka(alpha, beta) == per_shape_hilbert_kostka(alpha, beta)


def test_uniform_family():
    assert uniform_family(2) == (2,) * 30
    for part in (7, 0, -1, -60):
        with pytest.raises(ValueError):
            uniform_family(part)


def test_log_concavity_examples():
    assert log_concavity_violations([1, 2, 2]) == []
    assert log_concavity_violations([1, 1, 1]) == []
    assert log_concavity_violations([1, 1, 2]) == [1]
    assert log_concavity_violations([5]) == []


def test_q_ehrhart_basic():
    series = q_ehrhart((3, 2), (2, 2, 1), 2)
    assert series[0] == [1]
    assert series[1] == [1, 2, 2]
    assert sum(series[2]) == len(contingency_tables((6, 4), (4, 4, 2)))


def test_q_ehrhart_matches_lattice_point_counts():
    cases = [((2, 2), (2, 2)), ((3, 1), (2, 2)), ((1, 1, 1), (2, 1)), ((4,), (2, 2))]
    for alpha, beta in cases:
        series = q_ehrhart(alpha, beta, 3)
        for m in range(4):
            scaled_a = tuple(m * a for a in alpha)
            scaled_b = tuple(m * b for b in beta)
            assert sum(series[m]) == len(contingency_tables(scaled_a, scaled_b))


def test_q_ehrhart_interior():
    series = q_ehrhart((3, 2), (2, 2, 1), 1, interior=True)
    # 1*alpha - 3 has negative entries: empty interior
    assert series == [[0], [0]]
    inner = q_ehrhart((2, 2), (2, 2), 2, interior=True)
    assert inner[0] == [0]
    # m=2: margins (4,4),(4,4) shift to (2,2),(2,2)
    assert sum(inner[2]) == len(contingency_tables((2, 2), (2, 2)))


def test_zigzag_translation_identity():
    # adding the all-ones matrix raises the zigzag number by k + p - 1
    cases = [((2, 2), (2, 2)), ((3, 1), (2, 2)), ((2, 1, 1), (2, 2))]
    for alpha, beta in cases:
        k, p = len(alpha), len(beta)
        for table in contingency_tables(alpha, beta):
            shifted = tuple(
                tuple(v + 1 for v in row) for row in table
            )
            assert zigzag_number(shifted) == zigzag_number(table) + k + p - 1

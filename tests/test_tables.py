import json
import random

import pytest

from oracles import brute_zigzag, random_matrix, row_by_row_contingency_tables
from ctring.partitions import weak_compositions, weak_compositions_upto
from ctring.tables import (
    _count_tables,
    col_sums,
    contingency_tables,
    count_contingency_tables,
    is_subtingency,
    is_zigzag_cells,
    is_zigzag_matrix,
    matrix_from_json,
    matrix_from_text,
    matrix_to_json,
    quadrant_maxima,
    row_sums,
    zigzag_number,
    zigzag_weight,
)

GOLDEN_MATRIX = ((1, 2, 0, 1), (0, 0, 2, 1), (3, 0, 1, 1))


def test_zigzag_golden():
    assert zigzag_number(GOLDEN_MATRIX) == 7


def test_zigzag_zero():
    assert zigzag_number(((0, 0), (0, 0))) == 0


def test_zigzag_witnesses_from_display():
    first = ((1, 1), (1, 2), (2, 3), (3, 3), (3, 4))
    second = ((1, 1), (1, 2), (2, 3), (2, 4), (3, 4))
    for cells in (first, second):
        assert is_zigzag_cells(cells)
        assert zigzag_weight(GOLDEN_MATRIX, cells) == 7


def test_zigzag_against_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 3)
        assert zigzag_number(m) == brute_zigzag(m)


def test_quadrant_maxima_entries_are_zigzag_numbers():
    # entry (i, j) is the zigzag number of the northwest i x j submatrix;
    # row 0 and column 0 are the empty quadrants
    rng = random.Random(19)
    matrices = [GOLDEN_MATRIX] + [
        random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 3) for _ in range(200)
    ]
    for m in matrices:
        table = quadrant_maxima(m)
        k, p = len(m), len(m[0])
        assert len(table) == k + 1 and all(len(row) == p + 1 for row in table)
        assert set(table[0]) == {0} and {row[0] for row in table} == {0}
        for i in range(1, k + 1):
            for j in range(1, p + 1):
                assert table[i][j] == brute_zigzag(tuple(row[:j] for row in m[:i])), m
        assert table[k][p] == zigzag_number(m)


def test_zigzag_transpose_invariant():
    rng = random.Random(13)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 3)
        assert zigzag_number(m) == zigzag_number(tuple(zip(*m)))


def test_zigzag_matrix_predicate():
    assert is_zigzag_matrix(((0, 0, 0, 0), (1, 2, 1, 0), (0, 0, 2, 1), (0, 0, 0, 1)))
    assert is_zigzag_matrix(((1, 0), (1, 0)))  # vertical chains count
    assert not is_zigzag_matrix(((0, 1), (1, 0)))
    assert is_zigzag_matrix(((0, 0), (0, 0)))


def test_contingency_golden_set():
    tables = contingency_tables((3, 2), (2, 2, 1))
    expected = {
        ((2, 1, 0), (0, 1, 1)),
        ((2, 0, 1), (0, 2, 0)),
        ((1, 2, 0), (1, 0, 1)),
        ((0, 2, 1), (2, 0, 0)),
        ((1, 1, 1), (1, 1, 0)),
    }
    assert set(tables) == expected
    assert len(tables) == len(expected)


def test_contingency_tables_are_a_memoized_tuple():
    # any sequence of margins is accepted, and a repeated request returns
    # the same tuple without enumerating again
    tables = contingency_tables([3, 2], [2, 2, 1])
    assert type(tables) is tuple
    assert contingency_tables((3, 2), (2, 2, 1)) is tables


def test_contingency_permutation_case():
    assert set(contingency_tables((1, 1), (1, 1))) == {
        ((1, 0), (0, 1)),
        ((0, 1), (1, 0)),
    }


def test_contingency_margins_and_uniqueness():
    for alpha in weak_compositions(4, 3):
        for beta in weak_compositions(4, 2):
            tables = contingency_tables(alpha, beta)
            assert len(set(tables)) == len(tables)
            for t in tables:
                assert row_sums(t) == alpha
                assert col_sums(t) == beta


def test_contingency_tables_are_lexicographically_descending():
    # the order is part of the result: callers sample tables by position
    for n in range(6):
        for alpha in weak_compositions_upto(n, 3):
            for beta in weak_compositions_upto(n, 3):
                tables = contingency_tables(alpha, beta)
                assert tables == tuple(sorted(tables, reverse=True))


def test_contingency_mismatched_sums():
    with pytest.raises(ValueError):
        contingency_tables((2, 1), (1, 1))


def test_count_rejects_negative_margins():
    # the sums agree, so only the composition check can catch it
    with pytest.raises(ValueError):
        count_contingency_tables((-1, 2), (1,))
    with pytest.raises(ValueError):
        count_contingency_tables((1,), (-1, 2))


def test_contingency_count_identity_golden():
    alpha, beta = (4, 3, 5), (4, 2, 3, 3)
    assert len(contingency_tables(alpha, beta)) == count_contingency_tables(alpha, beta)


def test_contingency_count_identity_sweep():
    # the count is memoized on the nonzero parts of each margin, sorted: on
    # every weak pair with n <= 6 and lengths <= 3, a set that holds every
    # rearrangement of its pairs' parts, and on each with a zero line put in,
    # the count is the number of tables, whichever pair filled its entry;
    # then a seeded sample at a larger bound
    _count_tables.cache_clear()
    for n in range(7):
        comps = weak_compositions_upto(n, 3)
        for alpha in comps:
            for beta in comps:
                for a, b in ((alpha, beta), ((0,) + alpha, beta), (alpha, beta + (0,))):
                    count = count_contingency_tables(a, b)
                    assert count == len(contingency_tables(a, b)), (a, b)
                    assert count == len(row_by_row_contingency_tables(a, b)), (a, b)
    rng = random.Random(17)
    comps = weak_compositions_upto(8, 4)
    for _ in range(40):
        alpha = rng.choice(comps)
        beta = rng.choice(comps)
        assert len(contingency_tables(alpha, beta)) == count_contingency_tables(
            alpha, beta
        )


def test_rearranged_pair_is_served_from_the_count_memo():
    _count_tables.cache_clear()
    assert count_contingency_tables((2, 1, 0), (1, 2)) == 2
    misses = _count_tables.cache_info().misses
    for alpha, beta in [((1, 0, 2), (2, 1)), ((1, 2), (0, 1, 2, 0)), ((2, 1), (2, 1))]:
        hits = _count_tables.cache_info().hits
        assert count_contingency_tables(alpha, beta) == 2
        assert _count_tables.cache_info().hits == hits + 1
    assert _count_tables.cache_info().misses == misses


def test_bad_margins_raise_past_a_cached_key():
    count_contingency_tables((2, 1), (3,))
    for alpha, beta in [((1, 2), (4, -1)), ((2, 1), (1, 1))]:
        with pytest.raises(ValueError):
            count_contingency_tables(alpha, beta)


def test_subtingency():
    assert is_subtingency(((1, 0), (0, 1)), (2, 1), (1, 1))
    assert not is_subtingency(((2, 0), (0, 1)), (1, 1), (2, 1))


def test_matrix_text_roundtrip():
    assert matrix_from_text("1 2 0 1\n0 0 2 1\n3 0 1 1") == GOLDEN_MATRIX
    # blank lines and surrounding whitespace are ignored
    assert matrix_from_text("\n 1 2 0 1\n\n0 0 2 1 \n3 0 1 1\n") == GOLDEN_MATRIX


def test_matrix_json_roundtrip():
    blob = matrix_to_json(GOLDEN_MATRIX)
    assert blob == {
        "rows": 3,
        "cols": 4,
        "entries": [[1, 2, 0, 1], [0, 0, 2, 1], [3, 0, 1, 1]],
    }
    assert matrix_from_json(json.dumps(blob)) == GOLDEN_MATRIX
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 4, "entries": blob["entries"]})


def test_last_row_is_the_column_sums_left():
    # the last row of a table is the column sums the rows above leave, so
    # it is not listed: the tables, in order, of every row listed as a
    # composition, on every margin pair with n <= 6 and lengths <= 3
    pairs = 0
    for n in range(7):
        comps = weak_compositions_upto(n, 3)
        for alpha in comps:
            for beta in comps:
                assert contingency_tables(alpha, beta) == row_by_row_contingency_tables(
                    alpha, beta
                ), (alpha, beta)
                pairs += 1
    assert pairs > 2800

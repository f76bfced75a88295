import itertools
import random
import tracemalloc

import pytest

from oracles import (
    chain_witness,
    diagram_ball_step,
    insertion_rsk,
    random_matrix,
    reference_labels,
)
from ctring.matrixball import (
    RskPair,
    derived_matrix,
    in_matrix_ball_image,
    matrix_ball_step,
    rsk,
    zigzag_witness,
)
from ctring.partitions import (
    is_semistandard,
    kostka,
    partitions,
    tableau_content,
    tableau_shape,
    weak_compositions_upto,
)
from ctring.tables import (
    col_sums,
    contingency_tables,
    is_zigzag_cells,
    row_sums,
    total,
    zigzag_number,
    zigzag_weight,
)

GOLDEN_MATRIX = ((1, 2, 0, 1), (0, 0, 2, 1), (3, 0, 1, 1))
GOLDEN_SECOND = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 2, 1, 1))
GOLDEN_THIRD = ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1))


def _cell_labels(labels, cell):
    return sorted(label for label, cells in labels.items() if cell in cells)


def test_label_golden_cells():
    labels = reference_labels(GOLDEN_MATRIX)
    assert _cell_labels(labels, (3, 1)) == [2, 3, 4]
    assert _cell_labels(labels, (3, 4)) == [7]
    assert _cell_labels(labels, (1, 2)) == [2, 3]
    assert _cell_labels(labels, (2, 3)) == [4, 5]
    assert _cell_labels(labels, (2, 4)) == [6]
    assert max(labels) == 7


def test_label_single_cell():
    assert _cell_labels(reference_labels(((4,),)), (1, 1)) == [1, 2, 3, 4]


def test_label_antichain_invariant():
    rng = random.Random(3)
    for _ in range(50):
        m = random_matrix(rng, 4, 4, 3)
        labels = reference_labels(m)
        for cells in labels.values():
            rows = [c[0] for c in cells]
            cols = [c[1] for c in cells]
            assert rows == sorted(rows) and len(set(rows)) == len(rows)
            assert cols == sorted(cols, reverse=True) and len(set(cols)) == len(cols)
        # ball count equals entries
        counted = sum(len(cells) for cells in labels.values())
        assert counted == total(m)


def test_step_golden():
    nxt, northern, western = matrix_ball_step(GOLDEN_MATRIX)
    assert nxt == GOLDEN_SECOND
    assert northern == (4, 2, 1)
    assert western == (4, 0, 2, 1)
    nxt2, _, _ = matrix_ball_step(GOLDEN_SECOND)
    assert nxt2 == GOLDEN_THIRD


def test_step_zero():
    zero = ((0, 0), (0, 0))
    nxt, northern, western = matrix_ball_step(zero)
    assert nxt == zero
    assert northern == (0, 0)
    assert western == (0, 0)


def test_step_matches_ball_diagram_oracle():
    # the min rule on the zigzag DP (derived entries, and northern and
    # western counts as differences of its last column and last row)
    # against the step read off the reference labeling, all three outputs,
    # and the DP witness against the ball-chain walk, on every table of the
    # weak pairs with n <= 5 and lengths <= 3, and on random matrices with
    # zero rows and zero columns
    matrices = [
        table
        for n in range(6)
        for alpha, beta in itertools.product(weak_compositions_upto(n, 3), repeat=2)
        for table in contingency_tables(alpha, beta)
    ]
    assert len(matrices) > 3000
    rng = random.Random(47)
    hollow = 0
    for _ in range(400):
        k, p = rng.randint(1, 5), rng.randint(1, 5)
        m = [list(row) for row in random_matrix(rng, k, p, 3)]
        for i in rng.sample(range(k), rng.randint(0, k - 1)):
            m[i] = [0] * p
        for j in rng.sample(range(p), rng.randint(0, p - 1)):
            for row in m:
                row[j] = 0
        m = tuple(map(tuple, m))
        hollow += not all(map(any, m)) and not all(map(any, zip(*m)))
        matrices.append(m)
    assert hollow > 50
    for m in matrices:
        assert matrix_ball_step(m) == diagram_ball_step(m), m
        if total(m):
            assert zigzag_witness(m) == chain_witness(m), m


def test_empty_matrices_keep_their_results():
    assert zigzag_number(()) == 0
    assert matrix_ball_step(()) == ((), (), ())
    assert rsk(()) == RskPair((), ())
    assert matrix_ball_step(((), ())) == (((), ()), (0, 0), ())


def test_step_memory_does_not_grow_with_entries():
    tracemalloc.start()
    try:
        result = matrix_ball_step(((10**5, 1), (1, 10**5)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (((0, 0), (0, 1)), (100001, 100000), (100001, 100000))
    assert peak < 64 * 1024


def test_step_margins_strictly_decrease():
    rng = random.Random(5)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 3)
        if total(m) == 0:
            continue
        nxt, _, _ = matrix_ball_step(m)
        assert all(a <= b for a, b in zip(row_sums(nxt), row_sums(m)))
        assert all(a <= b for a, b in zip(col_sums(nxt), col_sums(m)))
        assert row_sums(nxt) != row_sums(m)
        assert col_sums(nxt) != col_sums(m)


def test_rsk_golden():
    pair = rsk(GOLDEN_MATRIX)
    assert pair.P == ((1, 1, 1, 1, 2, 2, 3), (2, 3, 3, 3), (3,))
    assert pair.Q == ((1, 1, 1, 1, 3, 3, 4), (2, 2, 3, 4), (4,))


def test_rsk_single_cell():
    pair = rsk(((3,),))
    assert pair.P == ((1, 1, 1),)
    assert pair.Q == ((1, 1, 1),)


def test_rsk_bijection_small():
    # injective into same-shape pairs with the right contents, and surjective
    # by the Kostka count, for a spread of margins
    cases = [((2, 2), (2, 2)), ((3, 2, 2), (3, 3, 1)), ((1, 1, 1, 1), (2, 2)),
             ((4, 3), (2, 2, 2, 1)), ((2, 2, 2), (3, 3))]
    for alpha, beta in cases:
        n = sum(alpha)
        seen = set()
        for table in contingency_tables(alpha, beta):
            pair = rsk(table)
            assert is_semistandard(pair.P)
            assert is_semistandard(pair.Q)
            assert tableau_shape(pair.P) == tableau_shape(pair.Q)
            assert tableau_content(pair.P, len(alpha)) == alpha
            assert tableau_content(pair.Q, len(beta)) == beta
            assert pair not in seen
            seen.add(pair)
        expected = sum(kostka(l, alpha) * kostka(l, beta) for l in partitions(n))
        assert len(seen) == expected


def test_rsk_matches_insertion_oracle():
    rng = random.Random(23)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 2)
        if total(m) == 0:
            continue
        insert_tab, record_tab = insertion_rsk(m)
        pair = rsk(m)
        assert pair.P == record_tab
        assert pair.Q == insert_tab


def test_shape_first_row_is_zigzag_number():
    rng = random.Random(29)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 4), 2)
        if total(m) == 0:
            continue
        assert tableau_shape(rsk(m).P)[0] == zigzag_number(m)


def test_derived_matrix_goldens():
    assert derived_matrix(((2, 1, 0), (0, 1, 1))) == ((0, 0, 0), (0, 0, 0))
    assert derived_matrix(((0, 2, 1), (2, 0, 0))) == ((0, 0, 0), (0, 2, 0))
    assert derived_matrix(((1, 1, 1), (1, 1, 0))) == ((0, 0, 0), (0, 1, 1))


def test_derived_matrix_degree_and_subtingency():
    rng = random.Random(31)
    from ctring.tables import is_subtingency

    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 3)
        b = derived_matrix(m)
        assert total(b) == total(m) - zigzag_number(m)
        assert is_subtingency(b, row_sums(m), col_sums(m))


def test_witness_golden():
    cells = zigzag_witness(GOLDEN_MATRIX)
    assert cells == ((1, 1), (1, 2), (2, 3), (2, 4), (3, 4))
    assert zigzag_weight(GOLDEN_MATRIX, cells) == 7


def test_witness_single_cell():
    assert zigzag_witness(((5,),)) == ((1, 1),)


def test_witness_zero_matrix_raises():
    with pytest.raises(ValueError):
        zigzag_witness(((0, 0), (0, 0)))


def test_witness_memory_does_not_grow_with_entries():
    tracemalloc.start()
    try:
        cells = zigzag_witness(((10**5, 1), (1, 10**5)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cells == ((1, 1), (1, 2), (2, 2))
    assert peak < 64 * 1024


def test_witness_random():
    rng = random.Random(37)
    for _ in range(80):
        m = random_matrix(rng, 3, 4, 3)
        if total(m) == 0:
            continue
        cells = zigzag_witness(m)
        assert is_zigzag_cells(cells)
        assert zigzag_weight(m, cells) == zigzag_number(m)


def test_image_predicate_golden_false():
    # row margin repaired to (2,3,3): the displayed (2,3,2) does not even bound
    # row_sums(sub) = (0,1,3); the rejection is driven by the column side,
    # whose running western count hits 3 > 2 at column 4
    beta = (2, 2, 0, 3)
    sub = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 2, 0, 1))
    assert in_matrix_ball_image(sub, (2, 3, 3), beta) is False
    with pytest.raises(ValueError):
        in_matrix_ball_image(sub, (2, 3, 2), beta)


def test_image_predicate_requires_subtingency():
    with pytest.raises(ValueError):
        in_matrix_ball_image(((2, 0), (0, 0)), (1, 1), (1, 1))


def test_image_predicate_trivial():
    assert in_matrix_ball_image(((0,),), (3,), (3,)) is True


def test_rsk_transpose_swaps_pair():
    rng = random.Random(43)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 2)
        pair = rsk(m)
        flipped = rsk(tuple(zip(*m)))
        assert flipped.P == pair.Q
        assert flipped.Q == pair.P


def test_image_predicate_against_enumeration():
    # the predicate agrees with actual membership in the derived-matrix image
    for alpha, beta in [((2, 2), (2, 2)), ((3, 1), (1, 1, 2)), ((2, 2, 1), (3, 2)),
                        ((1, 1, 1), (1, 1, 1)), ((4, 2), (2, 2, 2)),
                        ((2, 0, 2), (1, 2, 1))]:
        image = {derived_matrix(t) for t in contingency_tables(alpha, beta)}
        k, p = len(alpha), len(beta)
        # enumerate all subtingency tables by bounding entries by margins
        ranges = [range(min(alpha[i], beta[j]) + 1) for i in range(k) for j in range(p)]
        for flat in itertools.product(*ranges):
            sub = tuple(tuple(flat[i * p : (i + 1) * p]) for i in range(k))
            if not all(r <= a for r, a in zip(row_sums(sub), alpha)):
                continue
            if not all(c <= b for c, b in zip(col_sums(sub), beta)):
                continue
            assert in_matrix_ball_image(sub, alpha, beta) == (sub in image)

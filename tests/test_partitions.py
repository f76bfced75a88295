import ast
import hashlib
import importlib
import random
from pathlib import Path

import pytest

from oracles import strip_kostka
from ctring.partitions import (
    bounded_partitions,
    is_semistandard,
    kostka,
    kostka_column,
    partitions,
    semistandard_tableaux,
    tableau_content,
    tableau_shape,
    weak_compositions,
)


def test_empty_partition():
    assert partitions(0) == [()]


def test_partition_counts_and_order():
    got = partitions(4)
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    # p(n) for n = 0..10
    counts = [len(partitions(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partitions_max_part():
    got = [p for p in partitions(7) if p[0] <= 2]
    assert got == [(2, 2, 2, 1), (2, 2, 1, 1, 1), (2, 1, 1, 1, 1, 1), (1,) * 7]


def test_partitions_all_distinct_and_sorted():
    for n in range(9):
        ps = partitions(n)
        assert len(set(ps)) == len(ps)
        assert all(sum(p) == n for p in ps)
        assert ps == sorted(ps, reverse=True)


def test_weak_compositions():
    assert weak_compositions(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(weak_compositions(4, 3)) == 15
    assert weak_compositions(0, 2) == [(0, 0)]


# a standard tableau count f^lam is the Kostka number K(lam, 1^n)


def test_standard_count_single_row():
    assert kostka((5,), (1,) * 5) == 1
    assert kostka((), ()) == 1


def test_standard_count_hook_golden():
    assert kostka((59, 1), (1,) * 60) == 59
    assert kostka((2, 1), (1,) * 3) == 2
    assert kostka((2, 2), (1,) * 4) == 2


def test_standard_count_matches_kostka_dp():
    # the strip DP against the Pieri column behind kostka()
    for n in range(1, 11):
        for lam in partitions(n):
            assert strip_kostka(lam, (1,) * n) == kostka(lam, (1,) * n)


def test_kostka_golden():
    assert kostka((3, 2), (2, 2, 1)) == 2
    assert kostka((59, 1), (2,) * 30) == 29
    for lam in partitions(6):
        assert kostka(lam, lam) == 1


def test_kostka_size_mismatch():
    with pytest.raises(ValueError):
        kostka((2, 1), (1, 1))


def test_kostka_rejects_negative_content():
    # the sizes agree, so only the content check can catch it
    with pytest.raises(ValueError):
        kostka((1,), (-1, 2))


def test_kostka_content_symmetry():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 6)
        lam = rng.choice(partitions(n))
        alpha = rng.choice(weak_compositions(n, rng.randint(1, 4)))
        shuffled = list(alpha)
        rng.shuffle(shuffled)
        assert kostka(lam, alpha) == kostka(lam, tuple(shuffled))
        assert kostka(lam, alpha) == len(semistandard_tableaux(lam, alpha))


def test_ssyt_golden_lists():
    assert semistandard_tableaux((3, 2), (2, 2, 1)) == [
        ((1, 1, 2), (2, 3)),
        ((1, 1, 3), (2, 2)),
    ]
    assert semistandard_tableaux((2, 2, 1), (2, 2, 1)) == [((1, 1), (2, 2), (3,))]
    assert semistandard_tableaux((5,), (2, 2, 1)) == [((1, 1, 2, 2, 3),)]


def test_ssyt_are_valid():
    for lam in partitions(5):
        for alpha in weak_compositions(5, 3):
            for t in semistandard_tableaux(lam, alpha):
                assert is_semistandard(t)
                assert tableau_shape(t) == lam
                assert tableau_content(t, 3) == alpha


def test_package_does_not_shadow_module():
    import ctring.partitions as m

    assert m.kostka


def _weak_compositions_small():
    """Every weak composition with n <= 8 and length <= 4, zeros and
    unsorted parts included."""
    return [
        alpha
        for n in range(9)
        for length in range(5)
        for alpha in weak_compositions(n, length)
    ]


def test_kostka_column_matches_strip_dp_and_tableaux():
    # every depth, truncated and full: the column holds exactly the shapes
    # lam with n - lam_1 <= depth and a nonzero count, with the right count
    for alpha in _weak_compositions_small():
        n = sum(alpha)
        expected = {lam: len(semistandard_tableaux(lam, alpha)) for lam in partitions(n)}
        for lam, count in expected.items():
            assert strip_kostka(lam, alpha) == count
            assert kostka(lam, alpha) == count
        for depth in [*range(n + 1), None]:
            column = kostka_column(alpha, depth)
            assert list(column) == [lam for lam in partitions(n) if lam in column]
            for lam, count in expected.items():
                shown = depth is None or n - (lam[0] if lam else 0) <= depth
                assert column.get(lam, 0) == (count if shown else 0)
                assert (lam in column) == (shown and count > 0)


def test_kostka_column_is_read_only_and_rejects_negative_parts():
    column = kostka_column((2, 1))
    with pytest.raises(TypeError):
        column[(3,)] = 5
    assert kostka_column((2, 1)) == {(3,): 1, (2, 1): 1}
    with pytest.raises(ValueError):
        kostka_column((2, -1))
    with pytest.raises(ValueError):
        kostka_column((2, 1), -1)


def test_partitions_list_is_a_fresh_copy():
    first = partitions(5)
    first.append((9,))
    first[0] = (1,)
    partitions(3).clear()
    assert partitions(5) == [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1,) * 5]
    assert partitions(3) == [(3,), (2, 1), (1, 1, 1)]
    assert partitions(0) == [()]
    assert partitions(4) is not partitions(4)


def test_bounded_partitions_filter_partitions():
    for n in range(12):
        every = partitions(n)
        for largest in range(n + 2):
            for most in range(n + 2):
                expected = [lam for lam in every if len(lam) <= most and lam[:1] <= (largest,)]
                assert list(bounded_partitions(n, largest, most)) == expected, (n, largest, most)


def _decorated_memos() -> list:
    """(module, function name) of every function in src/ctring decorated
    with lru_cache or cache, however the decorator is imported or called."""
    source = Path(__file__).resolve().parent.parent / "src" / "ctring"
    memos = []
    for path in sorted(source.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call):
                    decorator = decorator.func
                name = getattr(decorator, "attr", getattr(decorator, "id", None))
                if name in ("lru_cache", "cache"):
                    memos.append((f"ctring.{path.stem}", node.name))
    return memos


def test_new_memos_are_lru_caches():
    # a fresh CLI process and a per-pass cache clear both start cold only if
    # every memo is a module-level lru_cache that cache_clear empties, or a
    # module-level dict named as a cache (the Kostka columns, which
    # kostka_cache_snapshot reads); the memos are found by scanning the
    # source, and each must be filled by the calls below and emptied by
    # cache_clear
    from ctring import cli, experiments, onerow, psi, series
    from ctring import partitions as part_module

    memos = {
        (module, name): vars(importlib.import_module(module))[name]  # module-level
        for module, name in _decorated_memos()
    }
    for memo in [
        ("ctring.linalg", "_layout"),
        ("ctring.partitions", "_horizontal_strip_successors"),
        ("ctring.psi", "_coset_characters"),
        ("ctring.psi", "_factor_data"),
        ("ctring.psi", "_stab_group"),
        ("ctring.psi", "invariants_frobenius_s"),
        ("ctring.quotient", "_lifts"),
        ("ctring.quotient", "_line_verdict"),
        ("ctring.symfunc", "_factor_table"),
        ("ctring.symfunc", "_product_classes"),
        ("ctring.tables", "_count_tables"),
    ]:
        assert memo in memos, memo
    for memo in memos.values():  # what other tests filled does not count
        memo.cache_clear()
    part_module._KOSTKA_CACHE.clear()  # a warm column would read no strip
    cli.build_parser()
    experiments.sweep_record((2, 1), (1, 2))
    experiments.sweep_record((1, 1, 1), (1, 1, 1))  # a power of two-cell lines
    series.hilbert_kostka((3, 1), (2, 2))
    onerow.dimension_counts((1, 2, 1))
    psi.kronecker_dominance(
        *[psi.graded_decomposition((2, 1), (2, 1))[1]] * 2, psi.pair_group((2, 1), (2, 1))
    )
    # the group of (1, 1)/(1, 1) is S_2 x S_2: its factors are contracted,
    # where the factors of size 1 above are skipped
    psi.kronecker_dominance(
        *[psi.graded_decomposition((1, 1), (1, 1))[1]] * 2, psi.pair_group((1, 1), (1, 1))
    )
    for name, memo in memos.items():
        assert memo.cache_info().currsize > 0, name
        memo.cache_clear()
        assert memo.cache_info().currsize == 0, name
    assert part_module.kostka_cache_snapshot()
    part_module._KOSTKA_CACHE.clear()
    assert part_module.kostka_cache_snapshot() == []


def test_snapshot_lists_each_kostka_number_once():
    from ctring import partitions as part_module

    part_module._KOSTKA_CACHE.clear()
    kostka((3, 1), (2, 1, 1))  # the depth-1 column
    kostka((2, 2), (2, 1, 1))  # the full column, which repeats it
    snapshot = part_module.kostka_cache_snapshot()
    assert len(snapshot) == len(set(snapshot))
    assert sorted(t for t in snapshot if t[1] == (2, 1, 1)) == sorted(
        (lam, (2, 1, 1), value) for lam, value in kostka_column((2, 1, 1)).items()
    )


def test_kostka_columns_golden():
    # sha256 over every Kostka column of every content partition with
    # n <= 12, full and truncated at depths 0-3, built cold; recorded before
    # the strips were memoised.  A strip memo that ignored the room would
    # hand a truncated column the successors of a deeper one
    from ctring import partitions as part_module

    part_module._KOSTKA_CACHE.clear()
    part_module._horizontal_strip_successors.cache_clear()
    digest = hashlib.sha256()
    for n in range(13):
        for content in partitions(n):
            for depth in (None, 0, 1, 2, 3):
                column = kostka_column(content, depth)
                digest.update(repr((content, depth, list(column.items()))).encode())
    assert digest.hexdigest() == (
        "27b3306c508bde7778b48e4dd35ee022a2c7f0be7683563b20d7e6344d1b3722"
    )


def test_kostka_columns_run_each_strip_once():
    # the full columns of every partition with n <= 10 ask for 1,016 strips,
    # 159 of them distinct in (shape, size, room): the strip recursion runs
    # once for each of those, and the other asks are memo hits
    from ctring import partitions as part_module

    strips = part_module._horizontal_strip_successors
    part_module._KOSTKA_CACHE.clear()
    strips.cache_clear()
    for n in range(11):
        for content in partitions(n):
            kostka_column(content)
    info = strips.cache_info()
    assert (info.misses, info.hits + info.misses) == (159, 1016)

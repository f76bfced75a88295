"""Partitions, weak and bounded compositions, tableaux, and Kostka numbers.

Conventions used throughout the package:

* a partition is a tuple of weakly decreasing positive ints,
* a weak composition is a tuple of nonnegative ints,
* a tableau is a tuple of rows, each row a tuple of positive ints.

All enumeration functions return deterministic orders so that results can be
frozen in golden tests.

Data that depends on one partition is formed once per process: the bounded
partitions, the Pieri columns (_KOSTKA_CACHE) and the horizontal strips they
are built from (an lru_cache on shape, strip size and room).
"""

from functools import lru_cache
from types import MappingProxyType


def is_partition(seq) -> bool:
    parts = tuple(seq)
    return all(a >= b for a, b in zip(parts, parts[1:])) and all(a > 0 for a in parts)


def check_partition(seq) -> tuple:
    parts = tuple(seq)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts}")
    return parts


def partitions(n: int) -> list:
    """All partitions of n, in reverse-lexicographic (descending) order.

    Returns a fresh list; the enumeration itself is cached.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(bounded_partitions(n, n, n))


@lru_cache(maxsize=None)
def bounded_partitions(n, largest, parts) -> tuple:
    """The partitions of n with no part above `largest` and at most `parts`
    parts, in reverse-lexicographic order, as a shared tuple.  The first
    part is at least n / parts, so every branch of the recursion yields."""
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(largest, (n - 1) // parts if parts else largest, -1)
        for rest in bounded_partitions(n - first, min(first, n - first), min(parts - 1, n - first))
    )


def bounded_compositions(total: int, bounds) -> list:
    """All weak compositions of `total` whose entry i is at most bounds[i],
    lexicographically descending."""
    bounds = tuple(bounds)
    if total < 0 or not bounds:
        return [] if total else [()]
    last = len(bounds) - 1
    out = []

    def rec(i, left, prefix):
        if i == last:
            if left <= bounds[i]:
                out.append(prefix + (left,))
            return
        for v in range(bounds[i] if bounds[i] < left else left, -1, -1):
            rec(i + 1, left - v, prefix + (v,))

    rec(0, total, ())
    return out


def weak_compositions(n: int, length: int) -> list:
    """All weak compositions of n with exactly `length` parts, lexicographic."""
    return bounded_compositions(n, (n,) * length)[::-1]


def weak_compositions_upto(n: int, max_length: int) -> list:
    """Weak compositions of n of every length from 1 to max_length."""
    out = []
    for length in range(1, max_length + 1):
        out.extend(weak_compositions(n, length))
    return out


_KOSTKA_CACHE: dict = {}


def kostka(shape, content) -> int:
    """Number of semistandard tableaux of the given shape and content.

    A lookup in the Pieri column of the content truncated to the depth
    n - shape_1, so a lookup builds (and memoises) that whole truncated
    column: cheap for a long first row, the full column for a short one.
    """
    shape = check_partition(shape)
    content = tuple(content)
    n = sum(shape)
    if n != sum(content):
        raise ValueError("shape size and content sum differ")
    return kostka_column(content, n - shape[0] if shape else 0).get(shape, 0)


@lru_cache(maxsize=None)
def _horizontal_strip_successors(shape, size, below) -> tuple:
    """Partitions nu containing `shape` with nu/shape a horizontal strip of
    `size` cells, at most `below` (<= size) of them below the first row, as
    a shared tuple."""
    rows = shape + (0,)  # the strip may open one new row
    out = []

    def rec(i, left, tail):
        # row i may grow at most to the old length of row i - 1; row 0 takes
        # the cells not placed below it
        if i == 0:
            nu = (rows[0] + size - below + left,) + tail
            out.append(nu if nu[-1] else nu[:-1])
            return
        for add in range(min(left, rows[i - 1] - rows[i]) + 1):
            rec(i - 1, left - add, (rows[i] + add,) + tail)

    rec(len(shape), below, ())
    return tuple(out)


def kostka_column(content, depth=None):
    """The nonzero Kostka numbers with the given content, as a read-only
    {shape: K(shape, content)} mapping in partitions() order: every shape,
    or with `depth` only the shapes lam with |lam| - lam_1 <= depth.

    The Schur expansion of h_content by the Pieri rule: one horizontal-strip
    step per nonzero part.  K is symmetric in the content, so the parts are
    taken in decreasing order and the column of every prefix is memoised.  A
    strip never shortens a row below the first, so cutting every step at the
    depth loses no shape of the truncated column.  The strips themselves are
    memoised once per process on (shape, strip size, room), the room being
    how many cells may go below the first row, the depth left capped at the
    strip size; so columns of different contents and depths share each
    successor tuple.
    """
    content = tuple(content)
    if any(c < 0 for c in content):
        raise ValueError(f"not a weak composition: {content}")
    if depth is not None and depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    parts = tuple(sorted((c for c in content if c), reverse=True))
    return _kostka_column(parts, sum(parts) if depth is None else depth)


def _kostka_column(parts, depth):
    # every shape with content `parts` has first row >= parts[0]
    depth = min(depth, sum(parts) - parts[0]) if parts else 0
    key = (parts, depth)
    column = _KOSTKA_CACHE.get(key)
    if column is not None:
        return column
    if not parts:
        column = {(): 1}
    else:
        step: dict = {}
        last = parts[-1]
        size = sum(parts) - last
        for shape, value in _kostka_column(parts[:-1], depth).items():
            # the strip reads the depth left only up to its own size
            room = min(last, depth - size + (shape[0] if shape else 0))
            for bigger in _horizontal_strip_successors(shape, last, room):
                step[bigger] = step.get(bigger, 0) + value
        column = {lam: step[lam] for lam in sorted(step, reverse=True)}
    _KOSTKA_CACHE[key] = column = MappingProxyType(column)
    return column


def kostka_cache_snapshot() -> list:
    """The distinct memoised Kostka numbers as (shape, content, value)
    triples: a value held by columns of several depths is listed once."""
    return list(dict.fromkeys(
        (shape, parts, value)
        for (parts, _), column in _KOSTKA_CACHE.items()
        for shape, value in column.items()
    ))


def tableau_shape(tableau) -> tuple:
    return tuple(len(row) for row in tableau)


def tableau_content(tableau, length: int | None = None) -> tuple:
    top = max((v for row in tableau for v in row), default=0)
    size = max(top, length or 0)
    counts = [0] * size
    for row in tableau:
        for v in row:
            counts[v - 1] += 1
    return tuple(counts)


def is_semistandard(tableau) -> bool:
    rows = tuple(tuple(r) for r in tableau)
    if not is_partition(tableau_shape(rows)) and rows:
        return False
    for row in rows:
        if any(a > b for a, b in zip(row, row[1:])):
            return False
        if any(v < 1 for v in row):
            return False
    for upper, lower in zip(rows, rows[1:]):
        if any(upper[j] >= lower[j] for j in range(len(lower))):
            return False
    return True


def semistandard_tableaux(shape, content) -> list:
    """All SSYT of given shape and content, filled cell by cell in row-major order.

    Deliberately independent of the Pieri columns behind kostka(), so the two
    can cross-check each other.
    """
    shape = check_partition(shape)
    content = tuple(content)
    if sum(shape) != sum(content):
        raise ValueError("shape size and content sum differ")
    n_letters = len(content)
    remaining = list(content)
    rows = [[] for _ in shape]
    out = []

    cells = [(i, j) for i in range(len(shape)) for j in range(shape[i])]

    def fill(idx):
        if idx == len(cells):
            out.append(tuple(tuple(r) for r in rows))
            return
        i, j = cells[idx]
        lo = rows[i][j - 1] if j > 0 else 1
        for v in range(lo, n_letters + 1):
            if remaining[v - 1] == 0:
                continue
            if i > 0 and rows[i - 1][j] >= v:
                continue
            rows[i].append(v)
            remaining[v - 1] -= 1
            fill(idx + 1)
            remaining[v - 1] += 1
            rows[i].pop()

    fill(0)
    return out

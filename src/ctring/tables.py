"""Nonnegative integer matrices: margins, contingency tables, zigzags, I/O.

A matrix is a tuple of row tuples over nonnegative ints, indexed internally
from 0.  Cell coordinates exposed to callers (zigzag witnesses, ball
positions) are 1-based, matching the usual display convention.
"""

import json
from functools import lru_cache

from .partitions import bounded_compositions, kostka, kostka_column


def dimensions(matrix) -> tuple:
    k = len(matrix)
    p = len(matrix[0]) if k else 0
    return k, p


def as_matrix(rows) -> tuple:
    mat = tuple(tuple(int(v) for v in row) for row in rows)
    if not mat or not mat[0]:
        raise ValueError("matrix must have positive dimensions")
    if any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("ragged rows")
    if any(v < 0 for row in mat for v in row):
        raise ValueError("entries must be nonnegative")
    return mat


def row_sums(matrix) -> tuple:
    """The paper's rdeg of a monomial, read off its exponent matrix
    (Grid.matrix); col_sums is its cdeg."""
    return tuple(sum(row) for row in matrix)


def col_sums(matrix) -> tuple:
    return tuple(sum(col) for col in zip(*matrix))


def total(matrix) -> int:
    return sum(sum(row) for row in matrix)


def quadrant_maxima(matrix) -> tuple:
    """The zigzag DP: entry (i, j) is the zigzag number of the cells weakly
    northwest of the 1-based cell (i, j); row 0 and column 0 are zero.

    q(i, j) = a_ij + max(q(i-1, j), q(i, j-1)): a zigzag ending in the
    quadrant either uses cell (i, j) last or stays in a smaller quadrant."""
    table = [(0,) * (dimensions(matrix)[1] + 1)]
    for row in matrix:
        above, cur = table[-1], [0]
        for j, a in enumerate(row):
            cur.append(a + max(above[j + 1], cur[j]))
        table.append(tuple(cur))
    return tuple(table)


def zigzag_number(matrix) -> int:
    """Maximum entry weight over zigzags (cell sets weakly increasing in both
    coordinates): the corner of the zigzag DP (quadrant_maxima), run on one
    row that each matrix row overwrites left to right."""
    best = [0] * len(matrix[0]) if matrix else []
    for row in matrix:
        left = 0
        for j, a in enumerate(row):
            up = best[j]
            left = best[j] = a + (up if up > left else left)
    return best[-1] if best else 0


def is_zigzag_cells(cells) -> bool:
    """Whether a sequence of 1-based (row, col) pairs is a valid zigzag set."""
    cells = tuple(cells)
    if len(set(cells)) != len(cells):
        return False
    return all(
        a[0] <= b[0] and a[1] <= b[1] for a, b in zip(cells, cells[1:])
    )


def zigzag_weight(matrix, cells) -> int:
    return sum(matrix[i - 1][j - 1] for i, j in cells)


def support(matrix) -> tuple:
    """1-based positions of nonzero entries, row-major."""
    return tuple(
        (i + 1, j + 1)
        for i, row in enumerate(matrix)
        for j, v in enumerate(row)
        if v
    )


def is_zigzag_matrix(matrix) -> bool:
    return is_zigzag_cells(support(matrix))


def margins(alpha, beta) -> tuple:
    """The margin rule of every route: alpha and beta are nonempty weak
    compositions of one n.  Returns them as tuples; anything else is a
    ValueError."""
    alpha, beta = tuple(alpha), tuple(beta)
    if any(v < 0 for v in alpha + beta):
        raise ValueError(f"not a weak composition: {alpha}, {beta}")
    if sum(alpha) != sum(beta):
        raise ValueError("row and column sums must agree")
    if not alpha or not beta:
        raise ValueError("compositions must be nonempty")
    return alpha, beta


def contingency_tables(alpha, beta) -> tuple:
    """All matrices with the given row and column sums, lexicographically
    descending as flat tuples.  The last few results are kept: checking one
    margin pair every way (a sweep record, verify) asks for its tables more
    than once."""
    return _contingency_tables(tuple(alpha), tuple(beta))


@lru_cache(maxsize=4)
def _contingency_tables(alpha, beta) -> tuple:
    """Row i is any composition of alpha[i] under the column sums still open.
    No row is a dead end: the open column sums total the parts below, and
    any such vector is the margin of some table (northwest-corner rule).
    So the last row is the column sums left, its one composition.  Rows
    come lexicographically descending, so the tables do too."""
    margins(alpha, beta)
    tables = [((), beta)]
    for part in alpha[:-1]:
        tables = [
            (rows + (row,), tuple(c - r for c, r in zip(left, row)))
            for rows, left in tables
            for row in bounded_compositions(part, left)
        ]
    return tuple(rows + (left,) for rows, left in tables)


def count_contingency_tables(alpha, beta) -> int:
    """Table count via the RSK identity: K(lam, alpha) * K(lam, beta) summed
    over the shapes lam of the Kostka column of alpha.

    Permuting the rows or the columns, or dropping a zero line, maps the
    tables one to one, so the count depends on the nonzero parts of each
    margin alone; it is memoized on those parts sorted descending.  The
    margins are checked on every call, before the memo."""
    alpha, beta = margins(alpha, beta)
    return _count_tables(_parts(alpha), _parts(beta))


def _parts(composition) -> tuple:
    return tuple(sorted(filter(None, composition), reverse=True))


@lru_cache(maxsize=1024)
def _count_tables(alpha, beta) -> int:
    # K(lam, beta) through kostka, where perfbench/tracer.py measures the
    # Kostka layer; see the ROADMAP item on the benchmark before making this
    # a column join
    return sum(value * kostka(lam, beta) for lam, value in kostka_column(alpha).items())


def is_subtingency(matrix, alpha, beta) -> bool:
    """Whether row and column sums are componentwise bounded by alpha, beta."""
    k, p = dimensions(matrix)
    if (k, p) != (len(alpha), len(beta)):
        return False
    return all(r <= a for r, a in zip(row_sums(matrix), alpha)) and all(
        c <= b for c, b in zip(col_sums(matrix), beta)
    )


def decimal(text: str) -> int:
    """A nonnegative integer written in ASCII decimal digits alone; int()
    would also take '1_0', '+3', surrounding blanks and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected decimal digits, got {text!r}")
    return int(text)


def matrix_from_text(text: str) -> tuple:
    rows = [
        [decimal(v) for v in line.split()]
        for line in text.strip().splitlines()
        if line.strip()
    ]
    if not rows:
        raise ValueError("empty matrix text")
    return as_matrix(rows)


def matrix_from_json(data) -> tuple:
    """Decode {"rows", "cols", "entries"}; any malformed input raises
    ValueError (json.JSONDecodeError is one)."""
    if isinstance(data, str):
        data = json.loads(data)
    try:
        entries = data["entries"]
        # int() would cut a float and take a bool: accept JSON ints alone
        if any(type(v) is not int for row in entries for v in row):
            raise ValueError("matrix JSON entries must be integers")
        mat = as_matrix(entries)
        declared = (data["rows"], data["cols"])
        if any(type(v) is not int for v in declared):
            raise ValueError("declared matrix dimensions must be integers")
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed matrix JSON: {err!r}") from None
    if dimensions(mat) != declared:
        raise ValueError("declared dimensions do not match entries")
    return mat


def matrix_to_json(matrix) -> dict:
    k, p = dimensions(matrix)
    return {"rows": k, "cols": p, "entries": [list(row) for row in matrix]}

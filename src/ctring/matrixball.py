"""The matrix-ball construction: ball labeling, derived matrices, RSK.

Each cell (i, j) of a nonnegative matrix holds a_{i,j} balls.  Balls are
labeled so that a ball's label exceeds the largest label weakly northwest of
it; balls inside one cell are ordered NW to SE.  Consequently cell (i, j)
holds the consecutive labels base(i,j)+1 .. base(i,j)+a_{i,j}, where
base(i,j) is the largest label in the quadrant {(i',j') : i' <= i, j' <= j}
minus the cell itself.  These bases are the zigzag DP of
`tables.zigzag_number`, so the ball step and the zigzag witness read labels
off that DP and never list the balls one by one.

For a fixed label, the occupied cells form a strict antichain: rows increase
while columns decrease.  Joining consecutive cells of an antichain at their
inner corners produces the derived matrix of the next iteration; iterating
until zero yields the RSK tableau pair.
"""

from collections import namedtuple

from .tables import col_sums, dimensions, is_subtingency, row_sums, total

RskPair = namedtuple("RskPair", ["P", "Q"])


def matrix_ball_step(matrix):
    """One iteration: (derived matrix, northern counts by row, western counts by column).

    The positions of a label, sorted by increasing row, have strictly
    decreasing columns; the derived matrix gains a ball at each inner corner
    (row of the next position, column of the previous one).  One row-major
    pass meets each label's positions in that order: it carries the latest
    column of each label, and the largest label in each column's quadrant,
    so no label is listed with all of its cells.
    """
    k, p = dimensions(matrix)
    nxt = [[0] * p for _ in range(k)]
    northern = [0] * k
    last = []  # last[label - 1]: the column of the label's latest cell
    quad = [0] * p  # quad[j]: the largest label in the cells (<= i, <= j)
    for i in range(k):
        row, derived = matrix[i], nxt[i]
        left = 0
        for j in range(p):
            base = quad[j] if quad[j] > left else left
            top = base + row[j]
            if top > base:
                # labels up to len(last) are old: their balls join this cell
                for label in range(base, min(top, len(last))):
                    derived[last[label]] += 1
                    last[label] = j
                if top > len(last):
                    northern[i] += top - len(last)
                    last += [j] * (top - len(last))
            quad[j] = left = top
    western = [0] * p
    for j in last:
        western[j] += 1
    return tuple(map(tuple, nxt)), tuple(northern), tuple(western)


def derived_matrix(matrix) -> tuple:
    """Exponent matrix attached to a table: the derived matrix of one ball step."""
    return matrix_ball_step(matrix)[0]


def _content_row(counts) -> tuple:
    return tuple(i + 1 for i, c in enumerate(counts) for _ in range(c))


def rsk(matrix) -> RskPair:
    """Map a nonnegative matrix to its RSK pair of semistandard tableaux.

    Row t of P records the northern-ball row counts of the t-th iterate; row
    t of Q records the western-ball column counts.  P has content row_sums(A)
    and Q has content col_sums(A).
    """
    p_rows = []
    q_rows = []
    current = matrix
    while total(current):
        current, northern, western = matrix_ball_step(current)
        p_rows.append(_content_row(northern))
        q_rows.append(_content_row(western))
    return RskPair(tuple(p_rows), tuple(q_rows))


def zigzag_witness(matrix) -> tuple:
    """A maximum-weight zigzag, by backward chaining through the zigzag DP.

    quad[i][j] is the largest label in the quadrant of cell (i, j), so the
    cell holds the labels quad[i][j] - a_ij + 1 .. quad[i][j].  Starting from
    the cell holding the top label quad[k][p], repeatedly step to a cell
    weakly northwest that holds the current cell's smallest label minus one,
    until that is 0.  Ties are broken by smallest row, then smallest column,
    so the witness is deterministic.  The cost depends on the shape of the
    matrix only, not on its entries.
    """
    if total(matrix) == 0:
        raise ValueError("zero matrix has no zigzag witness")
    k, p = dimensions(matrix)
    quad = [[0] * (p + 1) for _ in range(k + 1)]
    for i in range(k):
        for j in range(p):
            quad[i + 1][j + 1] = matrix[i][j] + max(quad[i][j + 1], quad[i + 1][j])
    cells = []
    i, j, label = k, p, quad[k][p]
    while label:
        i, j = min(
            (r, c)
            for r in range(1, i + 1)
            for c in range(1, j + 1)
            if quad[r][c] - matrix[r - 1][c - 1] < label <= quad[r][c]
        )
        cells.append((i, j))
        label = quad[i][j] - matrix[i - 1][j - 1]
    return tuple(reversed(cells))


def in_matrix_ball_image(sub, alpha, beta) -> bool:
    """Whether an alpha,beta-subtingency table is the derived matrix of some
    alpha,beta-contingency table.

    Characterization: with x_i (y_j) the northern (western) ball counts of
    the candidate, the partial sums of x must fit under the row slack
    alpha - row_sums, offset by one index, and likewise for y under the
    column slack.
    """
    alpha = tuple(alpha)
    beta = tuple(beta)
    if not is_subtingency(sub, alpha, beta):
        raise ValueError("matrix is not an alpha,beta-subtingency table")
    _, northern, western = matrix_ball_step(sub)
    for balls, margin, sums in (
        (northern, alpha, row_sums(sub)),
        (western, beta, col_sums(sub)),
    ):
        acc = 0
        slack = 0
        for count, cap, used in zip(balls, margin, sums):
            acc += count
            if acc > slack:
                return False
            slack += cap - used
    return True

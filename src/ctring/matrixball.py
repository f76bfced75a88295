"""The matrix-ball construction: ball labeling, derived matrices, RSK.

Each cell (i, j) of a nonnegative matrix holds a_{i,j} balls.  Balls are
labeled so that a ball's label exceeds the largest label weakly northwest of
it; balls inside one cell are ordered NW to SE.  Consequently cell (i, j)
holds the consecutive labels q(i,j)-a_{i,j}+1 .. q(i,j), where q(i,j) is
the largest label in the quadrant {(i',j') : i' <= i, j' <= j}: the zigzag
DP `tables.quadrant_maxima`.

For a fixed label, the occupied cells form a strict antichain: rows increase
while columns decrease.  Joining consecutive cells of an antichain at their
inner corners produces the derived matrix of the next iteration; iterating
until zero yields the RSK tableau pair.  The ball step and the zigzag
witness are local rules on q, so neither lists the balls one by one: their
cost is the matrix's shape, not its entries.
"""

from collections import namedtuple

from .tables import col_sums, dimensions, is_subtingency, quadrant_maxima, row_sums, total

RskPair = namedtuple("RskPair", ["P", "Q"])


def matrix_ball_step(matrix):
    """One iteration: (derived matrix, northern counts by row, western counts by column).

    The positions of a label, sorted by increasing row, have strictly
    decreasing columns; the derived matrix gains a ball at each inner corner
    (row of the next position, column of the previous one).  With q the
    zigzag DP (1-based, zero row 0 and column 0):

        D[i][j] = min(q[i-1][j], q[i][j-1]) - q[i-1][j-1],
        northern[i] = q[i][p] - q[i-1][p],  western[j] = q[k][j] - q[k][j-1].

    The labels in the quadrant of (i, j) are exactly 1..q[i][j], and a
    label's balls there are one contiguous run of its chain (rows go up
    while columns go down).  A derived ball joins two consecutive cells of
    a label and lies in the quadrant exactly when both do, so each label
    there gives one derived ball fewer than it has balls, and the quadrant
    holds its total minus q[i][j] derived balls.  The second difference of
    that count, with
    q[i][j] = a_ij + max(north, west), is the min rule; the counts of new
    labels by row and by column are first differences of the last column
    and the last row.

    The rows of q are built in the same pass as D, not read from
    `tables.quadrant_maxima`: building the table first made the step a
    third slower, and the sweep runs it on every table.
    """
    p = dimensions(matrix)[1]
    above = [0] * (p + 1)
    derived = []
    northern = []
    for row in matrix:
        cur = [0]
        out = []
        for j, a in enumerate(row):
            north, west = above[j + 1], cur[j]
            if north < west:
                out.append(north - above[j])
                cur.append(west + a)
            else:
                out.append(west - above[j])
                cur.append(north + a)
        derived.append(tuple(out))
        northern.append(cur[p] - above[p])
        above = cur
    western = tuple(above[j + 1] - above[j] for j in range(p))
    return tuple(derived), tuple(northern), western


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

    q = `tables.quadrant_maxima(matrix)`, so cell (i, j) holds the labels
    q[i][j] - a_ij + 1 .. q[i][j].  Starting from the cell holding the top
    label q[k][p], repeatedly step to a cell weakly northwest that holds the
    current cell's smallest label minus one, until that is 0.  Ties are
    broken by smallest row, then smallest column, so the witness is
    deterministic.  The cost depends on the shape of the matrix only, not on
    its entries.
    """
    if total(matrix) == 0:
        raise ValueError("zero matrix has no zigzag witness")
    quad = quadrant_maxima(matrix)
    k, p = dimensions(matrix)
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

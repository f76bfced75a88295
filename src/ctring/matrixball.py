"""The matrix-ball construction: ball labeling, derived matrices, RSK.

Each cell (i, j) of a nonnegative matrix holds a_{i,j} balls.  Balls are
labeled so that a ball's label exceeds the largest label weakly northwest of
it; balls inside one cell are ordered NW to SE.  Consequently cell (i, j)
holds the consecutive labels base(i,j)+1 .. base(i,j)+a_{i,j}, where
base(i,j) is the largest label in the quadrant {(i',j') : i' <= i, j' <= j}
minus the cell itself.

For a fixed label, the occupied cells form a strict antichain: rows increase
while columns decrease.  Joining consecutive cells of an antichain at their
inner corners produces the derived matrix of the next iteration; iterating
until zero yields the RSK tableau pair.
"""

from collections import namedtuple

from .tables import col_sums, dimensions, is_subtingency, row_sums, total

RskPair = namedtuple("RskPair", ["P", "Q"])


class BallDiagram:
    """Ball labels of one matrix: per-cell label ranges and per-label positions."""

    def __init__(self, source):
        k, p = dimensions(source)
        base = [[0] * p for _ in range(k)]
        # quad[i][j] = largest label among cells (<= i, <= j), 1-based prefix
        quad = [[0] * (p + 1) for _ in range(k + 1)]
        for i in range(k):
            for j in range(p):
                b = max(quad[i][j + 1], quad[i + 1][j])
                base[i][j] = b
                top = b + source[i][j] if source[i][j] else 0
                quad[i + 1][j + 1] = max(quad[i][j + 1], quad[i + 1][j], top)
        labels: dict = {}
        for i in range(k):
            for j in range(p):
                for label in range(base[i][j] + 1, base[i][j] + source[i][j] + 1):
                    labels.setdefault(label, []).append((i + 1, j + 1))
        self.source = source
        self.base = tuple(tuple(row) for row in base)
        self.labels = {label: tuple(cells) for label, cells in labels.items()}
        self.max_label = quad[k][p]

    def cell_labels(self, i: int, j: int) -> range:
        """Labels held by cell (i, j), 1-based coordinates."""
        b = self.base[i - 1][j - 1]
        return range(b + 1, b + self.source[i - 1][j - 1] + 1)


def matrix_ball_step(matrix):
    """One iteration: (derived matrix, northern counts by row, western counts by column).

    The positions of a label, sorted by increasing row, have strictly
    decreasing columns; the derived matrix gains a ball at each inner corner
    (row of the next position, column of the previous one).  One row-major
    pass meets each label's positions in that order: it carries the latest
    column of each label, and the largest label in each column's quadrant,
    in place of a BallDiagram.
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
    """A maximum-weight zigzag, by backward chaining through ball labels.

    Starting from a ball with the maximum label, repeatedly jump to a ball
    labeled one less than the smallest label of the current cell, weakly
    northwest of it.  Ties are broken by smallest row, then smallest column,
    so the witness is deterministic.
    """
    if total(matrix) == 0:
        raise ValueError("zero matrix has no zigzag witness")
    diagram = BallDiagram(matrix)
    cell = min(diagram.labels[diagram.max_label])
    cells = [cell]
    label = diagram.cell_labels(*cell).start
    while label > 1:
        candidates = [
            c
            for c in diagram.labels[label - 1]
            if c[0] <= cell[0] and c[1] <= cell[1]
        ]
        cell = min(candidates)
        cells.append(cell)
        label = diagram.cell_labels(*cell).start
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

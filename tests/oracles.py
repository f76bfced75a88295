"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive and shares no code path with the
implementations under test.  The old routes kept here for rewritten layers
(the per-shape Kostka series on the strip DP `strip_kostka`, class-by-class
tensor multiplicities, normal forms and Lefschetz ranks over Fraction
Gauss-Jordan in `RrefIdeal` and `nf_lefschetz_report`, the unskipped slice
rows `unskipped_slice_rows`, the h-basis parabolic invariants, counted as
multiset partitions over sorted contents, `invariants_frobenius_h`, those
partitions listed one by one, `unpruned_multiset_partitions`, the h to s
expansion by Kostka columns `h_to_s`, the inverse Kostka table
`s_to_h_expansion` and the Schur-basis parabolic invariants through both,
`h_route_invariants_s`,
and the matrix-ball step and the zigzag witness read off a ball labeling
built from its definition, `reference_labels`, in `diagram_ball_step` and
`chain_witness`) reuse only library primitives that are tested on their own:
`partitions`, `check_partition`, `kostka_column`, `irreducible_character`,
the factor order of a margin's group `stab_factor_data`, the generator list
`contingency_generators`, the linear form `lefschetz_element`, `Grid.ddeg`,
`Poly` products and the clean monomials of `HomogeneousIdeal`.  The line
supports of a grid, `row_support` and `col_support`, are kept here for the
tests that build ideals line by line.  The diagonal term order is kept here
as a tuple sort key, `diagonal_key`, against which the library's packed
integer keys are checked.

The library builds the margin quotient on the block of rows 2..k and columns
2..p, with the line sums eliminated by substitution.  The margin ideal on the
whole grid, `margin_ideal`, each line sum a power ((line,), 1) and no
substitution, is kept here as its oracle, with `full_lefschetz_ranks`, the
Lefschetz ranks by normal forms in it.  `block_presentation` states the
block ideal from its definition.  The library builds one diagonal order; a
second one, `column_diagonal_order`, and the margin ideal under it,
`column_margin_ideal`, are kept here for the tests that run the packed keys
and the standard monomials under both.  `all_shifts` lists every shift that
`split_left` chooses among, for the split-lex lemma.  The two-row tableaux
of a one-row quotient, listed by the backtracking on use counts that the
library replaced with room counters, are `backtracking_two_row_tableaux`.
The contingency tables listed row by row, the last row included, are
`row_by_row_contingency_tables`.  The library packs the term order once per
ideal and carries integer keys from the clean-monomial walk to the rows; the
slices packed per degree, with every key a dot product and the products
multiplied out on exponent tuples, are `per_degree_slice`, and the Lefschetz
report on them `per_degree_lefschetz_report`.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, product
from math import factorial
from operator import le, mul, sub
from types import MappingProxyType

from ctring.linalg import DegreeBasis, HomogeneousIdeal, linear_form, position_echelon
from ctring.partitions import bounded_compositions, check_partition, kostka_column, partitions
from ctring.polys import Grid, Poly, order_weights
from ctring.psi import stab_factor_data
from ctring.quotient import _block_form, contingency_generators, lefschetz_element
from ctring.symfunc import TensorSymFunc, cycle_type_size, irreducible_character
from ctring.tables import margins


def brute_zigzag(matrix) -> int:
    """Maximum weight over all chains of cells, by explicit chain extension."""
    k, p = len(matrix), len(matrix[0])
    cells = [(i, j) for i in range(k) for j in range(p)]
    best = 0

    def extend(last, weight):
        nonlocal best
        best = max(best, weight)
        for i, j in cells:
            if i >= last[0] and j >= last[1] and (i, j) != last:
                extend((i, j), weight + matrix[i][j])

    for i, j in cells:
        extend((i, j), matrix[i][j])
    return best


def _row_insert(rows, value):
    """Classic row bumping; returns the (row, col) where the shape grew."""
    r = 0
    while True:
        if r == len(rows):
            rows.append([value])
            return r, 0
        row = rows[r]
        for c, entry in enumerate(row):
            if entry > value:
                row[c], value = value, entry
                break
        else:
            row.append(value)
            return r, len(row) - 1
        r += 1


def insertion_rsk(matrix):
    """Textbook insertion RSK on the biword of a nonnegative matrix.

    Reading cells in row-major order, column indices are inserted and row
    indices recorded, so the insertion tableau has the column sums as content
    and the recording tableau has the row sums.
    """
    insert_rows: list = []
    record_rows: list = []
    for i, row in enumerate(matrix, start=1):
        for j, mult in enumerate(row, start=1):
            for _ in range(mult):
                r, c = _row_insert(insert_rows, j)
                if r == len(record_rows):
                    record_rows.append([])
                record_rows[r].append(i)
    return (
        tuple(tuple(r) for r in insert_rows),
        tuple(tuple(r) for r in record_rows),
    )


def reference_labels(matrix) -> dict:
    """Ball labels from their definition: {label: cells holding it, by row}.

    A ball's label is one more than the largest label among the balls weakly
    northwest of it, the balls of one cell taken NW to SE.  Cells are visited
    row by row, so every ball weakly northwest of a ball is labeled first."""
    balls = []  # (row, col, label), 1-based
    labels: dict = {}
    for i, row in enumerate(matrix, start=1):
        for j, mult in enumerate(row, start=1):
            for _ in range(mult):
                label = 1 + max(
                    (b for r, c, b in balls if r <= i and c <= j), default=0
                )
                balls.append((i, j, label))
                labels.setdefault(label, []).append((i, j))
    return {label: tuple(cells) for label, cells in labels.items()}


def diagram_ball_step(matrix):
    """matrix_ball_step read off the reference labeling: per label, its first
    cell's row gains a northern ball, its last cell's column a western ball,
    and each pair of consecutive cells a derived ball at (row of the next,
    column of the previous)."""
    k, p = len(matrix), len(matrix[0]) if matrix else 0
    nxt = [[0] * p for _ in range(k)]
    northern = [0] * k
    western = [0] * p
    for cells in reference_labels(matrix).values():
        northern[cells[0][0] - 1] += 1
        western[cells[-1][1] - 1] += 1
        for (_, j_prev), (i_next, _) in zip(cells, cells[1:]):
            nxt[i_next - 1][j_prev - 1] += 1
    return tuple(tuple(row) for row in nxt), tuple(northern), tuple(western)


def chain_witness(matrix) -> tuple:
    """zigzag_witness by walking ball chains of the reference labeling: from
    the first cell holding the top label, step to the first cell weakly
    northwest holding one less than the current cell's smallest label."""
    labels = reference_labels(matrix)

    def smallest(cell):
        return min(b for b, held in labels.items() if cell in held)

    cell = min(labels[max(labels)])
    cells = [cell]
    while smallest(cell) > 1:
        cell = min(
            c for c in labels[smallest(cell) - 1]
            if c[0] <= cell[0] and c[1] <= cell[1]
        )
        cells.append(cell)
    return tuple(reversed(cells))


def row_support(grid, i: int) -> tuple:
    """Variable indices of row i (1-based)."""
    return tuple(grid.index(i, j) for j in range(1, grid.p + 1))


def col_support(grid, j: int) -> tuple:
    """Variable indices of column j (1-based)."""
    return tuple(grid.index(i, j) for i in range(1, grid.k + 1))


def random_matrix(rng, k, p, max_entry=3):
    return tuple(
        tuple(rng.randint(0, max_entry) for _ in range(p)) for _ in range(k)
    )


def random_zigzag_matrix(rng, k, p, max_entry=3):
    """Random matrix supported on a random monotone staircase."""
    i, j = 1, 1
    cells = [(1, 1)]
    while (i, j) != (k, p):
        moves = []
        if i < k:
            moves.append((i + 1, j))
        if j < p:
            moves.append((i, j + 1))
        i, j = rng.choice(moves)
        cells.append((i, j))
    rows = [[0] * p for _ in range(k)]
    for i, j in cells:
        rows[i - 1][j - 1] = rng.randint(0, max_entry)
    return tuple(tuple(r) for r in rows)


def ordered_block_partition_count(content, sizes) -> int:
    """Number of ways to split a multiset (letter counts) into an ordered list
    of blocks with the given sizes."""
    content = tuple(content)
    sizes = tuple(sizes)
    if not sizes:
        return 1 if not any(content) else 0
    total = 0
    size = sizes[0]
    letters = len(content)

    def choose(i, left, taken):
        nonlocal total
        if i == letters:
            if left == 0:
                remaining = tuple(c - t for c, t in zip(content, taken))
                total += ordered_block_partition_count(remaining, sizes[1:])
            return
        for v in range(min(left, content[i]) + 1):
            choose(i + 1, left - v, taken + (v,))

    choose(0, size, ())
    return total


def count_fixed_tables(tables, row_perm, col_perm) -> int:
    """Tables invariant under simultaneously permuting rows and columns
    (permutations as 0-based image tuples)."""
    count = 0
    for t in tables:
        if all(
            t[row_perm[i]][col_perm[j]] == t[i][j]
            for i in range(len(row_perm))
            for j in range(len(col_perm))
        ):
            count += 1
    return count


def strict_compositions(total) -> list:
    """Compositions of `total` into positive parts, all of them."""
    if total == 0:
        return [()]
    out = []
    for bits in range(1 << (total - 1)):
        parts, run = [], 1
        for i in range(total - 1):
            if bits >> i & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(tuple(parts))
    return out


def backtracking_two_row_tableaux(bounds) -> list:
    """All two-row rectangular SSYT with at most d_i copies of each letter i,
    as (top_row, bottom_row) pairs, including the empty tableau, in the
    order onerow.two_row_tableaux lists them."""
    bounds = tuple(bounds)
    n = len(bounds)
    out = [((), ())]
    half = sum(bounds) // 2

    def extend(top, bottom, used):
        if len(top) > 0:
            out.append((tuple(top), tuple(bottom)))
        if len(top) == half:
            return
        for a in range(top[-1] if top else 1, n + 1):
            if used[a - 1] >= bounds[a - 1]:
                continue
            used[a - 1] += 1
            b_lo = max(a + 1, bottom[-1] if bottom else 1)
            for b in range(b_lo, n + 1):
                if used[b - 1] >= bounds[b - 1]:
                    continue
                used[b - 1] += 1
                top.append(a)
                bottom.append(b)
                extend(top, bottom, used)
                top.pop()
                bottom.pop()
                used[b - 1] -= 1
            used[a - 1] -= 1

    extend([], [], [0] * n)
    return out


def _ranked_variables(grid, tiebreak):
    """The variables ranked by (i+j, i) ascending (tiebreak="row") or by
    (i+j, j) (tiebreak="column")."""
    p = grid.p
    second = (lambda v: v // p) if tiebreak == "row" else (lambda v: v % p)
    return sorted(range(grid.nvars), key=lambda v: (v // p + v % p, second(v)))


def diagonal_key(grid, tiebreak="row"):
    """The diagonal term order as a tuple sort key (a larger key is a larger
    term): the ddeg vectors compared lexicographically, then the exponents of
    the variables ranked by (i+j, i) ascending (tiebreak="row"; "column"
    ranks by (i+j, j)).  Valid for every total degree at once."""
    priority = _ranked_variables(grid, tiebreak)
    return lambda exps: grid.ddeg(exps) + tuple(exps[v] for v in priority)


def column_diagonal_order(grid):
    """A second diagonal order in the support form of Grid.diagonal_order:
    the antidiagonals, then the singletons ranked by (i+j, j), so that it
    sorts as diagonal_key(grid, "column").  A margin ideal has the same
    standard monomials under it as under the library's order."""
    p = grid.p
    antidiagonals = tuple(
        tuple(v for v in range(grid.nvars) if v // p + v % p == s)
        for s in range(grid.k + p - 1)
    )
    return antidiagonals + tuple((v,) for v in _ranked_variables(grid, "column"))


def _grid_lines(grid):
    """The supports of the rows, then of the columns."""
    lines = [row_support(grid, i) for i in range(1, grid.k + 1)]
    return lines + [col_support(grid, j) for j in range(1, grid.p + 1)]


def margin_ideal(alpha, beta):
    """The margin ideal on the whole len(alpha) x len(beta) grid under its
    diagonal order, with no substitution: every row and column sum as a
    power ((line,), 1), row i capped at alpha_i and column j at beta_j.
    Margins that break the rule of tables.margins are a ValueError."""
    alpha, beta = margins(alpha, beta)
    grid = Grid(len(alpha), len(beta))
    lines = _grid_lines(grid)
    return HomogeneousIdeal(
        grid.nvars,
        grid.diagonal_order(),
        [((line,), 1) for line in lines],
        zip(lines, alpha + beta),
    )


def column_margin_ideal(alpha, beta):
    """The margin ideal (row and column sums, row i capped at alpha_i and
    column j at beta_j) under column_diagonal_order."""
    grid = Grid(len(alpha), len(beta))
    lines = _grid_lines(grid)
    caps = zip(lines, tuple(alpha) + tuple(beta))
    return HomogeneousIdeal(
        grid.nvars, column_diagonal_order(grid), [((line,), 1) for line in lines], caps
    )


def block_presentation(alpha, beta):
    """(nvars, order, powers, caps) of the block ideal of the margins, from
    its definition: the block of rows 2..k and columns 2..p as a grid of its
    own under its diagonal order, its row i capped at alpha_i and column j at
    beta_j, and the powers (C_2, ..., C_p)^(alpha_1 + 1) and
    (R_2, ..., R_k)^(beta_1 + 1) of its column and row sums.  An empty block
    has no variables and no lines."""
    k, p = len(alpha), len(beta)
    if k == 1 or p == 1:
        return 0, (), [], []
    block = Grid(k - 1, p - 1)
    rows = [row_support(block, i) for i in range(1, k)]
    cols = [col_support(block, j) for j in range(1, p)]
    powers = [(cols, alpha[0] + 1), (rows, beta[0] + 1)]
    caps = list(zip(rows + cols, tuple(alpha[1:]) + tuple(beta[1:])))
    return block.nvars, block.diagonal_order(), powers, caps


def unskipped_slice_rows(ideal, powers, key, degree):
    """(columns, rows) of one degree slice of a HomogeneousIdeal presented
    by `powers`, with no row skipped: every product of e of the line sums of
    each power, multiplied out as Polys, times every clean factor of degree
    - e, restricted to the clean monomials of the degree, which are the
    columns, descending by the sort key `key`.  Rows are keyed by column
    position."""
    columns = sorted(ideal.clean_monomials(degree), key=key, reverse=True)
    index = {m: i for i, m in enumerate(columns)}
    rows = []
    for lines, e in powers:
        for picked in combinations_with_replacement(lines, e):
            product = Poly.monomial((0,) * ideal.nvars)
            for line in picked:
                product = product * linear_form(ideal.nvars, line)
            for factor in ideal.clean_monomials(degree - e):
                row = {}
                for exps, c in product.terms.items():
                    pos = index.get(tuple(a + b for a, b in zip(factor, exps)))
                    if pos is not None:
                        row[pos] = c
                rows.append(row)
    return columns, rows


def full_lefschetz_ranks(alpha, beta) -> list:
    """The ranks of the Lefschetz report on the whole grid: the normal forms
    in margin_ideal of L^e m, L^e multiplied out as Polys, for the standard
    monomials m of degree k, ranked by Fraction Gauss-Jordan.  The top degree
    is the last before the first degree with no standard monomial."""
    ideal = margin_ideal(alpha, beta)
    lef = lefschetz_element(alpha, beta)
    dims = []
    while not dims or dims[-1]:
        dims.append(len(ideal.standard_monomials(len(dims))))
    top = len(dims) - 2
    ranks = []
    for k in range(top // 2 + 1):
        power = Poly.monomial((0,) * ideal.nvars)
        for _ in range(top - 2 * k):
            power = power * lef
        target = ideal.slice(top - k)
        images = []
        for mono in ideal.standard_monomials(k):
            image = ideal.normal_form(power * Poly.monomial(mono))
            images.append(
                {target.position[target.key(m)]: c for m, c in image.terms.items()}
            )
        ranks.append(len(fraction_rref(images)))
    return ranks


def all_shifts(vec, step, amount):
    """Every way to move `amount` units of a vector `step` slots leftward,
    any number from each slot (split_left takes the greedy one); none when
    step exceeds the run of leading zeros."""
    n = len(vec)
    lead = 0
    while lead < n and vec[lead] == 0:
        lead += 1
    if step > lead:
        return

    def rec(j, left, current):
        if j == n:
            if left == 0:
                yield tuple(current)
            return
        for c in range(min(left, vec[j]) + 1):
            nxt = list(current)
            nxt[j] -= c
            nxt[j - step] += c
            yield from rec(j + 1, left - c, nxt)

    yield from rec(0, amount, list(vec))


def monomials_of_degree(nvars, degree):
    """All exponent tuples of the given total degree (stars and bars)."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree + 1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


def unpruned_multiset_partitions(content, shape):
    """Unordered multiset partitions of the multiset with the given letter
    counts into blocks whose sizes are the parts of `shape`, each a tuple of
    blocks (content vectors) aligned with `shape`.  A branch is dropped only
    when no block fits: every block of each size in turn, descending, blocks
    of equal size weakly decreasing.  invariants_frobenius_h counts these
    partitions by multiplicity type without listing them."""
    shape = check_partition(shape)
    out = []

    def extend(i, remaining, blocks):
        if i == len(shape):
            out.append(tuple(blocks))
            return
        fits = [
            block
            for block in product(*(range(r + 1) for r in remaining))
            if sum(block) == shape[i]
        ]
        for block in reversed(fits):
            if i and shape[i] == shape[i - 1] and block > blocks[-1]:
                continue
            extend(i + 1, tuple(r - b for r, b in zip(remaining, block)), blocks + [block])

    extend(0, tuple(content), [])
    return out


def divisibility_clean_monomials(monomial_gens, nvars, degree):
    """Exponent tuples of the degree divisible by no monomial generator,
    lexicographically descending: every monomial within the exponent bounds
    set by pure-power generators, filtered by divisibility.  Generators of
    higher degree cannot divide and are dropped first."""
    monomial_gens = [g for g in monomial_gens if sum(g) <= degree]
    bounds = [degree] * nvars
    for g in monomial_gens:
        support = [i for i, e in enumerate(g) if e]
        if len(support) == 1:
            i = support[0]
            bounds[i] = min(bounds[i], g[i] - 1)
    out = []

    def extend(i, left, prefix):
        if i == nvars - 1:
            if left <= bounds[i]:
                out.append(prefix + (left,))
            return
        for v in range(min(left, bounds[i]), -1, -1):
            extend(i + 1, left - v, prefix + (v,))

    extend(0, degree, ())
    return [
        m for m in out if not any(all(map(le, g, m)) for g in monomial_gens)
    ]


def fraction_rref(rows):
    """Reduced row echelon form by Gauss-Jordan over Fraction, of sparse rows
    keyed by column position (position 0 leads).  Returns {pivot: row} with
    pivot entries one."""
    pivots = {}
    for row in rows:
        vec = {p: Fraction(c) for p, c in row.items() if c}
        for lead in sorted(pivots):
            c = vec.pop(lead, 0)
            if c:
                for p, pc in pivots[lead].items():
                    if p != lead:
                        vec[p] = vec.get(p, 0) - c * pc
                vec = {p: v for p, v in vec.items() if v}
        if not vec:
            continue
        lead = min(vec)
        vec = {p: v / vec[lead] for p, v in vec.items()}
        for other in pivots.values():
            c = other.pop(lead, 0)
            if c:
                for p, v in vec.items():
                    if p != lead:
                        other[p] = other.get(p, 0) - c * v
                for p in [p for p, v in other.items() if not v]:
                    del other[p]
        pivots[lead] = vec
    return pivots


class RrefIdeal:
    """Slices of the ideal generated by arbitrary homogeneous polynomials
    (monomials included), by the old route: monomial generators filter the
    columns by divisibility, and the clean multiples of the rest are reduced
    by Fraction Gauss-Jordan.  Columns are order-descending."""

    def __init__(self, generators, nvars, key):
        self.nvars = nvars
        self.key = key
        self.monos = [next(iter(g.terms)) for g in generators if len(g.terms) == 1]
        self.others = [dict(g.terms) for g in generators if len(g.terms) > 1]
        self._slices = {}
        self._clean = {}

    def clean(self, degree):
        if degree not in self._clean:
            self._clean[degree] = divisibility_clean_monomials(
                self.monos, self.nvars, degree
            )
        return self._clean[degree]

    def slice(self, degree):
        """(columns, {column: position}, {pivot position: reduced row}) of
        one degree."""
        if degree in self._slices:
            return self._slices[degree]
        columns = sorted(self.clean(degree), key=self.key, reverse=True)
        index = {m: i for i, m in enumerate(columns)}
        rows = []
        for g in self.others:
            gdeg = sum(next(iter(g)))
            if gdeg > degree:
                continue
            for factor in self.clean(degree - gdeg):
                row = {}
                for exps, c in g.items():
                    pos = index.get(tuple(a + b for a, b in zip(factor, exps)))
                    if pos is not None:
                        row[pos] = c
                rows.append(row)
        self._slices[degree] = columns, index, fraction_rref(rows)
        return self._slices[degree]

    def standard(self, degree):
        columns, _, reduced = self.slice(degree)
        return [m for i, m in enumerate(columns) if i not in reduced]

    def normal_form(self, terms) -> dict:
        """Normal form of a polynomial given as {exponents: coefficient}, as
        {standard monomial: Fraction}: each homogeneous part loses one
        multiple of every reduced row whose pivot it holds."""
        out = {}
        for m, c in terms.items():
            columns, index, reduced = self.slice(sum(m))
            if m not in index:
                continue
            row = reduced.get(index[m])
            if row is None:
                out[m] = out.get(m, 0) + Fraction(c)
                continue
            for p, v in row.items():
                if columns[p] != m:
                    out[columns[p]] = out.get(columns[p], 0) - c * v
        return {m: c for m, c in out.items() if c}


def oracle_slice(generators, nvars, key, degree):
    """(pivots, standard) of one degree slice of RrefIdeal, both lists
    order-descending."""
    columns, _, reduced = RrefIdeal(generators, nvars, key).slice(degree)
    pivots = [columns[p] for p in sorted(reduced)]
    standard = [m for i, m in enumerate(columns) if i not in reduced]
    return pivots, standard


def nf_lefschetz_report(alpha, beta, support=None) -> list:
    """The Lefschetz report by the old route: the normal form of L^e m for
    every standard monomial m of degree k, over RrefIdeal of the generator
    list, then the rank of those images by Fraction Gauss-Jordan.  L is the
    sum of the variables in `support` (by default those of the diagonal
    blocks), and L^e m is expanded one factor L at a time on plain dicts."""
    grid, gens = contingency_generators(alpha, beta)
    ideal = RrefIdeal(gens, grid.nvars, diagonal_key(grid))
    if support is None:
        support = [m.index(1) for m in lefschetz_element(alpha, beta).terms]
    dims = []
    while not dims or dims[-1]:
        dims.append(len(ideal.standard(len(dims))))
    top = len(dims) - 2
    out = []
    for k in range(top // 2 + 1):
        e = top - 2 * k
        _, index, _ = ideal.slice(top - k)
        images = []
        for mono in ideal.standard(k):
            terms = {mono: 1}
            for _ in range(e):
                product = {}
                for m, c in terms.items():
                    for v in support:
                        up = m[:v] + (m[v] + 1,) + m[v + 1:]
                        product[up] = product.get(up, 0) + c
                terms = product
            images.append({index[m]: c for m, c in ideal.normal_form(terms).items()})
        rank = len(fraction_rref(images))
        out.append(
            {
                "k": k,
                "power": e,
                "dim_source": dims[k],
                "dim_target": dims[top - k],
                "rank": rank,
                "injective": rank == dims[k],
            }
        )
    return out


def _horizontal_strips_below(shape, size):
    """Partitions mu inside `shape` with shape/mu a horizontal strip of `size`
    cells: mu_i lies between shape_{i+1} and shape_i."""
    rows = len(shape)

    def rec(i, remaining, prefix):
        if i == rows:
            if remaining == 0:
                yield tuple(p for p in prefix if p > 0)
            return
        lo = shape[i + 1] if i + 1 < rows else 0
        for mu_i in range(max(lo, shape[i] - remaining), shape[i] + 1):
            yield from rec(i + 1, remaining - (shape[i] - mu_i), prefix + (mu_i,))

    yield from rec(0, size, ())


@lru_cache(maxsize=None)
def _strip_kostka(shape, content):
    if not content:
        return 1 if not shape else 0
    return sum(
        _strip_kostka(mu, content[:-1])
        for mu in _horizontal_strips_below(shape, content[-1])
    )


def strip_kostka(shape, content) -> int:
    """K(shape, content) shape by shape: the cells of the largest letter in a
    semistandard tableau form a horizontal strip, so strip them off one letter
    at a time.  Unlike the Pieri columns in ctring.partitions, this removes
    strips from a fixed shape and takes the content in its given order."""
    shape, content = tuple(shape), tuple(content)
    if sum(shape) != sum(content):
        raise ValueError("shape size and content sum differ")
    return _strip_kostka(shape, content)


def per_shape_hilbert_kostka(alpha, beta) -> list:
    """The Kostka Hilbert series shape by shape: K(lam, alpha) * K(lam, beta)
    added into degree n - lam_1 for every partition lam of n, one strip-DP
    call per shape and margin."""
    n = sum(alpha)
    coeffs = [0] * (n + 1)
    for lam in partitions(n):
        coeffs[n - lam[0] if lam else 0] += strip_kostka(lam, alpha) * strip_kostka(lam, beta)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def classwise_tensor_multiplicities(sizes, mod_a, mod_b) -> dict:
    """Irreducible multiplicities of the tensor product of two modules over
    S_{m_1} x ... x S_{m_r}, class by class: the product of the two module
    characters, then one rational inner product per irreducible."""

    def character(irrep, class_tuple):
        value = 1
        for lam, rho in zip(irrep, class_tuple):
            value *= irreducible_character(lam, rho)
        return value

    labels = list(product(*[partitions(m) for m in sizes]))
    order = 1
    for m in sizes:
        order *= factorial(m)
    values = {}
    for class_tuple in labels:
        va = sum(c * character(irrep, class_tuple) for irrep, c in mod_a.items())
        vb = sum(c * character(irrep, class_tuple) for irrep, c in mod_b.items())
        size = 1
        for rho, m in zip(class_tuple, sizes):
            size *= cycle_type_size(rho, m)
        values[class_tuple] = size * va * vb
    out = {}
    for irrep in labels:
        mult = Fraction(
            sum(v * character(irrep, cls) for cls, v in values.items()), order
        )
        if mult.denominator != 1 or mult < 0:
            raise ArithmeticError("class function is not a character")
        if mult:
            out[irrep] = int(mult)
    return out


@lru_cache(maxsize=None)
def _s_to_h_table(n) -> dict:
    """Rows of the inverse Kostka transform for all partitions of n.

    The h-to-s matrix, with the Kostka columns K(-, mu) as the Schur
    expansions of h_mu, is unitriangular against lexicographic order, so back
    substitution inverts it exactly over the integers.
    """
    order = partitions(n)  # lexicographically descending
    table: dict = {}
    for lam in order:
        row = {lam: 1}
        expansion = kostka_column(lam)
        for nu, c in expansion.items():
            if nu == lam:
                continue
            # nu dominates lam, hence precedes it lexicographically: row known
            for mu, d in table[nu].items():
                row[mu] = row.get(mu, 0) - c * d
        table[lam] = MappingProxyType({mu: c for mu, c in row.items() if c})
    return table


def s_to_h_expansion(lam):
    """The h expansion of s_lam, as a read-only {mu: coefficient} mapping."""
    lam = check_partition(lam)
    return _s_to_h_table(sum(lam))[lam]


def _multiplicity_type(blocks) -> tuple:
    counts: dict = {}
    for b in blocks:
        counts[b] = counts.get(b, 0) + 1
    return tuple(sorted(counts.values(), reverse=True))


def _group_blocks(content, size, count, room) -> dict:
    """The multisets of `count` blocks of `size` letters each, drawn from the
    letter counts `content`, as {(remaining counts sorted descending, zeros
    dropped; multiplicity type): number of multisets}.

    The blocks that fit in `content` are listed once, in decreasing content
    order, and each block is drawn at or after the previous one's place in
    that list, keeping those that fit in what is left: this lists each
    multiset once.  A block starts no later than `reach`, the last letter
    such that the letters before it fit in `room`, the size of the later
    (smaller) groups: the later blocks of this group start no earlier, so
    only those groups can hold the letters it skips.  Once one block starts
    too late, every later one does.
    """
    listed = bounded_compositions(size, content)
    out: dict = {}

    def rec(remaining, blocks, start):
        if len(blocks) == count:
            left = tuple(sorted((r for r in remaining if r), reverse=True))
            key = (left, _multiplicity_type(blocks))
            out[key] = out.get(key, 0) + 1
            return
        reach = sum(1 for held in accumulate(remaining) if held <= room)
        for i in range(start, len(listed)):
            block = listed[i]
            if not any(block[: reach + 1]):
                break
            if all(map(le, block, remaining)):
                rec(tuple(map(sub, remaining, block)), blocks + [block], i)

    rec(content, [], 0)
    return out


@lru_cache(maxsize=None)
def _h_counts(content, groups):
    """{multiplicity types, one per group: number of multiset partitions} for
    the letter counts `content`, sorted descending, split into blocks whose
    sizes are given by `groups`, (size, count) pairs, largest size first.

    The count depends on the content only up to permuting letters, so every
    choice of blocks that leaves the same sorted counts shares one state.
    """
    if not groups:
        return MappingProxyType({(): 1})
    (size, count), rest = groups[0], groups[1:]
    room = sum(content) - size * count
    out: dict = {}
    for (left, mtype), ways in _group_blocks(content, size, count, room).items():
        for types, c in _h_counts(left, rest).items():
            key = (mtype,) + types
            out[key] = out.get(key, 0) + ways * c
    return MappingProxyType(out)


HImage = namedtuple("HImage", "degrees coeffs")


def invariants_frobenius_h(mu, lam) -> HImage:
    """Frobenius image, on the h basis, of the parabolic invariants of the
    permutation module with content lam, as a module over the group permuting
    equal parts of mu: the multiset partitions of lam counted by the
    multiplicity types of their equal-size blocks, keys in factor order.
    The image is the factor degrees and a read-only {key: coefficient}."""
    mu = check_partition(mu)
    lam = check_partition(lam)
    if sum(mu) != sum(lam):
        raise ValueError("partitions must have equal size")
    factors = stab_factor_data(mu)
    walk = sorted(factors, reverse=True)  # largest size first
    order = [walk.index(factor) for factor in factors]
    counts = _h_counts(lam, tuple((size, m) for size, m, _ in walk))
    return HImage(
        tuple(m for _, m, _ in factors),
        MappingProxyType({tuple(types[i] for i in order): c for types, c in counts.items()}),
    )


def h_to_s(h_coeffs) -> dict:
    """The Schur expansion {key: coefficient} of a sum of tensor products of
    h functions, {key: coefficient}: each factor h_mu expands as the sum of
    K(lam, mu) s_lam over its Kostka column (Macdonald, Symmetric Functions
    and Hall Polynomials, I (6.5)), and the factors' expansions multiply."""
    out: dict = {}
    for key, c in h_coeffs.items():
        combos = [((), c)]
        for mu in key:
            combos = [
                (combo + (lam,), value * k)
                for combo, value in combos
                for lam, k in kostka_column(mu).items()
            ]
        for combo, value in combos:
            out[combo] = out.get(combo, 0) + value
    return {key: c for key, c in out.items() if c}


def h_route_invariants_s(mu, lam) -> TensorSymFunc:
    """The Schur expansion of the parabolic invariants of the irreducible
    labeled lam, by the inverse Kostka table: s_lam on the h basis, each h_rho
    replaced by its h-basis invariants, the sum expanded by h_to_s."""
    coeffs: dict = {}
    for rho, c in s_to_h_expansion(lam).items():
        for key, value in invariants_frobenius_h(mu, rho).coeffs.items():
            coeffs[key] = coeffs.get(key, 0) + c * value
    return TensorSymFunc(invariants_frobenius_h(mu, lam).degrees, "s", h_to_s(coeffs))


def row_by_row_contingency_tables(alpha, beta) -> tuple:
    """All matrices with the given row and column sums, lexicographically
    descending as flat tuples, listing every row, the last one included, as
    a composition of its part under the column sums still open."""
    alpha, beta = margins(alpha, beta)
    tables = [((), beta)]
    for part in alpha:
        tables = [
            (rows + (row,), tuple(c - r for c, r in zip(left, row)))
            for rows, left in tables
            for row in bounded_compositions(part, left)
        ]
    return tuple(rows for rows, _ in tables)


def _clean_times(ideal, terms, form) -> dict:
    """Homogeneous terms {exponents: coefficient} times the linear form given
    as (variable, coefficient) pairs, kept on the clean monomials of the next
    degree, the terms that cancel dropped."""
    if not terms:
        return {}
    clean = set(ideal.clean_monomials(sum(next(iter(terms))) + 1))
    step = {}
    for exps, c in terms.items():
        for v, a in form:
            up = exps[:v] + (exps[v] + 1,) + exps[v + 1 :]
            if up in clean:
                step[up] = step.get(up, 0) + c * a
    return {m: c for m, c in step.items() if c}


def per_degree_slice(ideal, degree) -> DegreeBasis:
    """One degree slice of a HomogeneousIdeal with the order packed for the
    degree alone (order_weights), every key a dot product and each power's
    products multiplied out on exponent tuples (_clean_times): the library's
    rows, skip and row order, keyed anew per degree."""
    weights = order_weights(ideal.order, ideal.nvars, degree)

    def key(exps):
        return sum(map(mul, weights, exps))

    columns = tuple(sorted(ideal.clean_monomials(degree), key=key, reverse=True))
    position = {key(m): i for i, m in enumerate(columns)}
    rows = []
    for e, lines, leads in ideal._powers if columns else ():
        if e > degree:
            continue
        factors = [
            (key(q), sum(1 << v for v, a in enumerate(q) if a))
            for q in ideal.clean_monomials(degree - e)
        ]
        forms = [[(v, 1) for v in line] for line in lines]
        level = [((), {(0,) * ideal.nvars: 1})]
        for _ in range(e):
            level = [
                (picked + (i,), terms)
                for picked, partial in level
                for i in range(picked[-1] if picked else 0, len(lines))
                for terms in (_clean_times(ideal, partial, forms[i]),)
                if terms
            ]
        for picked, terms in level:
            skip = sum(set(leads[: picked[-1]]))
            offsets = [(key(exps), c) for exps, c in terms.items()]
            for base, support in factors:
                if support & skip:
                    continue
                row = {}
                for offset, c in offsets:
                    pos = position.get(base + offset)
                    if pos is not None:
                        row[pos] = c
                rows.append(row)
    return DegreeBasis(columns, weights, position, position_echelon(rows, len(columns)))


def per_degree_lefschetz_report(model) -> list:
    """lefschetz_report on per_degree_slice: the powers of the block form
    multiplied out on exponent tuples (_clean_times), and each image keyed in
    the packing of its target degree."""
    ideal, top = model.ideal, model.top_degree
    form = tuple(_block_form(lefschetz_element(model.alpha, model.beta), model.grid).items())
    powers = [{(0,) * ideal.nvars: 1}]
    for _ in range(top):
        powers.append(_clean_times(ideal, powers[-1], form))
    out = []
    for k in range(top // 2 + 1):
        e = top - 2 * k
        source = per_degree_slice(ideal, k).standard
        target = per_degree_slice(ideal, top - k)
        power = [(target.key(exps), c) for exps, c in powers[e].items()]
        images = []
        for mono in source:
            base = target.key(mono)
            image = {}
            for key, c in power:
                pos = target.position.get(base + key)
                if pos is not None:
                    image[pos] = c
            target.reduce(image)
            images.append(image)
        rank = len(position_echelon(images, len(target.standard)))
        out.append(
            {
                "k": k,
                "power": e,
                "dim_source": len(source),
                "dim_target": len(target.standard),
                "rank": rank,
                "injective": rank == len(source),
            }
        )
    return out

"""Quotients of a grid polynomial ring cut out by margin constraints.

For weak compositions alpha (rows) and beta (columns) of n, the defining
ideal I is generated by all row sums, all column sums, the monomials
supported on row i of degree alpha_i + 1, and the monomials supported on
column j of degree beta_j + 1 (contingency_generators lists them).

The quotient is built on the block of rows 2..k and columns 2..p.  Under the
diagonal order the lead of the column sum c_j is x_1j and the lead of the row
sum r_i is x_i1, so the line sums eliminate the first row and column: modulo
them x_1j = -C_j, x_i1 = -R_i and x_11 = T, where C_j and R_i are the block's
column and row sums and T is its total.  This substitution is the normal
form modulo the sums, a ring isomorphism from F[x]/(sums) onto F[block], and
it carries I onto the block ideal J generated by
  - the block's line caps: row i of degree at most alpha_i and column j at
    most beta_j, for i, j >= 2, whose clean monomials are the block's
    subtingency tables;
  - (C_2, ..., C_p)^(alpha_1 + 1), the image of the row-1 cap;
  - (R_2, ..., R_k)^(beta_1 + 1), the image of the column-1 cap.
Then in(I) = (first row, first column) + in(J).  Every substituted term is
smaller than the variable it replaces, so reducing f in I modulo the sums
leaves its leading term alone unless a lead of the sums divides it, and then
in(f) is the leading term of its image in J.  This holds over any field, as
each lead has coefficient 1.  So the standard monomials of I are those of J
with a zero first row and column; QuotientModel checks the leads this rests
on.  The standard monomial basis under the diagonal order is computed by
degree slices of J, and its exponent matrices are compared against the
derived matrices of the contingency tables with margins (alpha, beta).
"""

from functools import lru_cache
from math import perm
from operator import itemgetter

from .errors import CheckFailed
from .linalg import (
    HomogeneousIdeal,
    bounded_exponents,
    extreme_monomials,
    linear_form,
    position_echelon,
)
from .matrixball import derived_matrix
from .polys import Grid, Poly
from .tables import contingency_tables, count_contingency_tables, margins, zigzag_number


def _lines(grid: Grid):
    """The supports of the rows, then of the columns."""
    p, n = grid.p, grid.nvars  # row-major: row i starts at i * p
    rows = [tuple(range(i, i + p)) for i in range(0, n, p)]
    return rows, [tuple(range(j, n, p)) for j in range(p)]


def _generators(grid: Grid, sums, caps) -> list:
    """The sum of each line in `sums`, then for each (line, cap) in `caps`
    every monomial of degree cap + 1 on the line."""
    gens = [linear_form(grid.nvars, line) for line in sums]
    for line, cap in caps:
        for exps in bounded_exponents(len(line), cap + 1):
            full = [0] * grid.nvars
            for idx, e in zip(line, exps):
                full[idx] = e
            gens.append(Poly.monomial(tuple(full)))
    return gens


def contingency_generators(alpha, beta):
    """Generators of the margin ideal: row/column sums and the minimal
    violating monomials (degree alpha_i + 1 per row, beta_j + 1 per column)."""
    alpha, beta = margins(alpha, beta)
    grid = Grid(len(alpha), len(beta))
    rows, cols = _lines(grid)
    return grid, _generators(grid, rows + cols, [*zip(rows, alpha), *zip(cols, beta)])


def rowsum_ideal_generators(beta, k: int):
    """Row sums plus column monomials of degree beta_j + 1."""
    # beta is a margin against every k-part alpha, (n, 0, ..., 0) among them
    _, beta = margins((sum(beta),) + (0,) * (k - 1) if k > 0 else (), beta)
    grid = Grid(k, len(beta))
    rows, cols = _lines(grid)
    return grid, _generators(grid, rows, zip(cols, beta))


def colsum_ideal_generators(alpha, p: int):
    """Column sums plus row monomials of degree alpha_i + 1."""
    alpha, _ = margins(alpha, (sum(alpha),) + (0,) * (p - 1) if p > 0 else ())
    grid = Grid(len(alpha), p)
    rows, cols = _lines(grid)
    return grid, _generators(grid, cols, zip(rows, alpha))


@lru_cache(maxsize=256)
def _block(k, p) -> tuple:
    """(order, row supports, column supports, slots, lift) of the block of
    rows 2..k and columns 2..p of the k x p grid: slots[v] is the block
    variable of the grid variable v, row-major, or -1 on the first row and
    column; the order is the grid's diagonal order restricted to the block,
    and the supports those of the block's rows and columns, each empty when
    the block is.  lift(m + (0,)) is the grid monomial of the block monomial
    m, the slot -1 reading the 0 put last; on the 1 x 1 grid it slices, so
    that it still returns a tuple.  Raises CheckFailed unless the leads of
    the k + p line sums in degree 1 under the diagonal order are exactly the
    first row and column, as the substitution onto the block needs."""
    grid = Grid(k, p)
    order = grid.diagonal_order()
    rows, cols = _lines(grid)
    line_sums = [linear_form(grid.nvars, line) for line in rows + cols]
    leads = {exps.index(1) for exps in extreme_monomials(line_sums, order)}
    if leads != set(rows[0] + cols[0]):
        cells = ", ".join(str((v // p + 1, v % p + 1)) for v in sorted(leads))
        raise CheckFailed(
            f"the line sums lead at the cells {cells}, not the first row and column"
        )
    slots = tuple(
        (v // p - 1) * (p - 1) + v % p - 1 if v >= p and v % p else -1
        for v in range(grid.nvars)
    )
    restricted = (tuple(slots[v] for v in s if slots[v] >= 0) for s in order)
    return (
        tuple(filter(None, restricted)),
        tuple(tuple(slots[v] for v in row[1:]) for row in rows[1:]),
        tuple(tuple(slots[v] for v in col[1:]) for col in cols[1:]),
        slots,
        itemgetter(*slots) if slots[1:] else itemgetter(slice(-1, None)),
    )


class QuotientModel:
    """Standard monomial data of one margin quotient.

    The slices are those of the block ideal J (see the module docstring),
    `ideal`, on the variables of rows 2..k and columns 2..p, row-major, under
    the diagonal order restricted to them.  A standard monomial of J lifts
    with a zero first row and column into `standard`.  The model checks that
    the degree-1 leads of the line sums are exactly the first row and column
    under the grid's diagonal order, and raises CheckFailed if not.

    Slices are computed until the accumulated standard monomial count reaches
    the contingency table count (the quotient dimension), with a hard degree
    cap of n.  Failing to converge would mean the quotient dimension differs
    from the table count, which never happens; it raises CheckFailed rather
    than guessing.  Margins that break the rule of tables.margins are a
    ValueError.
    """

    def __init__(self, alpha, beta):
        self.alpha, self.beta = margins(alpha, beta)
        k, p = len(self.alpha), len(self.beta)
        self.n = sum(self.alpha)
        self.grid = Grid(k, p)
        order, rows, cols, _, lift = _block(k, p)
        self.ideal = HomogeneousIdeal(
            (k - 1) * (p - 1),
            order,
            [(cols, self.alpha[0] + 1), (rows, self.beta[0] + 1)],
            zip(rows + cols, self.alpha[1:] + self.beta[1:]),
        )
        self.size = count_contingency_tables(self.alpha, self.beta)
        hilbert = []
        standard = []
        for degree in range(self.n + 1):
            std = self.ideal.standard_monomials(degree)
            hilbert.append(len(std))
            standard.extend(lift(m + (0,)) for m in std)
            if len(standard) >= self.size:
                break
        if len(standard) != self.size:
            raise CheckFailed(
                f"{len(standard)} standard monomials by degree {degree} "
                f"against the table count {self.size}"
            )
        self.hilbert = tuple(hilbert)
        self.standard = tuple(standard)

    @property
    def top_degree(self) -> int:
        return len(self.hilbert) - 1

    @property
    def min_zigzag(self) -> int:
        return self.n - self.top_degree

    def standard_exponent_matrices(self) -> frozenset:
        return frozenset(self.grid.matrix(m) for m in self.standard)


def hilbert_series_linear(alpha, beta) -> list:
    return list(QuotientModel(alpha, beta).hilbert)


def hilbert_series_zigzag(alpha, beta) -> list:
    """Hilbert series read off the zigzag statistic over contingency tables:
    the degree of a table is n minus its zigzag number, counted into a list
    as long as the top degree.  contingency_tables checks the margins first,
    and the quotient is generated in degree 1, so no degree up to the top is
    empty and the list is no longer than the table count."""
    tables = contingency_tables(alpha, beta)
    n = sum(alpha)
    degrees = [n - zigzag_number(t) for t in tables]
    counts = [0] * (max(degrees) + 1)
    for d in degrees:
        counts[d] += 1
    return counts


def derived_matrix_set(alpha, beta) -> frozenset:
    return frozenset(derived_matrix(t) for t in contingency_tables(alpha, beta))


def lefschetz_element(alpha, beta) -> Poly:
    """Sum of the variables whose block meets the main diagonal.

    Partition the n x n square into row blocks of sizes alpha and column
    blocks of sizes beta; variable (i, j) of the len(alpha) x len(beta) grid
    contributes when the (i, j) block contains a diagonal cell.  Margins that
    break the rule of tables.margins are a ValueError.
    """
    alpha, beta = margins(alpha, beta)
    p = len(beta)
    support = []
    rstart = 0
    for i, a in enumerate(alpha):
        cstart = 0
        for j, b in enumerate(beta):
            if max(rstart, cstart) < min(rstart + a, cstart + b):
                support.append(i * p + j)  # row-major, as Grid.index
            cstart += b
        rstart += a
    return linear_form(len(alpha) * p, support)


def _block_form(lin: Poly, grid: Grid) -> dict:
    """A linear form on the grid through the substitution onto the block, as
    {block variable: coefficient}: x_11 -> T, x_1j -> -C_j, x_i1 -> -R_i,
    and each block variable to itself."""
    _, rows, cols, slots, _ = _block(grid.k, grid.p)
    out = {}
    for exps, c in lin.terms.items():
        v = exps.index(1)
        i, j = divmod(v, grid.p)
        if slots[v] >= 0:
            image = [(slots[v], c)]
        elif i:
            image = [(b, -c) for b in rows[i - 1]]
        elif j:
            image = [(b, -c) for b in cols[j - 1]]
        else:
            image = [(b, c) for b in slots if b >= 0]
        for b, value in image:
            out[b] = out.get(b, 0) + value
    return {b: c for b, c in out.items() if c}


def lefschetz_report(model: QuotientModel) -> list:
    """Rank data of multiplication by powers of the diagonal-block linear form.

    With m the minimum zigzag number and top = n - m, the map multiplies
    degree k into degree top - k by the (top - 2k)-th power; k runs while the
    exponent stays nonnegative.  Rank deficiencies are reported, not raised.

    The form L is first mapped through the substitution onto the block
    (x_11 -> T, x_1j -> -C_j, x_i1 -> -R_i), which carries the quotient by
    the margin ideal isomorphically onto the quotient by the block ideal, so
    the ranks are those of the block form on the block slices.  Its powers
    L^1..L^top are multiplied out once, a factor at a time, onto their clean
    terms (HomogeneousIdeal.times), keyed in the ideal's packed order: a
    term off the clean monomials lies in the ideal with all its multiples.
    The block ideal is capped on every variable, so its order is packed
    once, and the slices share its keys.  Each image L^e m of a standard
    monomial m, restricted to the clean monomials of the target degree, is
    reduced against the target slice's rows onto its standard monomials
    (DegreeBasis.reduce: the normal form up to a scale), and the rank of the
    map is the rank of those reduced images.  They live on the target's
    standard columns, so their elimination stops once it holds that many
    pivots.  The map of power 0, k = top / 2 when top is even, is L^0 = 1,
    the identity of R_k: its rank is dim R_k, with no image, reduction or
    elimination.  A model of top degree 0 has that one map, so it builds no
    form.
    """
    ideal = model.ideal
    top = model.top_degree
    powers = [{0: 1}]  # key(1) = 0
    if top:
        form = tuple(
            _block_form(lefschetz_element(model.alpha, model.beta), model.grid).items()
        )
        for degree in range(top):
            powers.append(ideal.times(powers[-1], degree, form))
    out = []
    for k in range(0, top // 2 + 1):
        e = top - 2 * k
        source = ideal.standard_monomials(k)
        rank = dim_target = len(source)  # L^0 = 1, the identity of R_k
        if e:
            target = ideal.slice(top - k)
            # the packed key is linear, key(mono * term) = key(mono) + key(term),
            # and injective up to the ideal's packing degree
            power = powers[e].items()
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
            dim_target = len(target.standard)
            rank = len(position_echelon(images, dim_target))
        out.append(
            {
                "k": k,
                "power": e,
                "dim_source": len(source),
                "dim_target": dim_target,
                "rank": rank,
                "injective": rank == len(source),
            }
        )
    return out


@lru_cache(maxsize=None)
def _lifts(length, cap) -> tuple:
    """The exponents of the monomial lifts on a line of the length with the
    cap: every monomial of degree cap + 1 on it."""
    return tuple(bounded_exponents(length, cap + 1))


@lru_cache(maxsize=1024)
def _line_verdict(line, cap) -> bool:
    """Whether the line sums to its cap and every monomial lift on it
    vanishes at it."""
    # the falling factorial perm(x, e) is 0 when e > x >= 0
    lifted = any(all(map(perm, line, exps)) for exps in _lifts(len(line), cap))
    return sum(line) == cap and not lifted


def verify_associated_graded(alpha, beta, model: QuotientModel) -> dict:
    """Check the witnesses placing each generator in the graded vanishing ideal
    of the contingency-table locus, and the dimension count.

    Each line (row i or column j) has its sum lift to (sum - margin); a
    monomial on the line of degree margin + 1 lifts to the product of falling
    factorials of its exponents, which vanishes on every table because the
    line cannot supply enough weight.  Both are facts about one line and its
    cap, so the verdict on each distinct (line, cap) pair is memoized across
    calls.  A model of other margins raises ValueError.
    """
    alpha = tuple(alpha)
    beta = tuple(beta)
    if (alpha, beta) != (model.alpha, model.beta):
        raise ValueError("the model's margins are not (alpha, beta)")
    tables = contingency_tables(alpha, beta)
    caps = alpha + beta
    # lines repeat heavily across tables: check each distinct (line, cap) once
    lines = {
        pair for table in tables for pair in zip(table + tuple(zip(*table)), caps)
    }
    dim = sum(model.hilbert)
    return {
        "lifts_vanish": all(_line_verdict(line, cap) for line, cap in lines),
        "dimension_match": dim == len(tables),
        "dimension": dim,
        "tables": len(tables),
    }

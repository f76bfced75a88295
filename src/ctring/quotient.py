"""Quotients of a grid polynomial ring cut out by margin constraints.

For weak compositions alpha (rows) and beta (columns) of n, the defining
ideal is generated by all row sums, all column sums, the monomials supported
on row i of degree alpha_i + 1, and the monomials supported on column j of
degree beta_j + 1.  The slices state those monomials as line caps (row i of
degree at most alpha_i, column j at most beta_j; see margin_ideal), so their
columns are the subtingency tables.  The standard monomial basis under the
diagonal order is computed by degree slices; the exponent matrices are
compared against the derived matrices of the contingency tables with margins
(alpha, beta).
"""

from math import perm

from .errors import CheckFailed
from .linalg import (
    HomogeneousIdeal,
    bounded_exponents,
    linear_form,
    position_echelon,
)
from .matrixball import derived_matrix
from .polys import Grid, Poly
from .tables import contingency_tables, count_contingency_tables, zigzag_number


def row_support(grid: Grid, i: int) -> tuple:
    """Variable indices of row i (1-based)."""
    return tuple(grid.index(i, j) for j in range(1, grid.p + 1))


def col_support(grid: Grid, j: int) -> tuple:
    """Variable indices of column j (1-based)."""
    return tuple(grid.index(i, j) for i in range(1, grid.k + 1))


def _lines(grid: Grid):
    """The supports of the rows, then of the columns."""
    rows = [row_support(grid, i) for i in range(1, grid.k + 1)]
    return rows, [col_support(grid, j) for j in range(1, grid.p + 1)]


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


def margin_ideal(alpha, beta, grid: Grid, order) -> HomogeneousIdeal:
    """The margin ideal as line sums and line caps: every row and column sum,
    row i capped at alpha_i and column j at beta_j.  Its clean monomials are
    the subtingency tables.  Same ideal as contingency_generators presents."""
    rows, cols = _lines(grid)
    return HomogeneousIdeal(
        grid.nvars, order, rows + cols, zip(rows + cols, tuple(alpha) + tuple(beta))
    )


def contingency_generators(alpha, beta, grid: Grid | None = None):
    """Generators of the margin ideal: row/column sums and the minimal
    violating monomials (degree alpha_i + 1 per row, beta_j + 1 per column)."""
    alpha = tuple(alpha)
    beta = tuple(beta)
    if sum(alpha) != sum(beta):
        raise ValueError("row and column sums must agree")
    grid = grid or Grid(len(alpha), len(beta))
    rows, cols = _lines(grid)
    return grid, _generators(grid, rows + cols, [*zip(rows, alpha), *zip(cols, beta)])


def rowsum_ideal_generators(beta, k: int, grid: Grid | None = None):
    """Row sums plus column monomials of degree beta_j + 1."""
    beta = tuple(beta)
    grid = grid or Grid(k, len(beta))
    rows, cols = _lines(grid)
    return grid, _generators(grid, rows, zip(cols, beta, strict=True))


def colsum_ideal_generators(alpha, p: int, grid: Grid | None = None):
    """Column sums plus row monomials of degree alpha_i + 1."""
    alpha = tuple(alpha)
    grid = grid or Grid(len(alpha), p)
    rows, cols = _lines(grid)
    return grid, _generators(grid, cols, zip(rows, alpha, strict=True))


class QuotientModel:
    """Standard monomial data of one margin quotient.

    Slices are computed until the accumulated standard monomial count reaches
    the contingency table count (the quotient dimension), with a hard degree
    cap of n.  Failing to converge would mean the quotient dimension differs
    from the table count, which never happens; it raises CheckFailed rather
    than guessing.
    """

    def __init__(self, alpha, beta):
        self.alpha = tuple(alpha)
        self.beta = tuple(beta)
        if sum(self.alpha) != sum(self.beta):
            raise ValueError("row and column sums must agree")
        self.n = sum(self.alpha)
        self.grid = Grid(len(self.alpha), len(self.beta))
        self.ideal = margin_ideal(
            self.alpha, self.beta, self.grid, self.grid.diagonal_order()
        )
        self.size = count_contingency_tables(self.alpha, self.beta)
        hilbert = []
        standard = []
        for degree in range(self.n + 1):
            std = self.ideal.standard_monomials(degree)
            hilbert.append(len(std))
            standard.extend(std)
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
    """Hilbert series read off the zigzag statistic over contingency tables."""
    alpha = tuple(alpha)
    beta = tuple(beta)
    n = sum(alpha)
    counts: dict = {}
    for table in contingency_tables(alpha, beta):
        d = n - zigzag_number(table)
        counts[d] = counts.get(d, 0) + 1
    top = max(counts, default=0)
    return [counts.get(d, 0) for d in range(top + 1)]


def derived_matrix_set(alpha, beta) -> frozenset:
    return frozenset(derived_matrix(t) for t in contingency_tables(alpha, beta))


def lefschetz_element(alpha, beta, grid: Grid) -> Poly:
    """Sum of the variables whose block meets the main diagonal.

    Partition the n x n square into row blocks of sizes alpha and column
    blocks of sizes beta; variable (i, j) contributes when the (i, j) block
    contains a diagonal cell.
    """
    support = []
    rstart = 0
    for i, a in enumerate(alpha, start=1):
        cstart = 0
        for j, b in enumerate(beta, start=1):
            if max(rstart, cstart) < min(rstart + a, cstart + b):
                support.append(grid.index(i, j))
            cstart += b
        rstart += a
    return linear_form(grid.nvars, support)


def lefschetz_report(model: QuotientModel) -> list:
    """Rank data of multiplication by powers of the diagonal-block linear form.

    With m the minimum zigzag number and top = n - m, the map multiplies
    degree k into degree top - k by the (top - 2k)-th power; k runs while the
    exponent stays nonnegative.  Rank deficiencies are reported, not raised.

    The rank is read off the target slice without normal forms: the images
    L^e m of the standard monomials m, restricted to the clean monomials of
    the target degree, raise the rank of the slice rows by exactly the rank
    of the map on the quotient.
    """
    lef = lefschetz_element(model.alpha, model.beta, model.grid)
    top = model.top_degree
    powers = {0: Poly(model.grid.nvars, {(0,) * model.grid.nvars: 1})}
    for e in range(1, top + 1):
        powers[e] = powers[e - 1] * lef
    out = []
    for k in range(0, top // 2 + 1):
        e = top - 2 * k
        source = model.ideal.standard_monomials(k)
        target = model.ideal.slice(top - k)
        # the packed key is linear: key(mono * term) = key(mono) + key(term)
        terms = [(target.key(exps), c) for exps, c in powers[e].terms.items()]
        images = []
        for mono in source:
            base = target.key(mono)
            image = {}
            for key, c in terms:
                pos = target.position.get(base + key)
                if pos is not None:
                    image[pos] = c
            images.append(image)
        rank = len(position_echelon(images, dict(target.rows))) - len(target.rows)
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


def verify_associated_graded(alpha, beta, model: QuotientModel) -> dict:
    """Check the witnesses placing each generator in the graded vanishing ideal
    of the contingency-table locus, and the dimension count.

    Each line (row i or column j) has its sum lift to (sum - margin); a
    monomial on the line of degree margin + 1 lifts to the product of falling
    factorials of its exponents, which vanishes on every table because the
    line cannot supply enough weight.  A model of other margins raises
    ValueError.
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
    lifts_vanish = True
    lifts = {}  # (line length, cap) -> exponents of the monomial lifts
    for line, cap in lines:
        if sum(line) != cap:
            lifts_vanish = False
        key = (len(line), cap)
        if key not in lifts:
            lifts[key] = bounded_exponents(len(line), cap + 1)
        # the falling factorial perm(x, e) is 0 when e > x >= 0
        if any(all(map(perm, line, exps)) for exps in lifts[key]):
            lifts_vanish = False
    dim = sum(model.hilbert)
    return {
        "lifts_vanish": lifts_vanish,
        "dimension_match": dim == len(tables),
        "dimension": dim,
        "tables": len(tables),
    }

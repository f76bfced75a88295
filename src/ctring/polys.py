"""Exact multivariate polynomials, term orders packed into integer weights, and
the operator kit.

A Poly stores a map from exponent tuples (one slot per variable, row-major
for grid variables) to exact coefficients: an int stays an int, so integer
polynomials and their products never leave the integers, and any other
coefficient (a float included) is converted to a Fraction.  Row and column
indices in the grid API are 1-based.
"""

from fractions import Fraction
from functools import lru_cache

from .tables import dimensions, is_zigzag_matrix, row_sums


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        for exps, coeff in (terms or {}).items():
            if type(coeff) is not int:
                coeff = Fraction(coeff)
            if coeff:
                if len(exps) != nvars:
                    raise ValueError("exponent length mismatch")
                clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def monomial(cls, exps):
        return cls(len(exps), {tuple(exps): 1})

    @classmethod
    def variable(cls, nvars, index, power=1):
        exps = [0] * nvars
        exps[index] = power
        return cls(nvars, {tuple(exps): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            val = out.get(exps, 0) + coeff
            if val:
                out[exps] = val
            else:
                out.pop(exps, None)
        return Poly(self.nvars, out)

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                val = out.get(key, 0) + c1 * c2
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def degree(self):
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def homogeneous_parts(self):
        parts = {}
        for exps, coeff in self.terms.items():
            parts.setdefault(sum(exps), {})[exps] = coeff
        return {d: Poly(self.nvars, t) for d, t in sorted(parts.items())}

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            mono = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps) if e
            )
            bits.append(f"{c}" if not mono else f"{c}*{mono}")
        return "Poly(" + " + ".join(bits) + ")"


class Grid:
    """A k x p matrix of variables, flattened row-major."""

    def __init__(self, k, p):
        if k <= 0 or p <= 0:
            raise ValueError("grid dimensions must be positive")
        self.k = k
        self.p = p
        self.nvars = k * p

    def index(self, i, j):
        if not (1 <= i <= self.k and 1 <= j <= self.p):
            raise ValueError(f"cell ({i},{j}) outside {self.k}x{self.p} grid")
        return (i - 1) * self.p + (j - 1)

    def variable(self, i, j, power=1):
        return Poly.variable(self.nvars, self.index(i, j), power)

    def exponents(self, matrix):
        k, p = dimensions(matrix)
        if (k, p) != (self.k, self.p):
            raise ValueError("matrix dimensions do not match grid")
        return tuple(v for row in matrix for v in row)

    def matrix(self, exps):
        p = self.p
        return tuple(tuple(exps[i * p : (i + 1) * p]) for i in range(self.k))

    def monomial(self, matrix):
        return Poly(self.nvars, {self.exponents(matrix): 1})

    def ddeg(self, exps):
        """Antidiagonal degree vector: slot q-1 sums cells with i+j-1 = q."""
        out = [0] * (self.k + self.p - 1)
        p = self.p
        for i in range(self.k):
            for j in range(p):
                out[i + j] += exps[i * p + j]
        return tuple(out)

    def diagonal_order(self, tiebreak="row"):
        """The diagonal term order as supports, most significant first (see
        order_weights): the k + p - 1 antidiagonals by i + j ascending, so
        that ddeg vectors are compared first, lexicographically, then every
        variable as a singleton, ranked by (i+j, i) ascending
        (tiebreak="row"; tiebreak="column" ranks by (i+j, j) instead).

        Comparing ddeg first, rather than ranking variables alone, is what
        makes the order respect every strict ddeg comparison regardless of
        total degree.  On the variables of one row or one column it is plain
        lex, whichever tiebreak is chosen.
        """
        if tiebreak not in ("row", "column"):
            raise ValueError("tiebreak must be 'row' or 'column'")
        p = self.p
        antidiagonals = [[] for _ in range(self.k + p - 1)]
        for v in range(self.nvars):
            antidiagonals[v // p + v % p].append(v)
        second = (lambda v: v // p) if tiebreak == "row" else (lambda v: v % p)
        ranked = sorted(range(self.nvars), key=lambda v: (v // p + v % p, second(v)))
        return tuple(map(tuple, antidiagonals)) + tuple((v,) for v in ranked)


@lru_cache(maxsize=256)
def order_weights(order, nvars, degree) -> tuple:
    """A term order packed into one integer weight per variable, exact on the
    monomials of total degree at most `degree`.

    `order` is a tuple of supports (tuples of variable indices), most
    significant first, as Grid.diagonal_order returns: monomials compare by
    their degree on each support in turn.  None is plain lex, one singleton
    per variable, x0 first.  On such a monomial every support degree is a
    digit below base = degree + 1, so with w[v] the sum of base**r over the
    supports holding v, r counted from the last support, the key w . exps
    ranks monomials exactly as the order does.  The key is linear:
    key(f * x_v) = key(f) + w[v].  Raises ValueError on a variable index
    outside range(nvars), or when some variable has no singleton support,
    as the order is then not total.
    """
    if order is None:
        order = tuple((v,) for v in range(nvars))
    singletons = set()
    for support in order:
        if not all(0 <= v < nvars for v in support):
            raise ValueError(f"bad support {support} in term order")
        if len(set(support)) == 1:
            singletons.add(support[0])
    if len(singletons) < nvars:
        raise ValueError("term order is not total: a variable has no singleton support")
    base = degree + 1
    weights = [0] * nvars
    for support in order:
        weights = [w * base for w in weights]
        for v in set(support):
            weights[v] += 1
    return tuple(weights)


def diff_pairing(f: Poly, g: Poly) -> Poly:
    """Apply f as a constant-coefficient differential operator to g."""
    if f.nvars != g.nvars:
        raise ValueError("variable count mismatch")
    out = {}
    for fe, fc in f.terms.items():
        for ge, gc in g.terms.items():
            coeff = fc * gc
            key = []
            for a, b in zip(fe, ge):
                if b < a:
                    coeff = 0
                    break
                for t in range(a):
                    coeff *= b - t
                key.append(b - a)
            if coeff:
                key = tuple(key)
                val = out.get(key, 0) + coeff
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
    return Poly(f.nvars, out)


def _polarize(f: Poly, nvars: int, pairs) -> Poly:
    """Sum over (src, dst) variable pairs of x_dst d/dx_src."""
    terms = {}
    for src, dst in pairs:
        for exps, coeff in f.terms.items():
            if exps[src]:
                new = list(exps)
                new[src] -= 1
                new[dst] += 1
                key = tuple(new)
                terms[key] = terms.get(key, 0) + coeff * exps[src]
    return Poly(nvars, terms)  # drops the terms that cancelled


def polarize_row(f: Poly, grid: Grid, source: int, dest: int) -> Poly:
    """Row polarization: sum over columns of x_{dest,j} d/dx_{source,j}."""
    pairs = [(grid.index(source, j), grid.index(dest, j)) for j in range(1, grid.p + 1)]
    return _polarize(f, grid.nvars, pairs)


def polarize_col(f: Poly, grid: Grid, source: int, dest: int) -> Poly:
    """Column polarization: sum over rows of x_{i,dest} d/dx_{i,source}."""
    pairs = [(grid.index(i, source), grid.index(i, dest)) for i in range(1, grid.k + 1)]
    return _polarize(f, grid.nvars, pairs)


def shift_row(matrix, source: int, dest: int, amount: int) -> tuple:
    """Move `amount` units from row `source` to row `dest` within columns,
    taking the lexicographically maximal column distribution."""
    k, p = dimensions(matrix)
    if not (1 <= source <= k and 1 <= dest <= k):
        raise ValueError("row index out of range")
    cap = row_sums(matrix)[source - 1]
    if not (0 <= amount <= cap):
        raise ValueError(f"amount must lie in [0, {cap}]")
    rows = [list(row) for row in matrix]
    left = amount
    for j in range(p):
        move = min(left, rows[source - 1][j])
        rows[source - 1][j] -= move
        rows[dest - 1][j] += move
        left -= move
    return tuple(tuple(row) for row in rows)


def split_left(vector, step: int, amount: int) -> tuple:
    """Shift `amount` units of a vector `step` slots leftward, greedily from
    the left.  Requires the first `step` entries (at least) to be zero."""
    vector = tuple(vector)
    lead = 0
    while lead < len(vector) and vector[lead] == 0:
        lead += 1
    if step < 1 or step > lead:
        raise ValueError("step exceeds the run of leading zeros")
    if not (0 <= amount <= sum(vector)):
        raise ValueError("amount out of range")
    out = list(vector)
    left = amount
    for j in range(len(vector)):
        move = min(left, out[j])
        if move and j - step < 0:
            raise ValueError("shift would fall off the left edge")
        out[j] -= move
        out[j - step] += move
        left -= move
    return tuple(out)


def merge_row(matrix) -> tuple:
    """Add the first nonzero row of a zigzag matrix to the next nonzero row."""
    if not is_zigzag_matrix(matrix):
        raise ValueError("matrix support is not a zigzag")
    nonzero = [i for i, row in enumerate(matrix) if any(row)]
    if len(nonzero) < 2:
        raise ValueError("need at least two nonzero rows")
    first, second = nonzero[0], nonzero[1]
    rows = [list(row) for row in matrix]
    rows[second] = [a + b for a, b in zip(rows[first], rows[second])]
    rows[first] = [0] * len(rows[first])
    return tuple(tuple(row) for row in rows)

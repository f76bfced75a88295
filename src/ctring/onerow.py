"""Quotients of a polynomial ring in one row of variables x_1..x_n by pure
powers x_i^{bound_i + 1} together with the variable sum.

The vector `bounds` = (d_1, ..., d_n) caps the exponent of each variable;
a negative bound raises ValueError.  The associated combinatorics: two-row
rectangular semistandard tableaux using at most d_i copies of i, a
truncated-product Hilbert series, and a saturation procedure pairing off
weak compositions.  Each bound's tableaux and Hilbert formula are listed
once, in module-level memos that dimension_counts reads too; the memos hold
read-only tuples, and the public functions hand out fresh lists.  A caller
asks for one bounds vector's counts, tableaux and formula back to back, so
the memos keep only the last few vectors.
"""

from functools import lru_cache

from .errors import CheckFailed
from .linalg import HomogeneousIdeal, linear_form
from .polys import Poly


def _checked(bounds) -> tuple:
    """The bounds as a tuple; a negative bound raises ValueError."""
    bounds = tuple(bounds)
    for d in bounds:
        if d < 0:
            raise ValueError(f"bad bound {d}: a bound must be nonnegative")
    return bounds


def one_row_generators(bounds) -> list:
    """Pure powers x_i^{d_i+1} plus the variable sum, duplicates collapsed."""
    bounds = _checked(bounds)
    n = len(bounds)
    gens = []
    for i, d in enumerate(bounds):
        g = Poly.variable(n, i, power=d + 1)
        if g not in gens:
            gens.append(g)
    lin = linear_form(n, range(n))
    if lin not in gens:
        gens.append(lin)
    return gens


def one_row_ideal(bounds) -> HomogeneousIdeal:
    """The quotient's ideal on x_2..x_n (as variables 0..n-2), plain lex.

    Under lex the lead of the variable sum is x_1, so the sum eliminates it:
    x_1 = -(x_2 + ... + x_n) carries the quotient isomorphically onto the one
    by this ideal, of x_i capped at d_i for i >= 2 and the power
    (x_2 + ... + x_n)^(d_1 + 1), the image of x_1^(d_1 + 1).  Its standard
    monomials are the quotient's, less the exponent 0 of x_1."""
    bounds = _checked(bounds)
    if not bounds:
        return HomogeneousIdeal(0, None)
    rest = tuple(range(len(bounds) - 1))
    return HomogeneousIdeal(
        len(rest),
        None,
        [((rest,), bounds[0] + 1)],
        [((i,), d) for i, d in zip(rest, bounds[1:])],
    )


def _qpoly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def one_row_hilbert(bounds) -> list:
    """Hilbert series of the quotient: (1-q) * prod(1 + q + ... + q^{d_i}),
    truncated to degrees <= (sum of bounds)/2.  Trailing zeros stripped."""
    return list(_hilbert(_checked(bounds)))


@lru_cache(maxsize=4)
def _hilbert(bounds) -> tuple:
    """The series of one_row_hilbert, as a tuple, of checked bounds."""
    prod = [1]
    for d in bounds:
        prod = _qpoly_mul(prod, [1] * (d + 1))
    prod = _qpoly_mul(prod, [1, -1])
    half = sum(bounds) // 2
    coeffs = prod[: half + 1]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if any(c < 0 for c in coeffs):
        raise CheckFailed("truncated Hilbert series must be nonnegative")
    return tuple(coeffs)


def two_row_tableaux(bounds) -> list:
    """All two-row rectangular SSYT with at most d_i copies of each letter i,
    as (top_row, bottom_row) pairs, including the empty tableau."""
    return list(_tableaux(_checked(bounds)))


@lru_cache(maxsize=4)
def _tableaux(bounds) -> tuple:
    """Depth first: each tableau is followed by its extensions by one column
    (a over b), a ascending and then b ascending, a weakly after the last
    top letter, b after a and weakly after the last bottom letter, each
    letter taken only while its room (its bound less its uses) lasts.  The
    last letter has no b after it, so a stops before it."""
    n = len(bounds)
    room = [0, *bounds]  # by letter, 1..n
    half = sum(bounds) // 2
    out = [((), ())]

    def extend(top, bottom, a_lo, b_lo, depth):
        for a in range(a_lo, n):
            if not room[a]:
                continue
            room[a] -= 1
            up = top + (a,)
            for b in range(max(a + 1, b_lo), n + 1):
                if room[b]:
                    down = bottom + (b,)
                    out.append((up, down))
                    if depth < half:  # at half, no two letters have room
                        room[b] -= 1
                        extend(up, down, a, b, depth + 1)
                        room[b] += 1
            room[a] += 1

    extend((), (), 1, 1, 1)
    return tuple(out)


def column_product(tableau, n) -> Poly:
    """Product over columns (a below b) of (x_a - x_b)."""
    top, bottom = tableau
    out = Poly(n, {(0,) * n: 1})
    for a, b in zip(top, bottom):
        out = out * (Poly.variable(n, a - 1) - Poly.variable(n, b - 1))
    return out


def run_saturation(bounds, beta):
    """The dotting procedure: distribute beta_i dots rightward onto unsaturated
    entries, nearest first, scanning positions right to left.

    Returns (dots, unsatisfied) where dots[i] counts dots over position i and
    unsatisfied flags positions whose quota could not be fully placed.
    An entry is saturated when dots + value reaches its bound.
    """
    bounds = tuple(bounds)
    beta = tuple(beta)
    n = len(bounds)
    if len(beta) != n or any(b < 0 for b in beta) or any(
        b > d for b, d in zip(beta, bounds)
    ):
        raise ValueError("composition must fit under the bounds")
    dots = [0] * n
    unsatisfied = [False] * n
    for i in range(n - 1, -1, -1):
        left = beta[i]
        for j in range(i + 1, n):
            if left == 0:
                break
            room = bounds[j] - beta[j] - dots[j]
            if room > 0:
                placed = min(room, left)
                dots[j] += placed
                left -= placed
        if left:
            unsatisfied[i] = True
    return tuple(dots), tuple(unsatisfied)


def saturation_successor(bounds, beta) -> tuple:
    """Increment the rightmost unsaturated entry after dotting.

    Injects compositions of weight m-1 into those of weight m whenever
    m <= sum(bounds)/2; the image is exactly the compositions left with an
    unsatisfied entry.
    """
    bounds = tuple(bounds)
    beta = tuple(beta)
    if 2 * (sum(beta) + 1) > sum(bounds):
        raise ValueError("target weight exceeds half the total bound")
    dots, _ = run_saturation(bounds, beta)
    for i in range(len(bounds) - 1, -1, -1):
        if dots[i] + beta[i] < bounds[i]:
            return beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
    raise CheckFailed("no unsaturated entry below half the total bound")


def tableau_from_first_row(bounds, beta):
    """Rebuild the tableau whose top row has content beta: the dots give the
    bottom row.  Returns None when some entry is unsatisfied."""
    dots, unsatisfied = run_saturation(bounds, beta)
    if any(unsatisfied):
        return None
    top = tuple(i + 1 for i, c in enumerate(beta) for _ in range(c))
    bottom = tuple(j + 1 for j, c in enumerate(dots) for _ in range(c))
    return (top, bottom)


def dimension_counts(bounds):
    """(quotient dimension, #distinct top rows, #distinct bottom rows)."""
    bounds = _checked(bounds)
    tableaux = _tableaux(bounds)
    tops = {t for t, _ in tableaux}
    bottoms = {b for _, b in tableaux}
    return sum(_hilbert(bounds)), len(tops), len(bottoms)


def one_row_standard_monomials(bounds):
    """Standard monomial exponents of the quotient under plain lex, by degree:
    those of one_row_ideal with x_1 = 0 put in front."""
    ideal = one_row_ideal(bounds)
    x1 = (0,) if bounds else ()
    out = {}
    for degree in range(sum(bounds) + 2):
        std = ideal.standard_monomials(degree)
        if not std:
            return out
        out[degree] = tuple(x1 + m for m in std)
    raise CheckFailed("quotient failed to terminate")

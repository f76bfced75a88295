"""Quotients of a polynomial ring in one row of variables x_1..x_n by pure
powers x_i^{bound_i + 1} together with the variable sum.

The vector `bounds` = (d_1, ..., d_n) caps the exponent of each variable.
The associated combinatorics: two-row rectangular semistandard tableaux using
at most d_i copies of i, a truncated-product Hilbert series, and a
saturation procedure pairing off weak compositions.
"""

from .errors import CheckFailed
from .linalg import HomogeneousIdeal, linear_form
from .polys import Poly


def one_row_generators(bounds) -> list:
    """Pure powers x_i^{d_i+1} plus the variable sum, duplicates collapsed."""
    bounds = tuple(bounds)
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
    """The variable sum, with the exponent of x_i capped at d_i; plain lex."""
    bounds = tuple(bounds)
    n = len(bounds)
    return HomogeneousIdeal(
        n, None, [tuple(range(n))], [((i,), d) for i, d in enumerate(bounds)]
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
    bounds = tuple(bounds)
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
    return coeffs


def two_row_tableaux(bounds) -> list:
    """All two-row rectangular SSYT with at most d_i copies of each letter i,
    as (top_row, bottom_row) pairs, including the empty tableau."""
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
    tableaux = two_row_tableaux(bounds)
    dim = sum(one_row_hilbert(bounds))
    tops = {t for t, _ in tableaux}
    bottoms = {b for _, b in tableaux}
    return dim, len(tops), len(bottoms)


def one_row_standard_monomials(bounds):
    """Standard monomial exponents of the quotient under plain lex, by degree."""
    ideal = one_row_ideal(bounds)
    out = {}
    for degree in range(sum(bounds) + 2):
        std = ideal.standard_monomials(degree)
        if not std:
            return out
        out[degree] = std
    raise CheckFailed("quotient failed to terminate")

"""Hilbert series from Kostka numbers, log-concavity checks, and the graded
lattice-point series of transportation polytopes."""

from functools import lru_cache
from operator import mul

from .partitions import bounded_partitions, kostka_column
from .tables import margins


def hilbert_kostka(alpha, beta, max_degree=None) -> list:
    """Coefficients of the quotient Hilbert series: the degree-d coefficient
    sums K(lam, alpha) * K(lam, beta) over partitions lam of n with
    lam_1 = n - d.  The full series is one dot product per degree of the two
    dense Kostka blocks (_degree_blocks); truncated to max_degree it is one
    join of the two columns cut at that depth, which keeps n = 60 cheap."""
    alpha = tuple(alpha)
    beta = tuple(beta)
    n = sum(alpha)
    if n != sum(beta) or not alpha or not beta:
        margins(alpha, beta)  # raises, naming the broken rule
    if max_degree is not None:
        a, b = kostka_column(alpha, max_degree), kostka_column(beta, max_degree)
        coeffs = [0] * (min(max_degree, n) + 1)
        for lam, value in a.items():
            coeffs[n - lam[0] if lam else 0] += value * b.get(lam, 0)
        return coeffs
    coeffs = [
        sum(map(mul, a, b)) for a, b in zip(_degree_blocks(alpha), _degree_blocks(beta))
    ]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


@lru_cache(maxsize=None)
def _degree_blocks(content) -> tuple:
    """The Kostka column of `content`, dense and split by degree: block d
    holds K(lam, content), zeros included, for the partitions lam of n with
    lam_1 = n - d and at most l parts, l the number of nonzero parts of
    content, ordered by their number of parts and then as in partitions().
    K(lam, content) = 0 when lam has more parts than l or lam_1 is below the
    largest part, so no block past degree n - max(content) is made.

    The block of a content with fewer nonzero parts is a prefix of the
    other's, so map(mul, a, b), which stops at the shorter block, is the
    Hilbert coefficient of the pair, summed over the partitions with at most
    min(l(alpha), l(beta)) parts.  A margin costs the partitions that can
    carry a nonzero K, not p(n)."""
    n = sum(content)
    if not n:
        return ((1,),)
    column = kostka_column(content)
    length = sum(map(bool, content))
    return tuple(
        tuple(
            column.get((n - d,) + rest, 0)
            for rest in sorted(bounded_partitions(d, min(d, n - d), length - 1), key=len)
        )
        for d in range(n - max(content) + 1)
    )


def log_concavity_violations(coeffs) -> list:
    """Indices k with a_k^2 < a_{k-1} * a_{k+1}, over the positive support."""
    return [
        k
        for k in range(1, len(coeffs) - 1)
        if coeffs[k] ** 2 < coeffs[k - 1] * coeffs[k + 1]
    ]


def q_ehrhart(alpha, beta, upto: int, interior: bool = False) -> list:
    """Graded lattice-point series of the transportation polytope with margins
    (alpha, beta): entry m is the Hilbert coefficient list of the m-th dilate.

    The interior variant shifts margins by the complementary dimension
    (rows lose the column count and vice versa) and is zero whenever a
    shifted part goes negative; its m = 0 entry is the empty polynomial [0].
    """
    alpha, beta = margins(alpha, beta)
    row_shift, col_shift = (len(beta), len(alpha)) if interior else (0, 0)
    out = []
    for m in range(upto + 1):
        a, b = [m * x - row_shift for x in alpha], [m * y - col_shift for y in beta]
        empty = (interior and m == 0) or min(a + b) < 0
        out.append([0] if empty else hilbert_kostka(a, b))
    return out


def uniform_family(part: int) -> tuple:
    """The composition (part, part, ..., part) summing to 60: the margins of
    the paper's n = 60 families."""
    if part < 1 or 60 % part:
        raise ValueError("part must be a positive divisor of 60")
    return (part,) * (60 // part)

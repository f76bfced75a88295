"""Hilbert series from Kostka numbers, log-concavity checks, and the graded
lattice-point series of transportation polytopes."""

from functools import lru_cache
from operator import mul

from .partitions import kostka_column, partitions


def hilbert_kostka(alpha, beta, max_degree=None) -> list:
    """Coefficients of the quotient Hilbert series: the degree-d coefficient
    sums K(lam, alpha) * K(lam, beta) over partitions lam of n with
    lam_1 = n - d.  The full series is one dot product per degree of the two
    Kostka columns; truncated to max_degree it is one join of the two columns
    cut at that depth, which keeps n = 60 cheap."""
    alpha = tuple(alpha)
    beta = tuple(beta)
    n = sum(alpha)
    if n != sum(beta):
        raise ValueError("row and column sums must agree")
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
    holds K(lam, content) for the partitions lam with lam_1 = n - d, in
    partitions() order, zeros included, so that a Hilbert coefficient is one
    dot product of two blocks.  Trailing all-zero blocks are dropped."""
    n = sum(content)
    column = kostka_column(content)
    blocks = [[] for _ in range(n + 1)]
    for lam in partitions(n):
        blocks[n - lam[0] if lam else 0].append(column.get(lam, 0))
    while len(blocks) > 1 and not any(blocks[-1]):
        blocks.pop()
    return tuple(map(tuple, blocks))


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
    alpha = tuple(alpha)
    beta = tuple(beta)
    if sum(alpha) != sum(beta):
        raise ValueError("row and column sums must agree")
    k, p = len(alpha), len(beta)
    out = []
    for m in range(upto + 1):
        if not interior:
            out.append(hilbert_kostka([m * a for a in alpha], [m * b for b in beta]))
            continue
        shifted_alpha = tuple(m * a - p for a in alpha)
        shifted_beta = tuple(m * b - k for b in beta)
        if m == 0 or min(shifted_alpha) < 0 or min(shifted_beta) < 0:
            out.append([0])
        else:
            out.append(hilbert_kostka(shifted_alpha, shifted_beta))
    return out


def uniform_family(part: int) -> tuple:
    """The composition (part, part, ..., part) summing to 60: the margins of
    the paper's n = 60 families."""
    if part < 1 or 60 % part:
        raise ValueError("part must be a positive divisor of 60")
    return (part,) * (60 // part)

"""The paper's claims checked over ranges of inputs: the margin sweep, which
tests the theorems on every pair of weak compositions, and the conjecture
scans over partition pairs.  The CLI and the test suite both run these.

Conjecture findings are data: the scans report violations and never raise.
"""

from .partitions import partitions, weak_compositions_upto
from .psi import graded_decomposition, kronecker_dominance, kronecker_product, pair_group
from .quotient import (
    QuotientModel,
    derived_matrix_set,
    hilbert_series_zigzag,
    lefschetz_report,
    verify_associated_graded,
)
from .series import hilbert_kostka, log_concavity_violations
from .symfunc import TensorSymFunc


def sweep_record(alpha, beta) -> dict:
    """Build the margin quotient once and check it every way: standard
    monomials against the matrix-ball derived matrices, the linear-algebra,
    Kostka and zigzag Hilbert series, the vanishing-ideal witnesses, and the
    Lefschetz ranks."""
    model = QuotientModel(alpha, beta)
    return {
        "alpha": tuple(alpha),
        "beta": tuple(beta),
        "n": model.n,
        "tables": model.size,
        "standard_ok": model.standard_exponent_matrices()
        == derived_matrix_set(alpha, beta),
        "hilbert_linear": list(model.hilbert),
        "hilbert_kostka": hilbert_kostka(alpha, beta),
        "hilbert_zigzag": hilbert_series_zigzag(alpha, beta),
        "verify": verify_associated_graded(alpha, beta, model=model),
        "lefschetz": lefschetz_report(model),
    }


def sweep(max_n: int, max_len: int):
    """Yield sweep_record for every pair of weak compositions of equal sum
    n <= max_n with lengths <= max_len, by n, then alpha, then beta."""
    for n in range(max_n + 1):
        comps = weak_compositions_upto(n, max_len)
        for alpha in comps:
            for beta in comps:
                yield sweep_record(alpha, beta)


def dominance_violations(mu, nu) -> list:
    """Degrees k where the degree-k graded character fails Kronecker dominance
    over the product of its degree k - 1 and k + 1 neighbours (equivariant
    log-concavity).  k runs over 1 .. top - 1: at the top degree the upper
    neighbour is zero, so dominance holds trivially."""
    decomposition = graded_decomposition(mu, nu)
    group = pair_group(mu, nu)
    empty = TensorSymFunc(group.sizes, "s")
    out = []
    for k in range(1, max(decomposition, default=0)):
        product = kronecker_product(
            decomposition.get(k - 1, empty), decomposition.get(k + 1, empty), group
        )
        if kronecker_dominance(decomposition.get(k, empty), product, group):
            out.append(k)
    return out


def _partition_pairs(max_n: int):
    for n in range(1, max_n + 1):
        parts = partitions(n)
        for mu in parts:
            for nu in parts:
                yield mu, nu


def conjecture_scan(max_n: int, lefschetz_n: int, dominance_n: int) -> dict:
    """Conjecture violations over partition pairs (mu, nu) of n = 1, 2, ...:
    log-concavity of the Hilbert series for n <= max_n, injectivity of the
    Lefschetz maps for n <= lefschetz_n, and Kronecker dominance for
    n <= dominance_n.  Each key maps to a list of (mu, nu, k) triples."""
    return {
        "log_concavity": [
            (mu, nu, k)
            for mu, nu in _partition_pairs(max_n)
            for k in log_concavity_violations(hilbert_kostka(mu, nu))
        ],
        "lefschetz": [
            (mu, nu, entry["k"])
            for mu, nu in _partition_pairs(lefschetz_n)
            for entry in lefschetz_report(QuotientModel(mu, nu))
            if not entry["injective"]
        ],
        "dominance": [
            (mu, nu, k)
            for mu, nu in _partition_pairs(dominance_n)
            for k in dominance_violations(mu, nu)
        ],
    }

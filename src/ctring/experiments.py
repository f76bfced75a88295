"""The paper's claims checked over ranges of inputs: the margin sweep, which
tests the theorems on every pair of weak compositions, and the conjecture
scans over partition pairs.  What one margin pair must satisfy, and which
conjectures it breaks, is judged here alone (verify_report, failed_checks,
conjecture_violations); the CLI and the test suite format these verdicts.
The module itself imports only partitions and series: each function that
builds a quotient or a graded character imports quotient or psi where it
runs, so a caller of failed_checks or conjecture_violations alone never
loads the linear algebra.

Conjecture findings are data: the scans report violations and never raise.
Transposition makes R_{mu,nu} and R_{nu,mu} isomorphic with the factors
swapped, so each scan asks once per unordered pair (conjecture_scan).
"""

from itertools import product

from .partitions import partitions, weak_compositions_upto
from .series import hilbert_kostka, log_concavity_violations


def verify_report(model) -> dict:
    """The vanishing-ideal witnesses and dimension count of a QuotientModel's
    margins (verify_associated_graded), and whether its standard monomials
    are the matrix-ball derived matrices (standard_equals_matrix_ball)."""
    from .quotient import derived_matrix_set, verify_associated_graded

    report = verify_associated_graded(model.alpha, model.beta, model=model)
    report["standard_equals_matrix_ball"] = (
        model.standard_exponent_matrices() == derived_matrix_set(model.alpha, model.beta)
    )
    return report


def failed_checks(verify=None, series=()) -> list:
    """The theorem checks a margin pair fails, named in the order
    standard-basis, hilbert-agreement, graded-vanishing-ideal.  `verify` is
    a verify_report and `series` the pair's Hilbert series, one per route; a
    check whose data is not passed is not judged."""
    vanishing = verify is None or (verify["lifts_vanish"] and verify["dimension_match"])
    checks = [
        ("standard-basis", verify is None or verify["standard_equals_matrix_ball"]),
        ("hilbert-agreement", all(s == series[0] for s in series)),
        ("graded-vanishing-ideal", vanishing),
    ]
    return [name for name, ok in checks if not ok]


def conjecture_violations(series=(), lefschetz=()) -> list:
    """The (conjecture, k) pairs a margin pair breaks: log-concavity of its
    Hilbert series at k, then a Lefschetz map from degree k that is not
    injective, as lefschetz_report gives them."""
    return [("log-concavity", k) for k in log_concavity_violations(series)] + [
        ("lefschetz", entry["k"]) for entry in lefschetz if not entry["injective"]
    ]


def sweep_record(alpha, beta) -> dict:
    """Build the margin quotient once and check it every way: the
    verify_report, the linear-algebra, Kostka and zigzag Hilbert series, and
    the Lefschetz ranks."""
    from .quotient import QuotientModel, hilbert_series_zigzag, lefschetz_report

    model = QuotientModel(alpha, beta)
    return {
        "alpha": tuple(alpha),
        "beta": tuple(beta),
        "n": model.n,
        "tables": model.size,
        "hilbert_linear": list(model.hilbert),
        "hilbert_kostka": hilbert_kostka(alpha, beta),
        "hilbert_zigzag": hilbert_series_zigzag(alpha, beta),
        "verify": verify_report(model),
        "lefschetz": lefschetz_report(model),
    }


def sweep(max_n: int, max_len: int):
    """Yield sweep_record for every pair of weak compositions of equal sum
    n <= max_n with lengths <= max_len, by n, then alpha, then beta."""
    for n in range(max_n + 1):
        for alpha, beta in product(weak_compositions_upto(n, max_len), repeat=2):
            yield sweep_record(alpha, beta)


def dominance_violations(mu, nu) -> list:
    """Degrees k where the degree-k graded character fails Kronecker dominance
    over the product of its degree k - 1 and k + 1 neighbours (equivariant
    log-concavity), for k = 1 .. top - 1: the top degree's upper neighbour is
    zero.  The quotient is generated in degree 1, so no degree is empty."""
    from .psi import graded_decomposition, kronecker_dominance, kronecker_product, pair_group

    decomposition = graded_decomposition(mu, nu)
    group = pair_group(mu, nu)
    out = []
    for k in range(1, max(decomposition)):
        product = kronecker_product(decomposition[k - 1], decomposition[k + 1], group)
        if kronecker_dominance(decomposition[k], product, group):
            out.append(k)
    return out


def _by_unordered_pair(max_n: int, verdict):
    """Yield (mu, nu, k) for each k in verdict(mu, nu), over the partition
    pairs of n = 1 .. max_n in the order of product(partitions(n), repeat=2).
    verdict is asked once per unordered pair: the mirrored pair, which comes
    later in the same n, yields its k's again."""
    for n in range(1, max_n + 1):
        pending: dict = {}
        for mu, nu in product(partitions(n), repeat=2):
            ks = pending.pop((nu, mu), None)
            if ks is None:
                ks = verdict(mu, nu)
                if mu != nu:
                    pending[mu, nu] = ks
            for k in ks:
                yield mu, nu, k


def conjecture_scan(max_n: int, lefschetz_n: int, dominance_n: int) -> dict:
    """Conjecture violations over partition pairs (mu, nu) of n = 1, 2, ...:
    log-concavity of the Hilbert series for n <= max_n, injectivity of the
    Lefschetz maps for n <= lefschetz_n, and Kronecker dominance for
    n <= dominance_n, as lists of (mu, nu, k) triples.  Transposition
    x_ij -> x_ji carries I_{mu,nu} onto I_{nu,mu}: a graded isomorphism that
    swaps the row and column factors and fixes the diagonal-block Lefschetz
    element.  So (nu, mu) has the verdicts of (mu, nu), and each scan asks
    once per unordered pair."""
    from .quotient import QuotientModel, lefschetz_report

    def log_concavity(mu, nu):
        return [k for _, k in conjecture_violations(series=hilbert_kostka(mu, nu))]

    def lefschetz(mu, nu):
        report = lefschetz_report(QuotientModel(mu, nu))
        return [k for _, k in conjecture_violations(lefschetz=report)]

    return {
        "log_concavity": list(_by_unordered_pair(max_n, log_concavity)),
        "lefschetz": list(_by_unordered_pair(lefschetz_n, lefschetz)),
        "dominance": list(_by_unordered_pair(dominance_n, dominance_violations)),
    }

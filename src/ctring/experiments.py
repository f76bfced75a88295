"""The paper's claims checked over ranges of inputs: the margin sweep, which
tests the theorems on every pair of weak compositions, and the conjecture
scans over partition pairs.  What one margin pair must satisfy, and which
conjectures it breaks, is judged here alone (verify_report, failed_checks,
conjecture_violations); the CLI and the test suite format these verdicts.
The module itself imports only partitions and series: each function that
builds a quotient or a graded character imports quotient, psi or symfunc
where it runs, so a caller of failed_checks or conjecture_violations alone
never loads the linear algebra.

Conjecture findings are data: the scans report violations and never raise.
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
    log-concavity).  k runs over 1 .. top - 1: at the top degree the upper
    neighbour is zero, so dominance holds trivially."""
    from .psi import graded_decomposition, kronecker_dominance, kronecker_product, pair_group
    from .symfunc import TensorSymFunc

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
        yield from product(partitions(n), repeat=2)


def _log_concavity_violations(max_n: int):
    """Yield (mu, nu, k) for each log-concavity violation of the Hilbert
    series, over _partition_pairs(max_n).  The series, sum over lam of
    K(lam, mu) * K(lam, nu) q^(n - lam_1), is symmetric in mu and nu, so
    the pair (nu, mu), which comes later, reuses the verdict of (mu, nu)."""
    earlier: dict = {}
    for mu, nu in _partition_pairs(max_n):
        ks = earlier.pop((nu, mu), None)
        if ks is None:
            ks = [k for _, k in conjecture_violations(series=hilbert_kostka(mu, nu))]
            if mu != nu:
                earlier[mu, nu] = ks
        for k in ks:
            yield mu, nu, k


def conjecture_scan(max_n: int, lefschetz_n: int, dominance_n: int) -> dict:
    """Conjecture violations over partition pairs (mu, nu) of n = 1, 2, ...:
    log-concavity of the Hilbert series for n <= max_n, injectivity of the
    Lefschetz maps for n <= lefschetz_n, and Kronecker dominance for
    n <= dominance_n.  Each key maps to a list of (mu, nu, k) triples."""
    from .quotient import QuotientModel, lefschetz_report

    return {
        "log_concavity": list(_log_concavity_violations(max_n)),
        "lefschetz": [
            (mu, nu, k)
            for mu, nu in _partition_pairs(lefschetz_n)
            for _, k in conjecture_violations(
                lefschetz=lefschetz_report(QuotientModel(mu, nu))
            )
        ],
        "dominance": [
            (mu, nu, k)
            for mu, nu in _partition_pairs(dominance_n)
            for k in dominance_violations(mu, nu)
        ],
    }

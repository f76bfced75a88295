"""Seeded round trips through `ctring.cli.main`: on random inputs every
subcommand prints exactly the library's result, formatted as the CLI formats
it, and `rsk`/`zigzag` agree with the independent oracles."""

import json
import random

from oracles import insertion_rsk, random_matrix
from ctring.cli import main
from ctring.experiments import (
    conjecture_scan,
    conjecture_violations,
    failed_checks,
    sweep,
    verify_report,
)
from ctring.partitions import partitions, weak_compositions
from ctring.psi import graded_decomposition
from ctring.quotient import (
    QuotientModel,
    hilbert_series_linear,
    hilbert_series_zigzag,
    lefschetz_report,
)
from ctring.series import hilbert_kostka, q_ehrhart, uniform_family
from ctring.tables import matrix_to_json, zigzag_number


def cli_out(capsys, argv):
    status = main(argv)
    return status, capsys.readouterr().out


def as_json(payload) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def text(values) -> str:
    return ",".join(map(str, values))


def margin_pairs(seed, count):
    """`count` seeded margin pairs with n <= 5 and lengths <= 3."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 5)
        yield (
            rng.choice(weak_compositions(n, rng.randint(1, 3))),
            rng.choice(weak_compositions(n, rng.randint(1, 3))),
        )


def test_margin_subcommands_print_the_library_result(capsys):
    routes = {
        "kostka": hilbert_kostka,
        "linalg": hilbert_series_linear,
        "zigzag": hilbert_series_zigzag,
    }
    rng = random.Random(251)
    for alpha, beta in margin_pairs(250, 30):
        margins = ["--alpha", text(alpha), "--beta", text(beta)]
        head = {"alpha": list(alpha), "beta": list(beta)}
        series = {m: [str(c) for c in route(alpha, beta)] for m, route in routes.items()}
        assert len({tuple(s) for s in series.values()}) == 1
        for method in [*routes, "all"]:
            status, out = cli_out(capsys, ["hilbert", *margins, "--method", method])
            assert status == 0 and out == as_json({**head, "coeffs": series["kostka"]})

        model = QuotientModel(alpha, beta)
        status, out = cli_out(capsys, ["standard-basis", *margins])
        assert status == 0 and out == as_json(
            {
                **head,
                "dimension": str(model.size),
                "hilbert": [str(c) for c in model.hilbert],
                "standard_monomials": [
                    matrix_to_json(m) for m in sorted(model.standard_exponent_matrices())
                ],
            }
        )

        report = verify_report(model)
        assert failed_checks(report) == []
        status, out = cli_out(capsys, ["verify", *margins])
        assert status == 0 and out == as_json(report)

        maps = lefschetz_report(model)
        status, out = cli_out(capsys, ["lefschetz", *margins])
        assert status == 0 and out == as_json(
            {
                **head,
                "min_zigzag": model.min_zigzag,
                "maps": maps,
                "violations": [k for _, k in conjecture_violations(lefschetz=maps)],
            }
        )

        upto, interior = rng.randint(0, 3), rng.random() < 0.5
        argv = ["ehrhart", *margins, "--upto", str(upto)] + ["--interior"] * interior
        status, out = cli_out(capsys, argv)
        dilates = q_ehrhart(alpha, beta, upto, interior=interior)
        assert status == 0 and out == as_json(
            {
                **head,
                "interior": interior,
                "series": [
                    {"m": m, "coeffs": [str(c) for c in coeffs]}
                    for m, coeffs in enumerate(dilates)
                ],
            }
        )


def test_rsk_and_zigzag_agree_with_the_oracles(capsys):
    rng = random.Random(252)
    for _ in range(30):
        matrix = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), max_entry=3)
        spec = ";".join(" ".join(map(str, row)) for row in matrix)
        Q, P = insertion_rsk(matrix)  # the oracle inserts column indices
        status, out = cli_out(capsys, ["rsk", "--matrix", spec])
        assert status == 0 and out == as_json(
            {
                "P": [list(row) for row in P],
                "Q": [list(row) for row in Q],
                "shape": [len(row) for row in P],
                "zigzag": zigzag_number(matrix),
            }
        )

        status, out = cli_out(capsys, ["zigzag", "--matrix", spec])
        payload = json.loads(out)
        assert status == 0 and payload["zigzag"] == zigzag_number(matrix)
        witness = payload.get("witness", [])
        assert bool(witness) == any(map(any, matrix))
        # a weakly increasing chain of 1-based cells whose entries sum to the number
        assert all(a <= c and b <= d for (a, b), (c, d) in zip(witness, witness[1:]))
        assert sum(matrix[i - 1][j - 1] for i, j in witness) == payload["zigzag"]


def test_frobenius_prints_the_graded_decomposition(capsys):
    rng = random.Random(253)
    for _ in range(10):
        mu = rng.choice(partitions(rng.randint(1, 5)))
        nu = rng.choice(partitions(sum(mu)))
        status, out = cli_out(capsys, ["frobenius", "--mu", text(mu), "--nu", text(nu)])
        decomposition = [
            {
                "degree": d,
                "dimension": str(tensor.dimension()),
                "terms": [
                    {"factors": [list(part) for part in key], "mult": c}
                    for key, c in sorted(tensor.coeffs.items())
                ],
            }
            for d, tensor in graded_decomposition(mu, nu).items()
        ]
        assert status == 0 and out == as_json(
            {"mu": list(mu), "nu": list(nu), "decomposition": decomposition}
        )


def test_scans_print_the_library_result(capsys):
    rng = random.Random(254)
    for _ in range(3):
        family, upto = rng.randint(1, 4), rng.randint(0, 4)
        status, out = cli_out(capsys, ["figure1", "--family", str(family), "--upto", str(upto)])
        alpha = uniform_family(family)
        coeffs = hilbert_kostka(alpha, alpha, max_degree=upto)
        assert status == 0 and out == as_json(
            {"family": f"{family}^{len(alpha)}", "coeffs": [str(c) for c in coeffs]}
        )

        counts = rng.randint(0, 6), rng.randint(0, 3), rng.randint(0, 3)
        flags = ["--max-n", "--lefschetz-n", "--dominance-n"]
        argv = [a for pair in zip(flags, map(str, counts)) for a in pair]
        status, out = cli_out(capsys, ["conjectures", *argv])
        found = conjecture_scan(*counts)
        violations = {
            name: [{"mu": list(mu), "nu": list(nu), "k": k} for mu, nu, k in triples]
            for name, triples in found.items()
        }
        total = sum(map(len, found.values()))
        assert status == 0 and out == as_json(
            {"violations": violations, "total_violations": total}
        )

        max_n, max_len = rng.randint(0, 3), rng.randint(1, 3)
        status, out = cli_out(capsys, ["sweep", "--max-n", str(max_n), "--max-len", str(max_len)])
        records = list(sweep(max_n, max_len))
        series = ("hilbert_linear", "hilbert_kostka", "hilbert_zigzag")
        assert all(failed_checks(r["verify"], [r[s] for s in series]) == [] for r in records)
        found = [
            {"alpha": list(r["alpha"]), "beta": list(r["beta"]), "conjecture": c, "k": k}
            for r in records
            for c, k in conjecture_violations(r["hilbert_kostka"], r["lefschetz"])
        ]
        assert status == 0 and out == as_json(
            {"pairs": len(records), "failures": [], "conjecture_violations": found}
        )

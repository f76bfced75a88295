"""Command-line interface.

Deterministic, machine-readable output: JSON by default (sorted keys), CSV
for coefficient tables via --csv.  Coefficients and dimensions are emitted as
decimal strings because they routinely exceed what JSON numbers can carry.

Exit status: 0 on success, 1 when a theorem check fails (reported by the
command or raised as CheckFailed), 2 on a usage error, and 3 on any other
exception, so that a crash never reads as a failed check.  An exception
writes one JSON object with an "error" key to stderr and nothing to stdout.
"""

import argparse
import functools
import json
import os
import sys
import traceback
from pathlib import Path

from .errors import CheckFailed
from .experiments import conjecture_scan, sweep
from .matrixball import rsk, zigzag_witness
from .psi import graded_decomposition
from .quotient import (
    QuotientModel,
    derived_matrix_set,
    hilbert_series_linear,
    hilbert_series_zigzag,
    lefschetz_report,
    verify_associated_graded,
)
from .series import hilbert_kostka, log_concavity_violations, q_ehrhart, uniform_family
from .tables import (
    decimal,
    matrix_from_json,
    matrix_from_text,
    matrix_to_json,
    zigzag_number,
)

CHECK_FAILED = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3


def composition(text: str) -> tuple:
    """Parse a comma-separated composition; a token INT^COUNT repeats a part."""
    parts = []
    for token in text.split(","):
        token = token.strip()
        try:
            if "^" in token:
                base, count = token.split("^")
                value, times = decimal(base.strip()), decimal(count.strip())
            else:
                value, times = decimal(token), 1
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"malformed composition {text!r}: token {token!r}"
            ) from None
        parts.extend([value] * times)
    if not parts:
        raise argparse.ArgumentTypeError(f"malformed composition {text!r}: empty")
    return tuple(parts)


def _read_matrix(spec_text: str):
    """Decode --matrix; every malformed input raises ValueError (exit 2)."""
    try:
        if spec_text == "-":
            raw = sys.stdin.read()
        elif os.path.exists(spec_text):
            raw = Path(spec_text).read_text()
        else:
            raw = spec_text.replace(";", "\n")
    except OSError as err:
        raise ValueError(f"cannot read matrix: {err}") from None
    raw = raw.strip()
    if raw.startswith("{"):
        return matrix_from_json(raw)
    return matrix_from_text(raw)


def _big(values):
    """Decimal-string encoding for coefficient lists: 60-digit numbers do not
    survive as native JSON numbers."""
    return [str(v) for v in values]


def _emit(payload, args) -> None:
    if getattr(args, "csv", False) and "coeffs" in payload:
        print("degree,coefficient")
        for d, c in enumerate(payload["coeffs"]):
            print(f"{d},{c}")
        return
    if getattr(args, "csv", False) and "series" in payload:
        print("m,degree,coefficient")
        for entry in payload["series"]:
            for d, c in enumerate(entry["coeffs"]):
                print(f"{entry['m']},{d},{c}")
        return
    print(json.dumps(payload, sort_keys=True))


HILBERT_ROUTES = {
    "kostka": hilbert_kostka,
    "linalg": hilbert_series_linear,
    "zigzag": hilbert_series_zigzag,
}


def cmd_hilbert(args):
    methods = HILBERT_ROUTES if args.method == "all" else [args.method]
    series = [HILBERT_ROUTES[m](args.alpha, args.beta) for m in methods]
    if any(s != series[0] for s in series):
        routes = {m: _big(s) for m, s in zip(methods, series)}
        return {"error": "hilbert methods disagree", "routes": routes}, CHECK_FAILED
    return {"alpha": list(args.alpha), "beta": list(args.beta), "coeffs": _big(series[0])}, 0


def cmd_rsk(args):
    matrix = _read_matrix(args.matrix)
    pair = rsk(matrix)
    return {
        "P": [list(row) for row in pair.P],
        "Q": [list(row) for row in pair.Q],
        "shape": [len(row) for row in pair.P],
        "zigzag": zigzag_number(matrix),
    }, 0


def cmd_zigzag(args):
    matrix = _read_matrix(args.matrix)
    payload = {"zigzag": zigzag_number(matrix)}
    if any(v for row in matrix for v in row):
        payload["witness"] = [list(c) for c in zigzag_witness(matrix)]
    return payload, 0


def cmd_standard_basis(args):
    model = QuotientModel(args.alpha, args.beta)
    matrices = sorted(model.standard_exponent_matrices())
    return {
        "alpha": list(args.alpha),
        "beta": list(args.beta),
        "dimension": str(model.size),
        "hilbert": _big(model.hilbert),
        "standard_monomials": [matrix_to_json(m) for m in matrices],
    }, 0


def cmd_verify(args):
    model = QuotientModel(args.alpha, args.beta)
    report = dict(verify_associated_graded(args.alpha, args.beta, model=model))
    report["standard_equals_matrix_ball"] = (
        model.standard_exponent_matrices()
        == derived_matrix_set(args.alpha, args.beta)
    )
    ok = (
        report["lifts_vanish"]
        and report["dimension_match"]
        and report["standard_equals_matrix_ball"]
    )
    return report, 0 if ok else CHECK_FAILED


def cmd_frobenius(args):
    decomposition = graded_decomposition(args.mu, args.nu)
    out = []
    for d, tensor in decomposition.items():
        terms = [
            {"factors": [list(part) for part in key], "mult": c}
            for key, c in sorted(tensor.coeffs.items())
        ]
        out.append(
            {"degree": d, "dimension": str(tensor.dimension()), "terms": terms}
        )
    return {"mu": list(args.mu), "nu": list(args.nu), "decomposition": out}, 0


def cmd_lefschetz(args):
    model = QuotientModel(args.alpha, args.beta)
    report = lefschetz_report(model)
    return {
        "alpha": list(args.alpha),
        "beta": list(args.beta),
        "min_zigzag": model.min_zigzag,
        "maps": report,
        "violations": [r["k"] for r in report if not r["injective"]],
    }, 0


def cmd_conjectures(args):
    found = conjecture_scan(args.max_n, args.lefschetz_n, args.dominance_n)
    violations = {
        name: [{"mu": list(mu), "nu": list(nu), "k": k} for mu, nu, k in triples]
        for name, triples in found.items()
    }
    total = sum(len(v) for v in violations.values())
    return {"violations": violations, "total_violations": total}, 0


def cmd_ehrhart(args):
    series = q_ehrhart(args.alpha, args.beta, args.upto, interior=args.interior)
    return {
        "alpha": list(args.alpha),
        "beta": list(args.beta),
        "interior": args.interior,
        "series": [{"m": m, "coeffs": _big(coeffs)} for m, coeffs in enumerate(series)],
    }, 0


def cmd_figure1(args):
    alpha = uniform_family(args.family)
    coeffs = hilbert_kostka(alpha, alpha, max_degree=args.upto)
    return {
        "family": f"{args.family}^{len(alpha)}",
        "coeffs": _big(coeffs),
    }, 0


def cmd_sweep(args):
    failures = []
    conjecture_violations = []
    pairs = 0
    for r in sweep(args.max_n, args.max_len):
        pairs += 1
        record = {"alpha": list(r["alpha"]), "beta": list(r["beta"])}
        checks = {
            "standard-basis": r["standard_ok"],
            "hilbert-agreement": (
                r["hilbert_linear"] == r["hilbert_kostka"] == r["hilbert_zigzag"]
            ),
            "graded-vanishing-ideal": (
                r["verify"]["lifts_vanish"] and r["verify"]["dimension_match"]
            ),
        }
        failures += [{**record, "check": c} for c, ok in checks.items() if not ok]
        conjecture_violations += [
            {**record, "conjecture": "log-concavity", "k": k}
            for k in log_concavity_violations(r["hilbert_kostka"])
        ]
        conjecture_violations += [
            {**record, "conjecture": "lefschetz", "k": entry["k"]}
            for entry in r["lefschetz"]
            if not entry["injective"]
        ]
    payload = {
        "pairs": pairs,
        "failures": failures,
        "conjecture_violations": conjecture_violations,
    }
    return payload, 0 if not failures else CHECK_FAILED


def at_least(low: int):
    """Argparse type for an integer count that must be at least `low`."""

    def parse(text: str) -> int:
        try:
            value = decimal(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctring",
        description="Exact invariants of contingency-table quotient rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    csv = {"action": "store_true", "help": "CSV coefficient output"}
    margin = {"type": composition, "required": True}

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag}", **kwargs)
        p.set_defaults(fn=fn)
        return p

    add(
        "hilbert",
        cmd_hilbert,
        alpha=margin,
        beta=margin,
        method={"choices": [*HILBERT_ROUTES, "all"], "default": "kostka"},
        csv=csv,
    )
    add("rsk", cmd_rsk, matrix={"required": True})
    add("zigzag", cmd_zigzag, matrix={"required": True})
    add("standard-basis", cmd_standard_basis, alpha=margin, beta=margin)
    add("verify", cmd_verify, alpha=margin, beta=margin)
    add("frobenius", cmd_frobenius, mu=margin, nu=margin)
    add("lefschetz", cmd_lefschetz, alpha=margin, beta=margin)
    add(
        "conjectures",
        cmd_conjectures,
        **{
            "max-n": {"type": at_least(0), "default": 8, "dest": "max_n"},
            "lefschetz-n": {"type": at_least(0), "default": 4, "dest": "lefschetz_n"},
            "dominance-n": {"type": at_least(0), "default": 4, "dest": "dominance_n"},
        },
    )
    add(
        "ehrhart",
        cmd_ehrhart,
        alpha=margin,
        beta=margin,
        upto={"type": at_least(0), "default": 3},
        interior={"action": "store_true"},
        csv=csv,
    )
    add(
        "figure1",
        cmd_figure1,
        family={"type": decimal, "required": True, "choices": [1, 2, 3, 4]},
        upto={"type": at_least(0), "default": 3},
        csv=csv,
    )
    add(
        "sweep",
        cmd_sweep,
        **{
            "max-n": {"type": at_least(0), "default": 4, "dest": "max_n"},
            "max-len": {"type": at_least(1), "default": 2, "dest": "max_len"},
        },
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, status = args.fn(args)
        _emit(payload, args)
        sys.stdout.flush()  # a closed stdout fails here, inside the handlers
        return status
    except CheckFailed as err:
        error, status = {"error": str(err)}, CHECK_FAILED
    except ValueError as err:
        error, status = {"error": str(err)}, USAGE_ERROR
    except Exception as err:  # a crash, which must not read as a failed check
        if isinstance(err, BrokenPipeError):
            # Python's recipe: point stdout at devnull, so that the flush at
            # exit does not fail on the closed pipe a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        error = {"error": f"{type(err).__name__}: {err}"}
        error["traceback"] = traceback.format_exc()
        status = INTERNAL_ERROR
    print(json.dumps(error), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())

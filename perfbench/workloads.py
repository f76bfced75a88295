"""The benchmark's workloads: seeded op lists and the checks on each op's result.

An op is one unit a user waits for: one CLI call (`basis`), one margin pair
of the sweep, or one partition pair of the conjecture scans.  `build(name,
seed)` returns the ops of one pass in a seed-dependent order.  Each op's
`check` tests its result against quantities computed by another route than
the timed one (an independent table-count DP, insertion RSK from
tests/oracles.py, the Kostka series, golden values), so a fast but wrong
result fails the op.
"""

import contextlib
import io
import json
import random
import sys
from functools import lru_cache
from pathlib import Path

from ctring import cli
from ctring.matrixball import rsk
from ctring.onerow import (
    dimension_counts,
    one_row_hilbert,
    one_row_standard_monomials,
    two_row_tableaux,
)
from ctring.partitions import partitions, weak_compositions_upto
from ctring.psi import graded_decomposition, kronecker_dominance, kronecker_product, pair_group
from ctring.quotient import (
    QuotientModel,
    derived_matrix_set,
    hilbert_series_zigzag,
    lefschetz_report,
    verify_associated_graded,
)
from ctring.series import hilbert_kostka, log_concavity_violations, q_ehrhart, uniform_family
from ctring.symfunc import TensorSymFunc
from ctring.tables import contingency_tables, count_contingency_tables

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import insertion_rsk, strict_compositions  # noqa: E402

# Margins for `basis`: every pair of partitions of n with exactly k and p
# parts, for (k, p, n) below.  3x4 at n = 6 holds the largest slices that fit
# a short pass; 2x3 adds cheap pairs so that a pass has over 100 ops.  Larger
# classes (3x3 or 3x4 at n >= 7) cost up to seconds per model and would swamp
# a pass.  The seed orders the ops and
# picks the tables for the RSK check, but does not permute the parts: a
# permutation changes the cost of one model by up to 4x, and drawing them by
# seed made wall_s differ by 20 % between seeds.
BASIS_SHAPES = ((2, 3, 5), (3, 3, 5), (2, 4, 5), (3, 4, 5), (2, 3, 6), (3, 4, 6))

SWEEP_MAX_N = 4
SWEEP_MAX_LEN = 3
ONE_ROW_MAX_TOTAL = 8

LOG_CONCAVITY_MAX_N = 10
LEFSCHETZ_MAX_N = 4
DOMINANCE_MAX_N = 6
TABLE_CHECK_MAX_N = 8

# Hilbert coefficients through q^3 of the four n = 60 families (part^(60/part))
FIGURE1_GOLDEN = {
    1: [1, 3481, 5851621, 6329639181],
    2: [1, 841, 354061, 99222341],
    3: [1, 361, 65341, 7906261],
    4: [1, 196, 19306, 1274196],
}
EHRHART_POOL = (
    ((2, 1), (1, 1, 1)),
    ((2, 2), (3, 1)),
    ((2, 1, 1), (2, 2)),
    ((3, 1), (2, 1, 1)),
    ((2, 2), (2, 1, 1)),
    ((1, 1, 1), (2, 1)),
)
EHRHART_OPS = 3
EHRHART_UPTO = 3
RSK_SAMPLES = 2


class Op:
    """One timed unit of work.  `run()` is timed; `check(result)` is not."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def canonical(result) -> str:
    """Deterministic text of an op result, for digests and pass-to-pass
    comparison."""
    return json.dumps(result, sort_keys=True, default=_plain)


def _plain(obj):
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, TensorSymFunc):
        return {
            "degrees": obj.degrees,
            "basis": obj.basis,
            "coeffs": sorted([list(k), str(v)] for k, v in obj.coeffs.items()),
        }
    return str(obj)


# -- independent oracles ---------------------------------------------------


def count_tables(alpha, beta) -> int:
    """Number of nonnegative integer matrices with the given margins, by a
    row-by-row DP over the remaining column sums.  Shares no code with the
    Kostka identity or the backtracking enumeration in ctring.tables."""
    alpha = tuple(alpha)

    @lru_cache(maxsize=None)
    def rows_from(i, cols):
        if i == len(alpha):
            return 1 if not any(cols) else 0
        total = 0
        for row in _fillings(alpha[i], cols):
            total += rows_from(i + 1, tuple(c - r for c, r in zip(cols, row)))
        return total

    if sum(alpha) != sum(beta):
        return 0
    return rows_from(0, tuple(beta))


def _fillings(amount, caps):
    if not caps:
        if amount == 0:
            yield ()
        return
    for v in range(min(amount, caps[0]) + 1):
        for rest in _fillings(amount - v, caps[1:]):
            yield (v,) + rest


def _rsk_agrees(alpha, beta, rng) -> bool:
    tables = contingency_tables(alpha, beta)
    for table in rng.sample(tables, min(RSK_SAMPLES, len(tables))):
        insert_tab, record_tab = insertion_rsk(table)
        pair = rsk(table)
        if pair.P != record_tab or pair.Q != insert_tab:
            return False
    return True


def _dimension_ok(alpha, beta, dim) -> bool:
    return dim == count_contingency_tables(alpha, beta) == count_tables(alpha, beta)


def _lefschetz_ok(alpha, beta, maps) -> bool:
    hilbert = hilbert_kostka(alpha, beta)
    top = len(hilbert) - 1
    if [m["k"] for m in maps] != list(range(top // 2 + 1)):
        return False
    for m in maps:
        k = m["k"]
        if m["power"] != top - 2 * k:
            return False
        if (m["dim_source"], m["dim_target"]) != (hilbert[k], hilbert[top - k]):
            return False
        if m["rank"] > min(m["dim_source"], m["dim_target"]):
            return False
        if m["injective"] != (m["rank"] == m["dim_source"]):
            return False
    return True


# -- basis: in-process CLI calls -------------------------------------------


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


def _cli_json(result):
    status, text = result
    if status != 0:
        return None
    return json.loads(text)


def _basis_pairs():
    return [
        (a, b)
        for k, p, n in BASIS_SHAPES
        for a in partitions(n)
        if len(a) == k
        for b in partitions(n)
        if len(b) == p
    ]


def _composition(parts):
    return ",".join(str(v) for v in parts)


def _basis_ops(alpha, beta, rng):
    margins = ["--alpha", _composition(alpha), "--beta", _composition(beta)]
    tag = f"{_composition(alpha)}/{_composition(beta)}"
    rsk_seed = rng.randrange(1 << 30)

    def standard_ok(result):
        data = _cli_json(result)
        dim = int(data["dimension"])
        hilbert = [int(c) for c in data["hilbert"]]
        mats = data["standard_monomials"]
        subtingency = all(
            all(sum(row) <= a for row, a in zip(m["entries"], alpha))
            and all(sum(col) <= b for col, b in zip(zip(*m["entries"]), beta))
            for m in mats
        )
        return (
            _dimension_ok(alpha, beta, dim)
            and len(mats) == dim == sum(hilbert)
            and subtingency
            and _rsk_agrees(alpha, beta, random.Random(rsk_seed))
        )

    def verify_ok(result):
        data = _cli_json(result)
        return (
            data["lifts_vanish"] is True
            and data["dimension_match"] is True
            and data["standard_equals_matrix_ball"] is True
            and data["tables"] == data["dimension"]
            and _dimension_ok(alpha, beta, data["dimension"])
        )

    def lefschetz_ok(result):
        data = _cli_json(result)
        maps = data["maps"]
        n = sum(alpha)
        top = len(hilbert_kostka(alpha, beta)) - 1
        return (
            _lefschetz_ok(alpha, beta, maps)
            and data["min_zigzag"] == n - top
            and data["violations"] == [m["k"] for m in maps if not m["injective"]]
        )

    def hilbert_ok(result):
        data = _cli_json(result)
        coeffs = [int(c) for c in data["coeffs"]]
        return coeffs == hilbert_kostka(alpha, beta) and sum(coeffs) == count_tables(
            alpha, beta
        )

    return [
        Op(f"standard-basis {tag}", lambda: _cli(["standard-basis", *margins]), standard_ok),
        Op(f"verify {tag}", lambda: _cli(["verify", *margins]), verify_ok),
        Op(f"lefschetz {tag}", lambda: _cli(["lefschetz", *margins]), lefschetz_ok),
        Op(
            f"hilbert {tag}",
            lambda: _cli(["hilbert", *margins, "--method", "all"]),
            hilbert_ok,
        ),
    ]


def basis(rng):
    ops = []
    for alpha, beta in _basis_pairs():
        ops.extend(_basis_ops(alpha, beta, rng))
    return ops


# -- sweep: what `ctring sweep` does per pair, plus the one-row suite ------


def _sweep_pair(alpha, beta):
    model = QuotientModel(alpha, beta)
    standard_ok = model.standard_exponent_matrices() == derived_matrix_set(alpha, beta)
    kost = hilbert_kostka(alpha, beta)
    zz = hilbert_series_zigzag(alpha, beta)
    report = verify_associated_graded(alpha, beta, model=model)
    return {
        "standard_ok": standard_ok,
        "linear": list(model.hilbert),
        "kostka": kost,
        "zigzag": zz,
        "verify": report,
        "log_concavity": log_concavity_violations(kost),
        "lefschetz": lefschetz_report(model),
    }


def _sweep_op(alpha, beta, rng):
    rsk_seed = rng.randrange(1 << 30)

    def ok(r):
        v = r["verify"]
        return (
            r["standard_ok"]
            and r["linear"] == r["kostka"] == r["zigzag"]
            and v["lifts_vanish"]
            and v["dimension_match"]
            and _dimension_ok(alpha, beta, v["dimension"])
            and sum(r["linear"]) == v["dimension"]
            and _lefschetz_ok(alpha, beta, r["lefschetz"])
            and _rsk_agrees(alpha, beta, random.Random(rsk_seed))
        )

    return Op(f"sweep {alpha}/{beta}", lambda: _sweep_pair(alpha, beta), ok)


def _one_row(bounds):
    return {
        "formula": one_row_hilbert(bounds),
        "standard": one_row_standard_monomials(bounds),
        "counts": dimension_counts(bounds),
        "tableaux": two_row_tableaux(bounds),
    }


def _one_row_op(bounds):
    n = len(bounds)

    def content(row):
        return tuple(sum(1 for v in row if v == i + 1) for i in range(n))

    def ok(r):
        std = r["standard"]
        flat = {m for ms in std.values() for m in ms}
        c1, c2, c3 = r["counts"]
        return (
            r["formula"] == [len(std[d]) for d in sorted(std)]
            and c1 == c2 == c3 == sum(r["formula"])
            and flat == {content(bottom) for _, bottom in r["tableaux"]}
        )

    return Op(f"one-row {bounds}", lambda: _one_row(bounds), ok)


def sweep(rng):
    ops = []
    for n in range(SWEEP_MAX_N + 1):
        comps = weak_compositions_upto(n, SWEEP_MAX_LEN)
        for alpha in comps:
            for beta in comps:
                ops.append(_sweep_op(alpha, beta, rng))
    for total in range(1, ONE_ROW_MAX_TOTAL + 1):
        for bounds in strict_compositions(total):
            ops.append(_one_row_op(bounds))
    return ops


# -- conjectures: what `ctring conjectures` does per pair ------------------


def _log_concavity_op(mu, nu):
    n = sum(mu)

    def run():
        coeffs = hilbert_kostka(mu, nu)
        return {"coeffs": coeffs, "violations": log_concavity_violations(coeffs)}

    def ok(r):
        coeffs = r["coeffs"]
        if coeffs[0] != 1:
            return False
        if n <= TABLE_CHECK_MAX_N and sum(coeffs) != count_tables(mu, nu):
            return False
        return r["violations"] == [
            k
            for k in range(1, len(coeffs) - 1)
            if coeffs[k] * coeffs[k] < coeffs[k - 1] * coeffs[k + 1]
        ]

    return Op(f"log-concavity {mu}/{nu}", run, ok)


def _lefschetz_op(mu, nu):
    return Op(
        f"lefschetz {mu}/{nu}",
        lambda: lefschetz_report(QuotientModel(mu, nu)),
        lambda maps: _lefschetz_ok(mu, nu, maps),
    )


def _dominance(mu, nu):
    decomposition = graded_decomposition(mu, nu)
    group = pair_group(mu, nu)
    top = max(decomposition, default=0)
    empty = TensorSymFunc(tuple(group.sizes), "s")
    bad = []
    for k in range(1, top):
        outer = decomposition.get(k - 1, empty)
        inner = decomposition.get(k, empty)
        upper = decomposition.get(k + 1, empty)
        if kronecker_dominance(inner, kronecker_product(outer, upper, group), group):
            bad.append(k)
    return {"violations": bad, "decomposition": decomposition}


def _dominance_op(mu, nu):
    def ok(r):
        hilbert = hilbert_kostka(mu, nu)
        dims = {d: t.dimension() for d, t in r["decomposition"].items()}
        return dims == {d: c for d, c in enumerate(hilbert) if c}

    return Op(f"dominance {mu}/{nu}", lambda: _dominance(mu, nu), ok)


def _figure1_op(family):
    alpha = uniform_family(family)
    return Op(
        f"figure1 {family}",
        lambda: hilbert_kostka(alpha, alpha, max_degree=3),
        lambda coeffs: coeffs == FIGURE1_GOLDEN[family],
    )


def _ehrhart_op(alpha, beta):
    def ok(series):
        return series[0] == [1] and all(
            sum(coeffs) == count_tables([m * a for a in alpha], [m * b for b in beta])
            for m, coeffs in enumerate(series)
        )

    return Op(
        f"q-ehrhart {alpha}/{beta}",
        lambda: q_ehrhart(alpha, beta, EHRHART_UPTO),
        ok,
    )


def conjectures(rng):
    ops = []
    for n in range(1, LOG_CONCAVITY_MAX_N + 1):
        for mu in partitions(n):
            for nu in partitions(n):
                ops.append(_log_concavity_op(mu, nu))
    for n in range(1, LEFSCHETZ_MAX_N + 1):
        for mu in partitions(n):
            for nu in partitions(n):
                ops.append(_lefschetz_op(mu, nu))
    for n in range(1, DOMINANCE_MAX_N + 1):
        for mu in partitions(n):
            for nu in partitions(n):
                ops.append(_dominance_op(mu, nu))
    ops.extend(_figure1_op(family) for family in sorted(FIGURE1_GOLDEN))
    for alpha, beta in rng.sample(EHRHART_POOL, EHRHART_OPS):
        ops.append(_ehrhart_op(alpha, beta))
    return ops


WORKLOADS = {"basis": basis, "sweep": sweep, "conjectures": conjectures}


def build(name, seed):
    """The ops of one pass of workload `name`, in the order drawn by `seed`."""
    rng = random.Random(f"{name}:{seed}")
    ops = WORKLOADS[name](rng)
    rng.shuffle(ops)
    return ops

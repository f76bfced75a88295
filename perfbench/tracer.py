"""Spans around the public entry points of each ctring layer, installed from
outside the library.

`Tracer.install` replaces each target function or method with a wrapper that
records a span (name, parent, start, end), and rebinds *every* module
attribute, and every attribute of a ctring class, that holds the same object:
`from .partitions import kostka` copies the function into `series`, `tables`
and `symfunc` (and the benchmark's own modules import names the same way), so
patching `partitions.kostka` alone would miss most calls.  `uninstall` puts the
originals back.

A call of a function from inside its own span (the recursion in
`partitions.partitions`, or one `onerow` helper calling another) is folded
into the outer span, so `calls` counts calls made from outside the layer.

Spans are kept in flat arrays in memory; self times are computed from the span
tree afterwards (`self_times`), and the arrays are written out only when the
run ends (`dump`).
"""

import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

# span name -> (module, attribute paths in that module)
TARGETS = {
    "linalg.position_echelon": ("ctring.linalg", ["position_echelon"]),
    "linalg.HomogeneousIdeal.init": ("ctring.linalg", ["HomogeneousIdeal.__init__"]),
    "linalg.clean_monomials": ("ctring.linalg", ["HomogeneousIdeal.clean_monomials"]),
    "linalg.slice": ("ctring.linalg", ["HomogeneousIdeal.slice"]),
    "linalg.normal_form": ("ctring.linalg", ["HomogeneousIdeal.normal_form"]),
    "quotient.QuotientModel": ("ctring.quotient", ["QuotientModel.__init__"]),
    "quotient.lefschetz_report": ("ctring.quotient", ["lefschetz_report"]),
    "quotient.verify_associated_graded": ("ctring.quotient", ["verify_associated_graded"]),
    "polys.Poly.mul": ("ctring.polys", ["Poly.__mul__"]),
    "cli.main": ("ctring.cli", ["main"]),
    "partitions.kostka": ("ctring.partitions", ["kostka"]),
    "partitions.partitions": ("ctring.partitions", ["partitions"]),
    "series.hilbert_kostka": ("ctring.series", ["hilbert_kostka"]),
    "psi.graded_decomposition": ("ctring.psi", ["graded_decomposition"]),
    "psi.kronecker": ("ctring.psi", ["kronecker_product", "kronecker_dominance"]),
    "symfunc.tensor_multiplicities": (
        "ctring.symfunc",
        ["SymmetricProductGroup.tensor_multiplicities"],
    ),
    "tables.contingency_tables": ("ctring.tables", ["contingency_tables"]),
    "tables.zigzag_number": ("ctring.tables", ["zigzag_number"]),
    "matrixball.matrix_ball_step": ("ctring.matrixball", ["matrix_ball_step"]),
    "onerow": ("ctring.onerow", None),  # every public function of the module
}

COUNTER_SPAN = "trace.counters"


def _resolve(module, path):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _public_functions(module):
    return [
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]


def _namespaces():
    """Every loaded module, and every class defined in ctring: the places a
    target can be bound under some name (the benchmark's own modules too)."""
    out = {}
    for module in list(sys.modules.values()):
        if module is None:
            continue
        out[id(module)] = module
        if module.__name__ == "ctring" or module.__name__.startswith("ctring."):
            for obj in vars(module).values():
                if inspect.isclass(obj) and obj.__module__.startswith("ctring"):
                    out[id(obj)] = obj
    return list(out.values())


def coeff_bits(value) -> int:
    """Largest bit length of the numerator or denominator of a rational."""
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


class SliceStats:
    """Counts over the distinct slices returned by HomogeneousIdeal.slice
    within one op; a slice served from the ideal's cache is counted once."""

    def __init__(self):
        self.seen = {}
        self.reset()

    def reset(self):
        self.seen.clear()
        self.columns = 0
        self.rank = 0
        self.max_bits = 0

    def __call__(self, counts, args, result):
        if id(result) in self.seen:
            return
        self.seen[id(result)] = result  # keeps the id valid until end_op
        self.columns += len(result.columns)
        self.rank += len(result.rows)
        for row in result.rows.values():
            for c in row.values():
                bits = coeff_bits(c)
                if bits > self.max_bits:
                    self.max_bits = bits

    def end_op(self):
        self.seen.clear()


def _count_tables(counts, args, result):
    counts["tables.tables_enumerated"] = counts.get("tables.tables_enumerated", 0) + len(result)


class Tracer:
    """Records spans while installed and enabled.  Not thread-safe: the
    benchmark runs every op on one thread."""

    OP_SPAN = "bench.op"  # one per op; its self time is work outside every layer

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.counts = {}
        self.slice_stats = SliceStats()
        self.hooks = {
            "linalg.slice": self.slice_stats,
            "tables.contingency_tables": _count_tables,
        }
        self.enabled = False
        self._saved = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def close(self, idx):
        self.span_end[idx] = perf_counter()
        self.stack.pop()

    def reset(self):
        """Drop recorded spans and counts (between passes)."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.stack.clear()
        self.counts = {}
        self.slice_stats.reset()

    def end_op(self):
        self.slice_stats.end_op()

    def _wrap(self, name, fn):
        tracer = self
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            stack = tracer.stack
            if not tracer.enabled or (
                stack and tracer.names[tracer.span_name[stack[-1]]] == name
            ):
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.counts[name + ".calls"] = tracer.counts.get(name + ".calls", 0) + 1
            if hook is not None:
                # counting time is a child span, so it is not billed to the caller
                hidx = tracer.open(COUNTER_SPAN)
                hook(tracer.counts, args, result)
                tracer.close(hidx)
            return result

        return functools.wraps(fn)(traced)

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every target and rebind every name in _namespaces() that holds it."""
        originals = {}
        for span, (modname, paths) in TARGETS.items():
            module = importlib.import_module(modname)
            for path in paths if paths is not None else _public_functions(module):
                fn = _resolve(module, path)
                originals[id(fn)] = (span, fn)
        wrappers = {key: self._wrap(span, fn) for key, (span, fn) in originals.items()}
        for ns in _namespaces():
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and originals[id(value)][1] is value:
                    self._saved.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, value in reversed(self._saved):
            setattr(ns, attr, value)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def self_times(self):
        names = [self.names[n] for n in self.span_name]
        return self_times(names, self.span_parent, self.span_start, self.span_end)

    def layer_counts(self):
        counts = dict(self.counts)
        counts["linalg.slice_columns"] = self.slice_stats.columns
        counts["linalg.slice_rank"] = self.slice_stats.rank
        counts["linalg.max_coeff_bits"] = self.slice_stats.max_bits
        return counts

    def dump(self, path):
        """Write the spans of the current pass as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for n, parent, start, end in zip(
                self.span_name, self.span_parent, self.span_start, self.span_end
            ):
                fh.write(f"[{n},{parent},{start!r},{end!r}]\n")


def self_times(names, parents, starts, ends):
    """Per-name self time from parallel span columns: each span's duration
    minus the durations of its direct children (parent index -1 for a root).
    Spans nest (one thread), so the children's durations are exactly the
    part of the parent's interval they cover."""
    covered = [0.0] * len(names)
    for parent, start, end in zip(parents, starts, ends):
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for name, start, end, child in zip(names, starts, ends, covered):
        out[name] = out.get(name, 0.0) + (end - start) - child
    return out

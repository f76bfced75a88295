"""Degree-by-degree exact linear algebra for homogeneous ideals.

An ideal is presented by variable sums and line caps.  A sum puts the sum of
the variables of its support into the ideal; a cap (support, c) puts every
monomial of degree > c on the variables of support into the ideal.  A
monomial that meets every cap is "clean"; every multiple of an unclean
monomial is unclean, so the elimination only ever sees clean monomials, which
keeps the systems small.  The clean monomials of degree d extend those of
degree d - 1: each is made once, from its parent, by a variable at or after
the parent's last whose caps all have room, so they come out
lexicographically descending, with no search and no sort.  What the shape of
a presentation fixes (the variable count, the order, the sums and the cap
supports) is validated and laid out once, in a module-level memo: the sums
kept, the lines, their bitmasks and, per variable, the exponent getters of
the lines on it.  An ideal binds only its cap values, read by line index.

The degree-d slice of the ideal, modulo unclean monomials, is spanned by the
sums times the clean monomials of degree d - 1.  The term order is packed for
the degree into one integer weight per variable (order_weights), so each
monomial has one integer key, and the key is linear: key(f * x_v) = key(f) +
w[v].  The columns are the clean monomials of degree d sorted on their keys,
descending in the term order, each key its parent's plus w[v].  A row's
entries are its factor's key plus w[v] for the variables v of the sum
addable to the factor, looked up in one key -> position map.  Rows are
sparse dicts keyed by column position, so finding a pivot is a plain min().
Forward elimination runs over the integers on primitive rows (fraction-free,
as in Bareiss): its pivots are the degree-d part of the initial ideal, and
the remaining columns are the standard monomials.  These forward rows are the
only echelon form.  Normal forms need no back-substitution: a row holds no
entries left of its pivot, so reducing against the pivots in ascending
position order never brings back a pivot already cleared.  A normal form is
computed on integers times one common scale, divided out once at the end.

Most rows of a slice are Koszul consequences of the others, s * (s' * q) =
s' * (s * q), and are skipped before any arithmetic.  The degree-1 slice is
eliminated one sum at a time: a sum in the span of the earlier sums is
dropped from every degree, and each kept sum records its lead, the pivot it
adds.  The leads of the sums before s are the lead variables of their span,
and in degree d >= 2 the row s * factor is skipped when factor = x * q for
such a lead x.  With h in that span, led by x, s * x * q = s * q * h -
s * q * (h - x): the first term lies in the rows of the earlier sums, and
h - x holds only variables smaller than x, so in a monomial order the second
term is made of rows of s with smaller factors.  By induction over the sums
and then the factors in the order, every skipped row lies in the span of the
rows kept, which are eliminated together, as above.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter, mul
from types import MappingProxyType

from .partitions import bounded_compositions
from .polys import Poly, order_weights


def bounded_exponents(nvars, degree):
    """All exponent tuples in nvars variables with the given total degree,
    lexicographically descending."""
    return bounded_compositions(degree, (degree,) * nvars)


def integer_row(row):
    """A sparse rational row scaled by the lcm of its denominators: the same
    row up to a nonzero factor, with integer entries."""
    den = lcm(*(c.denominator for c in row.values()))
    return {p: int(c * den) for p, c in row.items()}


def _primitive(vec):
    """Divide out the gcd of the entries and make the lead positive, in place."""
    g = gcd(*vec.values())
    if vec[min(vec)] < 0:
        g = -g
    if g != 1:
        for p in vec:
            vec[p] //= g
    return vec


def _eliminate(vec, p, prow):
    """Clear position p of the integer row vec with the integer row prow, in
    place: vec <- (a/g) vec - (c/g) prow, where a = prow[p], c = vec[p] and
    g = gcd(a, c).  Returns the factor a/g that vec was scaled by."""
    c = vec.pop(p)
    a = prow[p]
    if a != 1:
        g = gcd(a, c)
        a //= g
        c //= g
        if a != 1:
            for q in vec:
                vec[q] *= a
    for q, pc in prow.items():
        if q == p:
            continue
        val = vec.get(q, 0) - c * pc
        if val:
            vec[q] = val
        else:
            del vec[q]
    return a


def position_echelon(rows, done=None):
    """Row echelon form over the integers of sparse integer rows keyed by
    column position, position 0 being the leading column.

    Returns {pivot position: row}, each row primitive (entries with gcd 1)
    with a positive pivot entry and no entries left of its pivot.  Forward
    elimination only: a pivot row may still hold later pivot columns.  Given
    `done`, an echelon of this form, the rows are reduced into it: new pivot
    rows are added to `done`, which is returned, and its own rows are left
    as they are."""
    if done is None:
        done = {}
    # trailing leads first: a row whose lead is not yet a pivot column becomes
    # a pivot row without reduction.  On margin ideals this order eliminates
    # about three times faster than the order the rows are generated in.
    for vec in sorted(filter(None, rows), key=min, reverse=True):
        vec = dict(vec)
        while vec:
            lead = min(vec)
            prow = done.get(lead)
            if prow is None:
                done[lead] = _primitive(vec)
                break
            _eliminate(vec, lead, prow)
    return done


def extreme_monomials(polys, order, smallest=False):
    """The set { leading (or trailing) monomial of f : f in span(polys) - 0 }
    in the term order given by the supports `order` (None: plain lex).

    Gaussian elimination with columns sorted by the order (ascending when
    `smallest`) makes these exactly the pivot monomials.  The order is packed
    with the largest total degree present, so terms of mixed degrees compare
    exactly.
    """
    if len({p.nvars for p in polys}) > 1:
        raise ValueError("variable count mismatch")
    monomials = {m for p in polys for m in p.terms}
    if not monomials:
        return set()
    if order is not None:
        order = tuple(map(tuple, order))
    top = max(map(sum, monomials))
    weights = order_weights(order, polys[0].nvars, top)
    by_key = {sum(map(mul, weights, m)): m for m in monomials}
    columns = [by_key[k] for k in sorted(by_key, reverse=not smallest)]
    index = {m: i for i, m in enumerate(columns)}
    rows = [integer_row({index[m]: c for m, c in p.terms.items()}) for p in polys]
    return {columns[lead] for lead in position_echelon(rows)}


class DegreeBasis:
    """Echelon basis of one degree slice of a homogeneous ideal.

    `columns` lists the clean monomials of the degree in order-descending
    sequence.  `weights` is the term order packed for the degree
    (order_weights), so key(m) is one integer per monomial, and `position`
    maps the key of each column to its position.  `rows` holds the primitive
    integer rows of forward elimination keyed by pivot position, in
    ascending pivot order.  The slice is cached and shared by every caller,
    so `position`, `rows` and each row are read-only views.
    """

    __slots__ = ("columns", "weights", "position", "rows", "standard")

    def __init__(self, columns, weights, position, rows):
        self.columns = columns
        self.weights = weights
        self.position = MappingProxyType(position)
        self.rows = MappingProxyType(
            {p: MappingProxyType(row) for p, row in sorted(rows.items())}
        )
        self.standard = tuple(m for i, m in enumerate(columns) if i not in rows)

    def key(self, exps) -> int:
        """The packed order key, injective on monomials of degree at most the
        slice degree: position.get(key(m)) is m's column, or None when m is
        not clean."""
        return sum(map(mul, self.weights, exps))


@lru_cache(maxsize=4096)
def _variables(mask) -> tuple:
    """The variables of a bitmask, ascending."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


@lru_cache(maxsize=1024)
def _layout(nvars, order, sums, supports) -> tuple:
    """The part of a HomogeneousIdeal that its shape fixes, whatever its cap
    values: (sums kept, lines, line of each cap, bitmask of each line, per
    variable the (exponent getter, line, ~bitmask) of each line on it).

    The lines are the distinct cap supports, in order of first appearance;
    a one-variable sum adds a cap past those given, on its variable.  Raises
    ValueError on an order that is not total, a bad sum or a bad support."""
    order_weights(order, nvars, 0)  # raises on an order that is not total
    kept = []
    for support in sums:
        support = tuple(sorted(set(support)))
        if not all(0 <= v < nvars for v in support):
            raise ValueError(f"bad sum on support {support}")
        if len(support) == 1:
            supports += (support,)
        elif support not in kept:
            kept.append(support)
    index = {}
    line_of = []
    for support in supports:
        if not all(0 <= v < nvars for v in support):
            raise ValueError(f"bad cap support {support}")
        line_of.append(index.setdefault(support, len(index)))
    lines = tuple(index)
    masks = []
    touch = [[] for _ in range(nvars)]
    for line, support in enumerate(lines):
        support = sorted(set(support))
        masks.append(sum(1 << v for v in support))
        load = itemgetter(*support) if support[1:] else None
        for v in support:  # a single variable's getter slices out its 1-tuple
            touch[v].append((load or itemgetter(slice(v, v + 1)), line, ~masks[-1]))
    return tuple(kept), lines, tuple(line_of), tuple(masks), tuple(map(tuple, touch))


class HomogeneousIdeal:
    """An ideal presented by variable sums and line caps, sliced degree by
    degree.

    `sums` holds supports, sequences of variable indices; each puts the sum
    of its variables into the ideal.  Supports holding the same variables
    are one sum, and a sum over a single variable is that variable itself,
    which is the cap 0 on it.  `caps` holds (support, cap) pairs: every
    monomial on the variables of support of degree greater than cap lies in
    the ideal.  For the margin ideal the sums are the row and column sums and
    the caps the row and column margins.  A negative cap or a variable index
    outside range(nvars) raises ValueError.

    `order` is the term order as supports, most significant first
    (order_weights; None: plain lex).  Monomials compare by their degree on
    each support in turn, and each degree is linear, so y < x implies
    y * q < x * q: every such order is a monomial order by construction.  The
    slices need that, as they skip every row s * x * q whose factor is
    divisible by a lead variable x of the sums before s, and the skipped row
    lies in the span of the rows kept only under a monomial order.  An order
    with no singleton support on some variable is not total and raises
    ValueError.
    """

    def __init__(self, nvars, order, sums=(), caps=()):
        self.nvars = nvars
        self.order = None if order is None else tuple(map(tuple, order))
        caps = tuple(caps)
        sums, lines, line_of, masks, self._touch = _layout(
            nvars, self.order, tuple(map(tuple, sums)), tuple(tuple(s) for s, _ in caps)
        )
        self.sums = list(sums)
        # the cap of each line: the least cap on its support, a one-variable
        # sum being the cap 0 (the caps past those given)
        bounds = [None] * len(lines)
        values = [cap for _, cap in caps] + [0] * (len(line_of) - len(caps))
        for line, cap in zip(line_of, values):
            if cap < 0:
                raise ValueError(f"bad cap {cap} on support {lines[line]}")
            if bounds[line] is None or cap < bounds[line]:
                bounds[line] = cap
        self._bounds = bounds
        self.caps = tuple(zip(lines, bounds))
        addable = (1 << nvars) - 1  # the variables whose caps all have room
        for bits, cap in zip(masks, bounds):
            if not cap:
                addable &= ~bits
        # per degree from 0: the clean monomials, and for each its addable
        # variables as a bitmask and its last variable
        self._clean = [((0,) * nvars,)]
        self._addable = [[addable]]
        self._last = [[0]]
        self._slices = {}
        self._kept = None  # (bitmask, lead variable) of each sum kept, set by slice(1)

    def clean_monomials(self, degree):
        """The clean monomials of one degree, lexicographically descending,
        as a tuple, which the slices and every caller share; none below
        degree 0.  For the margin ideal these are the subtingency tables.

        Degree d extends degree d - 1.  A clean monomial is made once, from
        its parent, which has one less on its last variable: the parent
        times a variable v at or after the parent's last, taken from the
        parent's addable variables, those whose caps all have room.  A cap
        on v that fills takes its support out of the child's addable
        variables.  Parents in order, each extended by ascending v, come out
        lexicographically descending.  Past an empty degree all are empty."""
        clean, touch, bounds = self._clean, self._touch, self._bounds
        while len(clean) <= degree and clean[-1]:
            monomials, addables, lasts = [], [], []
            parents = zip(clean[-1], self._addable[-1], self._last[-1])
            for parent, addable, last in parents:
                for v in _variables(addable >> last << last):
                    child = parent[:v] + (parent[v] + 1,) + parent[v + 1 :]
                    room = addable
                    for load, line, off in touch[v]:
                        if sum(load(child)) == bounds[line]:
                            room &= off
                    monomials.append(child)
                    addables.append(room)
                    lasts.append(v)
            clean.append(tuple(monomials))
            self._addable.append(addables)
            self._last.append(lasts)
        return clean[degree] if 0 <= degree < len(clean) else ()

    def slice(self, degree) -> DegreeBasis:
        """The echelon basis of the degree, cached.  Each column's key is
        its parent's key plus w[v] (clean_monomials); the parents are the
        clean factors of degree - 1, and only their keys are dot products.
        The row of a sum times a factor q holds q * x_v for the variables v
        of the sum addable to q, which are exactly its clean monomials."""
        cached = self._slices.get(degree)
        if cached is not None:
            return cached
        weights = order_weights(self.order, self.nvars, degree)
        monomials = self.clean_monomials(degree)
        keys = [0] * len(monomials)  # the monomial 1, or none below degree 0
        factors = []
        if degree > 0 and monomials:
            # each clean factor with its key and addable variables
            below = zip(self._clean[degree - 1], self._addable[degree - 1])
            factors = [(q, sum(map(mul, weights, q)), addable) for q, addable in below]
            keys = [
                key + weights[v]
                for (_, key, addable), last in zip(factors, self._last[degree - 1])
                for v in _variables(addable >> last << last)
            ]
        by_key = dict(zip(keys, monomials))
        keys = sorted(by_key, reverse=True)
        columns = tuple(map(by_key.__getitem__, keys))
        position = dict(zip(keys, range(len(keys))))
        rows = {}
        if degree == 1:
            # one sum at a time: a sum that raises the rank is kept, with its
            # own lead, the pivot it adds (the last key of rows); the key of
            # x_v is w[v]
            self._kept = []
            for support in self.sums:
                rank = len(rows)
                bits = sum(1 << v for v in support)
                addable = _variables(self._addable[0][0] & bits)
                position_echelon([{position[weights[v]]: 1 for v in addable}], rows)
                if len(rows) > rank:
                    lead = columns[next(reversed(rows))].index(1)
                    self._kept.append((bits, lead))
        elif degree > 1:
            self.slice(1)  # records self._kept
            rows = []
            for bits, lead in self._kept:
                for _, key, addable in factors:
                    # the sum times a clean factor, on its clean monomials
                    addable = _variables(addable & bits)
                    rows.append({position[key + weights[v]]: 1 for v in addable})
                # Koszul: every later sum skips the factors this lead divides
                factors = [f for f in factors if not f[0][lead]]
            rows = position_echelon(rows)
        basis = DegreeBasis(columns, weights, position, rows)
        self._slices[degree] = basis
        return basis

    def standard_monomials(self, degree):
        """The standard monomials of the degree: a monomial of the degree lies
        in the initial ideal exactly when it is not one of them."""
        return self.slice(degree).standard

    def normal_form(self, poly: Poly) -> Poly:
        """Reduce modulo the ideal onto the span of standard monomials.

        The result is the unique representative of poly supported on standard
        monomials; the map is linear and fixes standard monomials.  The input
        is scaled to integers by the lcm of its denominators, and each
        coefficient is divided by the accumulated scale once; it stays an int
        when the division is exact.
        """
        if poly.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        den = lcm(*(c.denominator for c in poly.terms.values()))
        out = {}
        for degree, part in poly.homogeneous_parts().items():
            basis = self.slice(degree)
            # the slice's columns are exactly the clean monomials of the degree
            vec = {}
            for m, c in part.terms.items():
                pos = basis.position.get(basis.key(m))
                if pos is not None:
                    vec[pos] = int(c * den)
            scale = den  # times the factor of each elimination, smallest pivot first
            for p, prow in basis.rows.items():
                if p in vec:
                    scale *= _eliminate(vec, p, prow)
            for p, c in vec.items():
                q, r = divmod(c, scale)
                out[basis.columns[p]] = Fraction(c, scale) if r else q
        return Poly(poly.nvars, out)


def linear_form(nvars, support) -> Poly:
    """The sum of the variables whose indices are in support."""
    return Poly(
        nvars,
        {tuple(1 if v == u else 0 for v in range(nvars)): 1 for u in support},
    )


"""Degree-by-degree exact linear algebra for homogeneous ideals.

An ideal is presented by powers of line sums and by line caps.  A line sum is
the sum of the variables of a support.  A power (lines, e) puts every product
of e of its line sums into the ideal, so a plain sum is the power
((line,), 1); a cap (support, c) puts every monomial of degree > c on the
variables of support into the ideal.  A monomial that meets every cap is
"clean"; every multiple of an unclean monomial is unclean, so the elimination
only ever sees clean monomials, which keeps the systems small.  The clean
monomials of degree d extend those of degree d - 1: each is made once, from
its parent, by a variable at or after the parent's last whose caps all have
room, so they come out lexicographically descending, with no search and no
sort.  What the shape of a presentation fixes (the variable count, the order,
the powers and the cap supports) is validated and laid out once, in a
module-level memo: the lines of each power and their leads, the cap lines,
their bitmasks and, per variable, the exponent getters of the lines on it.
An ideal binds only its cap values, read by line index.

The term order is packed once per ideal into one integer weight per variable
(order_weights), exact on the monomials of degree at most a bound, so each
monomial has one integer key, and the key is linear: key(f * g) = key(f) +
key(g).  Every variable lies on a cap line, so the bound is the sum of the
caps of lines that cover every variable, which no clean monomial exceeds:
the row caps of the margin block, the bounds of a one-row ideal.  The order
is packed when the ideal is built and never again.  The clean-monomial walk
carries the keys: a child's key is its parent's plus w[v].

Products are multiplied out one linear factor at a time by one step
(times), on terms keyed in the packing, which keeps only the terms that are
clean monomials of the next degree, read from the clean monomials
themselves: x_v * m is clean exactly when m is clean and v is one of its
addable variables, looked up by m's key, and the multiple's key is
key(m) + w[v].  Every multiple of an unclean monomial is unclean, so the
terms kept are the clean terms of the whole product.  The products of a
power (lines, e), with their multinomial coefficients, are memoized on the
ideal and built by the first slice of degree at least e that has a column:
a power above the last clean degree costs nothing, and a product is
multiplied out only as far as it keeps a clean term.  No exponent tuple is
built or hashed from the walk to the rows.

The degree-d slice of the ideal, modulo unclean monomials, is spanned by the
products of each power (lines, e) times the clean monomials of degree d - e.
The columns are the clean monomials of degree d sorted on their keys,
descending in the term order.  A row is one product times one clean factor:
its entries sit at the factor's key plus the key of each term of the
product, looked up in one key -> position map, and a term that lands on no
column is unclean and dropped.  Rows are sparse dicts keyed by
column position, so finding a pivot is a plain min().  Forward elimination
runs over the integers on primitive rows (fraction-free, as in Bareiss): its
pivots are the degree-d part of the initial ideal, and the remaining columns
are the standard monomials.  Elimination stops once every column is a pivot:
the rows taken then span the whole slice, every later row would reduce to
zero, and the echelon is the same.  A slice past the last standard monomial
has full rank, so its dependent rows cost nothing.  These forward rows are
the only echelon form.
Normal forms need no back-substitution: a row holds no entries left of its
pivot, so reducing against the pivots in ascending position order never
brings back a pivot already cleared.  A normal form is computed on integers
times one common scale, divided out once at the end.

Rows are skipped before any arithmetic.  With the lines of a power in their
given order, each led by its largest variable, the row of a product P whose
last line is l_a times a factor x_b * q, where x_b leads a line l_b before
l_a, is skipped.  With P' = P * l_b / l_a, so that P * l_b = P' * l_a,

    P * x_b * q = P' * x_a * q + P' * (l_a - x_a) * q - P * (l_b - x_b) * q.

P' comes before P when products are compared by their line indices, largest
first, and l_b - x_b holds only variables smaller than x_b, so in a monomial
order the last term is made of rows of P with smaller factors.  By induction
over the products and then the factors, every skipped row lies in the span
of the rows kept, modulo the unclean monomials.
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


def position_echelon(rows, ncols=None):
    """Row echelon form over the integers of sparse integer rows keyed by
    column position, position 0 being the leading column.

    Returns {pivot position: row}, each row primitive (entries with gcd 1)
    with a positive pivot entry and no entries left of its pivot.  Forward
    elimination only: a pivot row may still hold later pivot columns.

    Given the column count ncols, it stops taking rows once it holds ncols
    pivots: the pivot rows then span every row, so each later row would
    reduce to zero, and the echelon returned is the same."""
    done = {}
    # trailing leads first: a row whose lead is not yet a pivot column becomes
    # a pivot row without reduction.  On margin ideals this order eliminates
    # about three times faster than the order the rows are generated in.
    for vec in sorted(filter(None, rows), key=min, reverse=True):
        if len(done) == ncols:
            break
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
    return {columns[lead] for lead in position_echelon(rows, len(columns))}


class DegreeBasis:
    """Echelon basis of one degree slice of a homogeneous ideal.

    `columns` lists the clean monomials of the degree in order-descending
    sequence.  `weights` is the ideal's one packing of the term order
    (order_weights), so key(m) is one integer per monomial, injective up to
    the degree the ideal's caps bound, and `position` maps the key of each
    column to its position.  `rows` holds the primitive integer rows of
    forward elimination keyed by pivot position, in ascending pivot order.
    The slice is cached and shared by every caller, so `position`, `rows`
    and each row are read-only views.
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
        degree the ideal's caps bound: position.get(key(m)) is m's column, or
        None when m is not clean."""
        return sum(map(mul, self.weights, exps))

    def reduce(self, vec) -> int:
        """Reduce a sparse integer row keyed by column position against the
        rows, in place, onto the standard columns, and return the factor it
        was scaled by.  A row holds no entries left of its pivot, so taking
        the pivots in ascending order never brings back one already cleared."""
        scale = 1
        for p, prow in self.rows.items():
            if p in vec:
                scale *= _eliminate(vec, p, prow)
        return scale


@lru_cache(maxsize=4096)
def _variables(mask) -> tuple:
    """The variables of a bitmask, ascending."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


@lru_cache(maxsize=1024)
def _layout(nvars, order, powers, supports) -> tuple:
    """The part of a HomogeneousIdeal that its shape fixes, whatever its cap
    values: ((e, lines, lead bitmasks) per power, lines, line of each cap,
    bitmask of each line, per variable the (exponent getter, line, ~bitmask)
    of each line on it, the values of the caps past those given).  The
    products of a power are left to HomogeneousIdeal._products.

    A power keeps its distinct nonempty lines, in order: an empty line sums
    to 0, so a power with no line left puts nothing into the ideal and is
    dropped.  A power whose lines are single variables is the cap e - 1 on
    their union, added past the caps given.  The lines are the distinct cap
    supports, in order of first appearance.  Raises ValueError on an order
    that is not total, an exponent below 1, a bad line or support, or a
    variable on no line."""
    # raises on an order that is not total; ranks the variables
    key = order_weights(order, nvars, 1).__getitem__
    powered = []
    extra = []
    for lines, e in powers:
        if e < 1:
            raise ValueError(f"bad power exponent {e}")
        kept = []
        for line in lines:
            line = tuple(sorted(set(line)))
            if not all(0 <= v < nvars for v in line):
                raise ValueError(f"bad line {line} in a power")
            if line and line not in kept:
                kept.append(line)
        if all(len(line) == 1 for line in kept):
            if kept:
                supports += (tuple(v for (v,) in kept),)
                extra.append(e - 1)
            continue
        leads = tuple(1 << max(line, key=key) for line in kept)
        powered.append((e, tuple(kept), leads))
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
    for v, on in enumerate(touch):
        if not on:
            raise ValueError(f"variable {v} lies on no cap: caps must bound every variable")
    return (
        tuple(powered),
        lines,
        tuple(line_of),
        tuple(masks),
        tuple(map(tuple, touch)),
        tuple(extra),
    )


class HomogeneousIdeal:
    """An ideal presented by powers of line sums and by line caps, sliced
    degree by degree.

    `powers` holds (lines, e) pairs, lines a sequence of supports (sequences
    of variable indices) and e >= 1: every product of e of the sums of the
    lines lies in the ideal.  A plain sum is the power ((support,), 1).
    Supports holding the same variables are one line, an empty support sums
    to 0, and a power on single variables is a cap: every monomial of degree
    e on them.  `caps` holds (support, cap) pairs: every monomial on the
    variables of support of degree greater than cap lies in the ideal.  A
    negative cap, a variable on no cap (a power on single variables counts
    as one), an exponent below 1 or a variable index outside range(nvars)
    raises ValueError.  The caps thus bound the degree of every clean
    monomial, and the order is packed once, here, up to that bound.

    `order` is the term order as supports, most significant first
    (order_weights; None: plain lex).  Monomials compare by their degree on
    each support in turn, and each degree is linear, so y < x implies
    y * q < x * q: every such order is a monomial order by construction.  The
    slices need that, as they skip every row of a product times a factor
    divisible by the lead of one of its power's lines before its last, and
    the skipped row lies in the span of the rows kept only under a monomial
    order.  An order with no singleton support on some variable is not
    total and raises ValueError.
    """

    def __init__(self, nvars, order, powers=(), caps=()):
        self.nvars = nvars
        self.order = None if order is None else tuple(map(tuple, order))
        caps = tuple(caps)
        powers = tuple((tuple(map(tuple, lines)), e) for lines, e in powers)
        self._powers, lines, line_of, masks, self._touch, extra = _layout(
            nvars, self.order, powers, tuple(tuple(s) for s, _ in caps)
        )
        # the cap of each line: the least cap on its support, a power on
        # single variables giving a cap past those given
        bounds = [None] * len(lines)
        values = [cap for _, cap in caps] + list(extra)
        for line, cap in zip(line_of, values):
            if cap < 0:
                raise ValueError(f"bad cap {cap} on support {lines[line]}")
            if bounds[line] is None or cap < bounds[line]:
                bounds[line] = cap
        self._bounds = bounds
        self.caps = tuple(zip(lines, bounds))
        addable = (1 << nvars) - 1  # the variables whose caps all have room
        # a clean monomial's degree is at most the caps of lines that cover
        # every variable, taken in order
        bound, left = 0, addable
        for bits, cap in zip(masks, bounds):
            if not cap:
                addable &= ~bits
            if left & bits:
                bound += cap
                left &= ~bits
        self._weights = order_weights(self.order, nvars, bound)
        # per degree from 0: the clean monomials, and for each its addable
        # variables and its variables as bitmasks, and its key in the packed
        # order
        self._clean = [((0,) * nvars,)]
        self._addable = [[addable]]
        self._support = [[0]]
        self._keys = [[0]]
        self._addable_of = {}  # degree -> {key of a clean monomial: addable variables}
        self._products_of = {}  # (lines, e) -> the products of a power
        self._slices = {}

    def clean_monomials(self, degree):
        """The clean monomials of one degree, lexicographically descending,
        as a tuple, which the slices and every caller share; none below
        degree 0.  For the margin ideal these are the subtingency tables.

        Degree d extends degree d - 1.  A clean monomial is made once, from
        its parent, which has one less on its last variable: the parent
        times a variable v at or after the parent's last, taken from the
        parent's addable variables, those whose caps all have room; the
        parent's last is the top bit of its support.  A cap on v that fills
        takes its support out of the child's addable variables.  Parents in
        order, each extended by ascending v, come out lexicographically
        descending.  Past an empty degree all are empty.
        A child's key is its parent's plus w[v], in the ideal's packing."""
        clean, touch, bounds, weights = self._clean, self._touch, self._bounds, self._weights
        while len(clean) <= degree and clean[-1]:
            monomials, addables, supports, keys = [], [], [], []
            parents = zip(clean[-1], self._addable[-1], self._support[-1], self._keys[-1])
            for parent, addable, support, key in parents:
                last = (support.bit_length() or 1) - 1
                for v in _variables(addable >> last << last):
                    child = parent[:v] + (parent[v] + 1,) + parent[v + 1 :]
                    room = addable
                    for load, line, off in touch[v]:
                        if sum(load(child)) == bounds[line]:
                            room &= off
                    monomials.append(child)
                    addables.append(room)
                    supports.append(support | 1 << v)
                    keys.append(key + weights[v])
            clean.append(tuple(monomials))
            self._addable.append(addables)
            self._support.append(supports)
            self._keys.append(keys)
        return clean[degree] if 0 <= degree < len(clean) else ()

    def times(self, terms, degree, form) -> dict:
        """Homogeneous terms {key: coefficient} of the degree, keyed in the
        ideal's packed order, times the linear form given as (variable,
        coefficient) pairs, keeping the terms that are clean monomials of
        the next degree and whose coefficients do not cancel.  A multiple
        x_v * m is clean exactly when m is clean and v is one of m's
        addable variables (clean_monomials), so each term's addable
        variables are looked up once by its key, memoized per degree, and
        only its clean multiples are made, each keyed key(m) + w[v].  Every
        multiple of an unclean monomial is unclean, so a product of linear
        forms taken a factor at a time keeps exactly the clean terms of the
        whole product."""
        if not terms:
            return {}
        addable = self._addable_of.get(degree)
        if addable is None:
            clean = self.clean_monomials(degree)
            addable = dict(zip(self._keys[degree], self._addable[degree])) if clean else {}
            self._addable_of[degree] = addable
        weights = self._weights
        form = [(1 << v, weights[v], a) for v, a in form]
        step = {}
        for key, c in terms.items():
            room = addable.get(key, 0)
            for bit, w, a in form:
                if room & bit:
                    up = key + w
                    step[up] = step.get(up, 0) + c * a
        return {m: c for m, c in step.items() if c}

    def _products(self, e, lines, leads) -> list:
        """Every product of e of the sums of the lines of a power with a
        clean term, as (its clean terms as (key, coefficient) pairs, the
        bitmask of the leads of the lines before its last), memoized.  The
        products are multiplied out a line at a time (times), and one with
        no clean term left is dropped with all its extensions, so a product
        goes only as far as it can reach a clean monomial."""
        products = self._products_of.get((lines, e))
        if products is None:
            forms = [[(v, 1) for v in line] for line in lines]
            level = [(0, {0: 1})]  # (last line, terms) per product of t lines; key(1) = 0
            for t in range(e):
                level = [
                    (i, terms)
                    for last, partial in level
                    for i in range(last, len(lines))
                    for terms in (self.times(partial, t, forms[i]),)
                    if terms
                ]
            products = [(tuple(terms.items()), sum(set(leads[:last]))) for last, terms in level]
            self._products_of[lines, e] = products
        return products

    def slice(self, degree) -> DegreeBasis:
        """The echelon basis of the degree, cached.  The columns' keys and
        the factors' keys are those of the clean-monomial walk, and a
        product's terms are its offsets (key(f * q) = key(f) + key(q)), so
        no key is a dot product.  A product of a power of exponent e times
        a clean factor of degree - e is one row, unless it is skipped (see
        the module docstring)."""
        cached = self._slices.get(degree)
        if cached is not None:
            return cached
        monomials = self.clean_monomials(degree)
        keys = self._keys[degree] if monomials else []
        by_key = dict(zip(keys, monomials))
        keys = sorted(by_key, reverse=True)
        columns = tuple(map(by_key.__getitem__, keys))
        position = dict(zip(keys, range(len(keys))))
        get = position.get
        rows = []
        for e, lines, leads in self._powers if monomials else ():
            if e > degree:
                continue
            below = list(zip(self._keys[degree - e], self._support[degree - e]))
            for offsets, skip in self._products(e, lines, leads):
                for key, support in below:
                    if support & skip:
                        continue
                    row = {}
                    for offset, c in offsets:
                        pos = get(key + offset)
                        if pos is not None:
                            row[pos] = c
                    rows.append(row)
        basis = DegreeBasis(
            columns, self._weights, position, position_echelon(rows, len(columns))
        )
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
            scale = den * basis.reduce(vec)
            for p, c in vec.items():
                q, r = divmod(c, scale)
                out[basis.columns[p]] = Fraction(c, scale) if r else q
        return Poly(poly.nvars, out)


@lru_cache(maxsize=64)
def _unit_exponents(nvars) -> tuple:
    """The exponent tuple of each of the nvars variables, x_0 first."""
    return tuple(tuple(1 if v == u else 0 for v in range(nvars)) for u in range(nvars))


def linear_form(nvars, support) -> Poly:
    """The sum of the variables whose indices are in support."""
    units = _unit_exponents(nvars)
    return Poly(nvars, {units[u]: 1 for u in support})


"""Symbolic grammar of order types: ADT, parser, printer, normalizer.

Text grammar (whitespace insignificant)::

    expr  := sum
    sum   := prod ('+' prod)*
    prod  := unary ('*' unary)*
    unary := atom '~'*      (at most MAX_NESTING '~' in a row)
    atom  := NAT | 'w' | 'z' | 'q' | 'r'
           | 'w' '^' '(' expr ')'
           | 'geom' '(' expr [',' NAT] ')'
           | 'geomrev' '(' expr [',' NAT] ')'
           | 'revsum' '(' expr ')'
           | '(' expr ')'

Semantics: ``a*b`` is the product "ab" -- every point of b replaced by
a copy of a (anti-lexicographic); ``~`` is reversal; ``w``/``z``/``q``/
``r`` are the types of the naturals, integers, rationals and reals.
``geom(b)`` is the w-indexed sum of the powers b^n (ascending n),
``geomrev(b)`` the w*-indexed sum (descending n, b^0 rightmost); the
optional second argument starts the power sequence at n = k instead of
n = 0.  ``revsum(a)`` is the w*-indexed sum of the canonical
fundamental sequence of the limit ordinal a (an artifact extension of
the base grammar, needed to present witnesses).

Normal form: no ``Rev`` nodes except implicitly in the reversed leaf
forms, no Sum directly under Sum, products distributed over index
sums, finite index products expanded, and every maximal pure-ordinal
(or reversed-pure-ordinal) subterm folded into canonical leaves.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, fields
from math import inf
from typing import Optional, Tuple

from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    fundamental_sequence,
)


# The slots of a node that hold its derived data, None until computed.
_DERIVED = (
    "_nf", "_rev", "_count", "_co", "_facts", "_pieces", "_cuts",
    "_shallow_cuts", "_powers", "_text",
)


class Term:
    """Base class of all term nodes (immutable and interned).

    A constructor returns the live node with its class and fields when
    there is one, so equal terms are the same object: equality is
    identity, and the hash, that of the tuple of fields, is computed
    once (hash-consing; Filliatre & Conchon, "Type-safe modular
    hash-consing", ML Workshop 2006).  The data derived from a node is
    kept in its slots, computed on first use, and dies with it: its
    normal form, reverse, point count, reversed-ordinal value
    (``co_ordinal``) and printed form (here), its facts
    (``analysis.facts``), its pieces and cuts (``engine.term_pieces``,
    ``engine.term_cuts``) and, for the base of a geometric sum, its
    powers in normal form (``engine._npow``).
    """

    __slots__ = ("_hash", *_DERIVED, "__weakref__")

    def __post_init__(self):
        pass

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._names)


#: Sets a slot of a node: its fields once, its derived data on first use.
set_derived = object.__setattr__

# (class, *fields) -> a weak reference to the node, with each term in
# the fields by its id: a live node keeps its terms alive, so the ids
# are theirs, and a dead entry keeps nothing alive.  It stays until the
# next sweep, which runs when the table has doubled; weakref callbacks
# would run Python code at arbitrary points, where a signal handler's
# exception would be swallowed.
_TABLE: dict = {}
_SWEEP_AT = 1024


# Held while a node is made and entered.  Reentrant, as a finalizer run
# by the garbage collector while a node is made may make terms too.
_MAKING = threading.RLock()


def _intern(cls, key, values) -> Term:
    """The live node of the class with these field values (``key``
    names them), made if there is none."""
    ref = _TABLE.get(key)
    node = None if ref is None else ref()
    if node is None:
        with _MAKING:
            node = _make(cls, key, values)
    return node


def _make(cls, key, values) -> Term:
    global _TABLE, _SWEEP_AT
    ref = _TABLE.get(key)  # another thread may have made it
    node = None if ref is None else ref()
    if node is not None:
        return node
    node = object.__new__(cls)
    for name, value in zip(cls._names, values):
        set_derived(node, name, value)
    set_derived(node, "_hash", hash(values))
    for name in _DERIVED:
        set_derived(node, name, None)
    node.__post_init__()
    _TABLE[key] = weakref.ref(node)
    if len(_TABLE) >= _SWEEP_AT:
        _TABLE = {k: r for k, r in _TABLE.items() if r() is not None}
        _SWEEP_AT = 2 * max(len(_TABLE), 512)
    return node


def _node(cls):
    """Declare a term node class: a frozen dataclass of its fields,
    compared by identity.  Its ``__new__`` calls ``_intern``."""
    cls = dataclass(frozen=True, eq=False, init=False, slots=True)(cls)
    cls._names = tuple(f.name for f in fields(cls))
    return cls


@_node
class OrdLeaf(Term):
    """A pure ordinal below epsilon_0."""

    value: Ordinal

    def __new__(cls, value):
        return _intern(cls, (cls, value), (value,))


@_node
class RevOrd(Term):
    """The reverse of an infinite additively indecomposable ordinal.

    ``power`` is the ordinal w^e being reversed; reversed decomposable
    ordinals are expanded into sums of these plus a finite prefix.
    """

    power: Ordinal

    def __new__(cls, power):
        return _intern(cls, (cls, power), (power,))

    def __post_init__(self):
        if self.power.is_finite() or not self.power.is_additively_indecomposable():
            raise ValueError("RevOrd requires an infinite w-power")


@_node
class Zeta(Term):
    """The order type of the integers."""

    def __new__(cls):
        return _intern(cls, (cls,), ())


@_node
class Eta(Term):
    """The order type of the rationals."""

    def __new__(cls):
        return _intern(cls, (cls,), ())


@_node
class Lambda(Term):
    """The order type of the reals."""

    def __new__(cls):
        return _intern(cls, (cls,), ())


ZETA = Zeta()
ETA = Eta()
LAMBDA = Lambda()


@_node
class Sum(Term):
    parts: Tuple[Term, ...]

    def __new__(cls, parts):
        return _intern(cls, (cls, *map(id, parts)), (parts,))

    def __post_init__(self):
        if not self.parts:
            raise ValueError("Sum needs at least one part")


@_node
class Prod(Term):
    """Every point of ``index`` replaced by a copy of ``inner``."""

    inner: Term
    index: Term

    def __new__(cls, inner, index):
        return _intern(cls, (cls, id(inner), id(index)), (inner, index))


@_node
class Rev(Term):
    """Reversal; eliminated by normalization."""

    arg: Term

    def __new__(cls, arg):
        return _intern(cls, (cls, id(arg)), (arg,))


@_node
class GeomOmega(Term):
    """Sum over n in w (n >= start) of base^n, ascending."""

    base: Term
    start: int = 0

    def __new__(cls, base, start=0):
        return _intern(cls, (cls, id(base), start), (base, start))


@_node
class GeomOmegaStar(Term):
    """Sum over n in w* (n >= start) of base^n, descending; base^start
    is the rightmost block."""

    base: Term
    start: int = 0

    def __new__(cls, base, start=0):
        return _intern(cls, (cls, id(base), start), (base, start))


@_node
class SeqSumStar(Term):
    """Sum over n in w* of limit[n] (canonical fundamental sequence),
    descending; limit[0] is the rightmost block."""

    limit: Ordinal

    def __new__(cls, limit):
        return _intern(cls, (cls, limit), (limit,))

    def __post_init__(self):
        if not self.limit.is_limit():
            raise ValueError("SeqSumStar requires a limit ordinal")


@_node
class SeqSumRev(Term):
    """The reverse of SeqSumStar(limit): the w-indexed ascending sum of
    the reversed fundamental-sequence blocks."""

    limit: Ordinal

    def __new__(cls, limit):
        return _intern(cls, (cls, limit), (limit,))

    def __post_init__(self):
        if not self.limit.is_limit():
            raise ValueError("SeqSumRev requires a limit ordinal")


def fin(n: int) -> Term:
    return OrdLeaf(Ordinal.from_int(n))


OMEGA_T = OrdLeaf(OMEGA)
OMEGA_STAR = RevOrd(OMEGA)
ZERO_T = OrdLeaf(ZERO)
ONE_T = OrdLeaf(ONE)


# ---------------------------------------------------------------------------
# value extraction


def pure_ordinal(t: Term) -> Optional[Ordinal]:
    """The ordinal a normalized term denotes, or None."""
    if isinstance(t, OrdLeaf):
        return t.value
    return None


def co_ordinal(t: Term) -> Optional[Ordinal]:
    """If the reverse of t is a pure ordinal, that ordinal; else None.
    Kept on the node (``_co``, False for None)."""
    c = t._co
    if c is None:
        c = _co_ordinal(t)
        set_derived(t, "_co", False if c is None else c)
        return c
    return None if c is False else c


def _co_ordinal(t: Term) -> Optional[Ordinal]:
    """One step of ``co_ordinal``, on the values kept on t's parts."""
    if isinstance(t, OrdLeaf):
        return t.value if t.value.is_finite() else None
    if isinstance(t, RevOrd):
        return t.power
    if isinstance(t, Sum):
        total = ZERO
        for part in reversed(t.parts):
            v = co_ordinal(part)
            if v is None:
                return None
            total = total + v
        return total
    if isinstance(t, Prod):
        # the index first: a power's index is its base, so a chain of
        # powers of a base that is no reversed ordinal fails at once
        b = co_ordinal(t.index)
        if b is None:
            return None
        a = co_ordinal(t.inner)
        return None if a is None else a * b
    return None


# ---------------------------------------------------------------------------
# point count


class MalformedPoint(ValueError):
    """A point, or a count of points, asked of a term that has none."""


def total_count(t: Term):
    """Number of points of t (int or inf).  Kept on the node
    (``_count``)."""
    c = t._count
    if c is None:
        c = _point_count(t)
        set_derived(t, "_count", c)
    return c


def product_count(a, b):
    """The point count of a product whose factors have a and b points."""
    if a == 0 or b == 0:
        return 0
    return inf if a == inf or b == inf else a * b


def _point_count(t: Term):
    """One step of the count, on the stored counts of t's parts."""
    if isinstance(t, OrdLeaf):
        return t.value.as_int() if t.value.is_finite() else inf
    if isinstance(t, (RevOrd, Zeta, Eta, Lambda)):
        return inf
    if isinstance(t, Sum):
        total = 0
        for part in t.parts:
            c = total_count(part)
            if c == inf:
                return inf
            total += c
        return total
    if isinstance(t, Prod):
        return product_count(total_count(t.inner), total_count(t.index))
    # normalized geometric / sequence nodes always have infinitely many
    # nonempty blocks
    if isinstance(t, (GeomOmega, GeomOmegaStar, SeqSumStar, SeqSumRev)):
        return inf
    raise MalformedPoint(f"no points for {t!r}")


# ---------------------------------------------------------------------------
# normalization


def rev_ordinal_term(a: Ordinal) -> Term:
    """Canonical normalized term for the reverse of the ordinal a."""
    if a.is_finite():
        return OrdLeaf(a)
    parts = []
    m = a.finite_part
    if m:
        parts.append(OrdLeaf(Ordinal.from_int(m)))
    for exp, coeff in reversed(a.limit_part.terms):
        power = Ordinal(((exp, 1),))
        parts.extend([RevOrd(power)] * coeff)
    if len(parts) == 1:
        return parts[0]
    return Sum(tuple(parts))


def _is_pure(t: Term) -> bool:
    return isinstance(t, OrdLeaf)


def _is_co(t: Term) -> bool:
    return isinstance(t, RevOrd) or (isinstance(t, OrdLeaf) and t.value.is_finite())


def _norm_sum(parts) -> Term:
    flat = []
    for p in parts:
        if isinstance(p, Sum):
            flat.extend(p.parts)
        elif isinstance(p, OrdLeaf) and p.value.is_zero():
            continue
        else:
            flat.append(p)
    # fold adjacent pure / reversed-pure runs until stable
    while True:
        out = []
        for p in flat:
            if out:
                prev = out[-1]
                if _is_pure(prev) and _is_pure(p):
                    out[-1] = OrdLeaf(prev.value + p.value)
                    continue
                if _is_co(prev) and _is_co(p):
                    # (prev + p)* = p* + prev*; refold canonically
                    combined = co_ordinal(p) + co_ordinal(prev)
                    folded = rev_ordinal_term(combined)
                    out.pop()
                    out.extend(folded.parts if isinstance(folded, Sum) else (folded,))
                    continue
                if (
                    isinstance(prev, RevOrd)
                    and isinstance(p, OrdLeaf)
                    and p.value >= OMEGA
                ):
                    # a reversed power block ends in a descending copy
                    # of w*, so the seam with an ascending leaf closes
                    # into a zeta block:
                    #   w*     + v = zeta + (v - w)
                    #   (w^e)* + v = (w^e)* + zeta + (v - w)  [e > 1]
                    rest = p.value - OMEGA
                    if prev.power == OMEGA:
                        out[-1] = ZETA
                    else:
                        out.append(ZETA)
                    if not rest.is_zero():
                        out.append(OrdLeaf(rest))
                    continue
            out.append(p)
        if out == flat:
            break
        flat = out
    if not flat:
        return ZERO_T
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def _norm_prod(inner: Term, index: Term) -> Term:
    if isinstance(inner, OrdLeaf) and inner.value.is_zero():
        return ZERO_T
    if isinstance(index, OrdLeaf) and index.value.is_zero():
        return ZERO_T
    if isinstance(inner, OrdLeaf) and inner.value == ONE:
        return index
    if isinstance(index, OrdLeaf) and index.value == ONE:
        return inner
    # right distributivity: a(b+c) = ab + ac, an exact isomorphism
    if isinstance(index, Sum):
        return _norm_sum([_norm_prod(inner, p) for p in index.parts])
    # associativity: a(bc) = (ab)c; left-nest products
    if isinstance(index, Prod):
        return _norm_prod(_norm_prod(inner, index.inner), index.index)
    # merge adjacent pure-ordinal indices: (a b1) b2 = a (b1 b2)
    if (
        isinstance(inner, Prod)
        and isinstance(inner.index, OrdLeaf)
        and isinstance(index, OrdLeaf)
    ):
        return _norm_prod(inner.inner, OrdLeaf(inner.index.value * index.value))
    # merge adjacent reversed-pure indices: (x a*) b* = x (ab)*
    if (
        isinstance(inner, Prod)
        and co_ordinal(inner.index) is not None
        and co_ordinal(index) is not None
    ):
        folded = co_ordinal(inner.index) * co_ordinal(index)
        return _norm_prod(inner.inner, rev_ordinal_term(folded))
    # pure ordinal product folds
    if isinstance(inner, OrdLeaf) and isinstance(index, OrdLeaf):
        return OrdLeaf(inner.value * index.value)
    # reversed-pure product folds through (ab)* = a*b*
    ci, cx = co_ordinal(inner), co_ordinal(index)
    if ci is not None and cx is not None:
        return rev_ordinal_term(ci * cx)
    # finite index: expand into an explicit sum of copies
    if isinstance(index, OrdLeaf) and index.value.is_finite():
        n = index.value.as_int()
        return _norm_sum([inner] * n)
    # decomposable ordinal index: distribute over its CNF summands
    if isinstance(index, OrdLeaf):
        b = index.value
        if len(b.terms) > 1 or b.terms[0][1] > 1 or b.finite_part:
            parts = []
            for exp, coeff in b.terms:
                block = Ordinal(((exp, 1),))
                parts.extend([_norm_prod(inner, OrdLeaf(block))] * coeff)
            return _norm_sum(parts)
    return Prod(inner, index)


def _norm_geom(base: Term, start: int, star: bool) -> Term:
    v = pure_ordinal(base)
    if v is not None:
        if v.is_zero():
            return ONE_T if start == 0 else ZERO_T
        if v == ONE:
            # sum of w-many single points
            return RevOrd(OMEGA) if star else OMEGA_T
        if star:
            # a finite base gives w*-many finite blocks, i.e. just w*
            return GeomOmegaStar(base, start) if not v.is_finite() else RevOrd(OMEGA)
        return OrdLeaf(v**OMEGA if not v.is_finite() else OMEGA)
    c = co_ordinal(base)
    if c is not None:
        # base is a reversed ordinal: the star sum is the reverse of a
        # pure geometric ordinal sum and vice versa
        if c.is_zero():
            return ONE_T if start == 0 else ZERO_T
        if c == ONE:
            return RevOrd(OMEGA) if star else OMEGA_T
        total = c**OMEGA if not c.is_finite() else OMEGA
        if star:
            return rev_ordinal_term(total)
        return GeomOmega(base, start)
    return GeomOmegaStar(base, start) if star else GeomOmega(base, start)


def _norm_seqsum(a: Ordinal, reverse: bool) -> Term:
    if a == OMEGA:
        # blocks are the naturals; the w*-sum is just w*
        return OMEGA_T if reverse else RevOrd(OMEGA)
    # fold geometric fundamental sequences: for a = w^(w^h) with h a
    # successor (or h = 1), the blocks are the powers of w^(w^(h-1))
    if len(a.terms) == 1 and a.terms[0][1] == 1:
        g = a.terms[0][0]
        if len(g.terms) == 1 and g.terms[0][1] == 1 and not g.terms[0][0].is_zero():
            h = g.terms[0][0]
            if h.is_successor():
                rho = OMEGA ** (Ordinal(((h.pred(), 1),)))
                if reverse:
                    return _norm_geom(rev_ordinal_term(rho), 0, star=False)
                return _norm_geom(OrdLeaf(rho), 0, star=True)
    return SeqSumRev(a) if reverse else SeqSumStar(a)


def _reverse_normal(t: Term, revs=None) -> Term:
    """Reverse of an already-normalized term, renormalized.  revs are
    the reverses of ``_reversed_children(t)``, in that order; they are
    made here when not given."""
    if revs is None:
        revs = [_reverse(c) for c in _reversed_children(t)]
    if isinstance(t, OrdLeaf):
        return rev_ordinal_term(t.value)
    if isinstance(t, RevOrd):
        return OrdLeaf(t.power)
    if isinstance(t, (Zeta, Eta, Lambda)):
        return t
    if isinstance(t, Sum):
        return _norm_sum(revs[::-1])
    if isinstance(t, Prod):
        return _norm_prod(*revs)
    if isinstance(t, GeomOmega):
        return _norm_geom(revs[0], t.start, star=True)
    if isinstance(t, GeomOmegaStar):
        return _norm_geom(revs[0], t.start, star=False)
    if isinstance(t, SeqSumStar):
        return _norm_seqsum(t.limit, reverse=True)
    if isinstance(t, SeqSumRev):
        return _norm_seqsum(t.limit, reverse=False)
    raise TypeError(f"cannot reverse {t!r}")


def _normalize(t: Term) -> Term:
    """One step of the normalizer, on the normal forms of t's parts.  A
    chain of reversals, such as ``((x~)~)~`` parses to, is one step."""
    if isinstance(t, Rev):
        flips = 0
        while isinstance(t, Rev):
            t, flips = t.arg, flips + 1
        n = normalize(t)
        return _reverse(n) if flips % 2 else n
    if isinstance(t, Sum):
        return _norm_sum([normalize(p) for p in t.parts])
    if isinstance(t, Prod):
        return _norm_prod(normalize(t.inner), normalize(t.index))
    if isinstance(t, GeomOmega):
        return _norm_geom(normalize(t.base), t.start, star=False)
    if isinstance(t, GeomOmegaStar):
        return _norm_geom(normalize(t.base), t.start, star=True)
    if isinstance(t, SeqSumStar):
        return _norm_seqsum(t.limit, reverse=False)
    if isinstance(t, SeqSumRev):
        return _norm_seqsum(t.limit, reverse=True)
    return t


def normalize(t: Term) -> Term:
    """Canonical normal form; idempotent.  Kept on the node (``_nf``),
    and a normal form is marked as its own (``_nf`` is True)."""
    n = t._nf
    if n is None:
        n = _normalize(t)
        if n._nf is None:
            set_derived(n, "_nf", True)
        if n is not t:
            set_derived(t, "_nf", n)
        return n
    return t if n is True else n


def reverse_term(t: Term) -> Term:
    """Normalized reverse of t."""
    return _reverse(normalize(t))


def _reverse(n: Term) -> Term:
    """Reverse of the normal form n, kept on n (``_rev``).  The reverse
    links back to n weakly, as a strong link both ways would make a
    reference cycle; so does a node that is its own reverse.  The nodes
    below n whose reverse is not kept yet are reversed first, children
    before parents (``children_first``): so each is one step on its
    children's reverses, and a chain of powers takes no stack frame per
    power."""
    r = _kept_reverse(n)
    if r is None:
        children_first(n, _reversed_children, _kept_reverse, _reverse_step)
        r = _kept_reverse(n)
    return r


def _reverse_step(m: Term) -> None:
    """Reverse m from its children's kept reverses, and keep it."""
    r = _reverse_normal(m, [_kept_reverse(c) for c in _reversed_children(m)])
    if r._nf is None:
        set_derived(r, "_nf", True)
    set_derived(m, "_rev", weakref.ref(m) if r is m else r)
    if r is not m and not isinstance(r._rev, Term):
        set_derived(r, "_rev", weakref.ref(m))


def children_first(top, children, done, step) -> None:
    """Run step on top and on each node below it that is not done yet,
    each node after its children, on an explicit stack, so a deep chain
    takes no stack frame per level.  children(n) lists the nodes that
    step(n) reads; done(n) is truthy once step(n) has run."""
    todo = [top]
    while todo:
        m = todo[-1]
        if done(m):
            todo.pop()
            continue
        waiting = [c for c in children(m) if not done(c)]
        if waiting:
            todo += waiting
            continue
        todo.pop()
        step(m)


def _kept_reverse(n: Term) -> Optional[Term]:
    r = n._rev
    return r() if r.__class__ is weakref.ref else r


def _reversed_children(t: Term) -> Tuple[Term, ...]:
    """The children whose reverses ``_reverse_normal`` reads."""
    if isinstance(t, Sum):
        return t.parts
    if isinstance(t, Prod):
        return t.inner, t.index
    if isinstance(t, (GeomOmega, GeomOmegaStar)):
        return (t.base,)
    return ()


# ---------------------------------------------------------------------------
# printing


def print_term(t: Term, level: int = 0) -> str:
    """Canonical text form.  level: 0 = sum context, 1 = product
    context, 2 = unary/atom context.  The level-0 text is rendered once,
    from the children's stored texts, and kept on the node (``_text``);
    a higher level adds the brackets the node's class needs there: a sum
    at levels 1 and 2, a product at level 2, and an ordinal leaf by the
    ``+`` or ``*`` in its text.  A product's left factor that is itself
    a product prints bare, as the parser reads ``*`` left-associatively,
    so a chain of powers prints without brackets."""
    s = t._text
    if s is None:
        children_first(t, _printed_children, _printed, _print_step)
        s = t._text
    if level and (
        isinstance(t, Sum)
        or (level >= 2 and isinstance(t, Prod))
        or (isinstance(t, OrdLeaf) and ("+" in s or (level >= 2 and "*" in s)))
    ):
        return f"({s})"
    return s


def _printed(t: Term) -> bool:
    return t._text is not None


def _printed_children(t: Term) -> Tuple[Term, ...]:
    """The children whose texts ``_print_step`` reads."""
    return (t.arg,) if isinstance(t, Rev) else _reversed_children(t)


def _print_step(t: Term) -> None:
    """Render t's level-0 text from its children's stored texts, and
    keep it."""
    if isinstance(t, OrdLeaf):
        s = str(t.value)
    elif isinstance(t, RevOrd):
        p = t.power
        if p == OMEGA:
            s = "w~"
        elif len(p.terms) == 1 and p.terms[0][1] == 1:
            s = f"w^({p.terms[0][0]})~"
        else:
            raise AssertionError("RevOrd invariant violated")
    elif isinstance(t, Zeta):
        s = "z"
    elif isinstance(t, Eta):
        s = "q"
    elif isinstance(t, Lambda):
        s = "r"
    elif isinstance(t, Sum):
        s = " + ".join([print_term(p, 1) for p in t.parts])
    elif isinstance(t, Prod):
        left = print_term(t.inner, 1 if isinstance(t.inner, Prod) else 2)
        s = f"{left}*{print_term(t.index, 2)}"
    elif isinstance(t, Rev):
        s = f"{print_term(t.arg, 2)}~"
    elif isinstance(t, (GeomOmega, GeomOmegaStar)):
        name = "geom" if isinstance(t, GeomOmega) else "geomrev"
        inner = print_term(t.base)
        s = f"{name}({inner}, {t.start})" if t.start else f"{name}({inner})"
    elif isinstance(t, SeqSumStar):
        s = f"revsum({t.limit})"
    elif isinstance(t, SeqSumRev):
        s = f"revsum({t.limit})~"
    else:
        raise TypeError(f"cannot print {t!r}")
    set_derived(t, "_text", s)


# ---------------------------------------------------------------------------
# parsing


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


#: The deepest nesting of brackets, and the longest run of ``~``, that
#: the parser accepts.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # brackets open at pos

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def open_bracket(self):
        self.expect("(")
        if self.depth == MAX_NESTING:
            raise ParseError(f"brackets nested deeper than {MAX_NESTING}", self.pos)
        self.depth += 1

    def close_bracket(self):
        self.expect(")")
        self.depth -= 1

    def match_word(self, word: str) -> bool:
        self.skip_ws()
        end = self.pos + len(word)
        if self.text[self.pos : end] == word:
            nxt = self.text[end : end + 1]
            if not nxt.isalnum():
                self.pos = end
                return True
        return False

    def parse_nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise ParseError("expected a number", self.pos)
        return int(self.text[start : self.pos])

    def parse_expr(self) -> Term:
        parts = [self.parse_prod()]
        while self.peek() == "+":
            self.pos += 1
            parts.append(self.parse_prod())
        return parts[0] if len(parts) == 1 else Sum(tuple(parts))

    def parse_prod(self) -> Term:
        t = self.parse_unary()
        while self.peek() == "*":
            self.pos += 1
            t = Prod(t, self.parse_unary())
        return t

    def parse_unary(self) -> Term:
        t = self.parse_atom()
        run = 0
        while self.peek() == "~":
            if run == MAX_NESTING:
                raise ParseError(f"more than {MAX_NESTING} '~' in a row", self.pos)
            self.pos += 1
            run += 1
            t = Rev(t)
        return t

    def parse_atom(self) -> Term:
        c = self.peek()
        if c.isdigit():
            return fin(self.parse_nat())
        if c == "(":
            self.open_bracket()
            t = self.parse_expr()
            self.close_bracket()
            return t
        if self.match_word("geomrev"):
            return self._parse_geom(star=True)
        if self.match_word("geom"):
            return self._parse_geom(star=False)
        if self.match_word("revsum"):
            self.open_bracket()
            t = self.parse_expr()
            self.close_bracket()
            v = pure_ordinal(normalize(t))
            if v is None or not v.is_limit():
                raise ParseError("revsum requires a limit ordinal argument", self.pos)
            return SeqSumStar(v)
        if self.match_word("w"):
            if self.peek() == "^":
                self.pos += 1
                self.open_bracket()
                e = self.parse_expr()
                self.close_bracket()
                v = pure_ordinal(normalize(e))
                if v is None:
                    raise ParseError("exponent must be a pure ordinal", self.pos)
                return OrdLeaf(Ordinal(((v, 1),)))
            return OMEGA_T
        if self.match_word("z"):
            return ZETA
        if self.match_word("q"):
            return ETA
        if self.match_word("r"):
            return LAMBDA
        raise ParseError("expected a term", self.pos)

    def _parse_geom(self, star: bool) -> Term:
        self.open_bracket()
        t = self.parse_expr()
        start = 0
        if self.peek() == ",":
            self.pos += 1
            start = self.parse_nat()
        self.close_bracket()
        return GeomOmegaStar(t, start) if star else GeomOmega(t, start)


def parse_term(text: str) -> Term:
    """Parse the grammar above; raises ParseError with a position."""
    p = _Parser(text)
    t = p.parse_expr()
    p.skip_ws()
    if p.pos != len(p.text):
        raise ParseError("trailing input", p.pos)
    return t


def parse_normalized(text: str) -> Term:
    return normalize(parse_term(text))

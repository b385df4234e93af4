"""Point-level presentation of normalized terms.

A point of a term is a path through its tree:

- ``OrdLeaf(a)``      -- an Ordinal p < a
- ``RevOrd(P)``       -- an Ordinal p < P, compared in reverse
- ``Zeta``            -- an int
- ``Eta``/``Lambda``  -- a Fraction (for Lambda this is a countable
                         dense sample; exact reals are not represented)
- ``Sum(parts)``      -- (part_index, inner_point)
- ``Prod(i, x)``      -- (index_point, inner_point), index major
- ``GeomOmega[Star]`` -- (n, k-tuple of base points) in block base^n,
                         last tuple coordinate most significant
- ``SeqSumStar/Rev``  -- (n, Ordinal p < limit[n])

Comparison, closed-interval cardinality, first/last points and
immediate successor/predecessor are all computed by structural
recursion; ``None`` from succ/pred means "no immediate neighbour"
(dense on that side, or at an end).  These functions are the
brute-force oracle used to validate the symbolic finite-condensation
profiles.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf
from typing import List, Optional

from .ordinals import ONE, ZERO, Ordinal, fundamental_sequence
from .terms import (
    Eta,
    GeomOmega,
    GeomOmegaStar,
    Lambda,
    MalformedPoint,
    OrdLeaf,
    Prod,
    RevOrd,
    SeqSumRev,
    SeqSumStar,
    Sum,
    Term,
    Zeta,
    total_count,
)


# ---------------------------------------------------------------------------
# block helpers for the geometric nodes


def power_term(base: Term, m: int) -> Term:
    """The m-th power of base as an unfolded product term."""
    if m == 0:
        return OrdLeaf(ONE)
    t = base
    for _ in range(m - 1):
        t = Prod(t, base)
    return t


def tuple_to_nested(tup):
    if len(tup) == 0:
        return ZERO  # the unique point of base^0 = 1
    if len(tup) == 1:
        return tup[0]
    return (tup[-1], tuple_to_nested(tup[:-1]))


def nested_to_tuple(p, m: int):
    if m == 0:
        return ()
    if m == 1:
        return (p,)
    q, rest = p
    return nested_to_tuple(rest, m - 1) + (q,)


def _seq_block(a: Ordinal, n: int) -> Ordinal:
    return fundamental_sequence(a, n)


# ---------------------------------------------------------------------------
# validation


def validate_point(t: Term, p) -> None:
    if isinstance(t, OrdLeaf):
        if not isinstance(p, Ordinal) or not p < t.value:
            raise MalformedPoint(f"expected an ordinal below {t.value}")
    elif isinstance(t, RevOrd):
        if not isinstance(p, Ordinal) or not p < t.power:
            raise MalformedPoint(f"expected an ordinal below {t.power}")
    elif isinstance(t, Zeta):
        if not isinstance(p, int) or isinstance(p, bool):
            raise MalformedPoint("expected an int")
    elif isinstance(t, (Eta, Lambda)):
        if not isinstance(p, (Fraction, int)) or isinstance(p, bool):
            raise MalformedPoint("expected a rational")
    elif isinstance(t, Sum):
        if not (isinstance(p, tuple) and len(p) == 2):
            raise MalformedPoint("expected (part, point)")
        i, sub = p
        if not isinstance(i, int) or not 0 <= i < len(t.parts):
            raise MalformedPoint("part index out of range")
        validate_point(t.parts[i], sub)
    elif isinstance(t, Prod):
        if not (isinstance(p, tuple) and len(p) == 2):
            raise MalformedPoint("expected (index point, inner point)")
        q, sub = p
        validate_point(t.index, q)
        validate_point(t.inner, sub)
    elif isinstance(t, (GeomOmega, GeomOmegaStar)):
        if not (isinstance(p, tuple) and len(p) == 2):
            raise MalformedPoint("expected (block, tuple)")
        n, tup = p
        if not isinstance(n, int) or n < t.start:
            raise MalformedPoint("block number below start")
        if not isinstance(tup, tuple) or len(tup) != n:
            raise MalformedPoint("tuple length must equal the block number")
        for c in tup:
            validate_point(t.base, c)
    elif isinstance(t, (SeqSumStar, SeqSumRev)):
        if not (isinstance(p, tuple) and len(p) == 2):
            raise MalformedPoint("expected (block, ordinal)")
        n, sub = p
        if not isinstance(n, int) or n < 0:
            raise MalformedPoint("block number must be natural")
        blk = _seq_block(t.limit, n)
        if not isinstance(sub, Ordinal) or not sub < blk:
            raise MalformedPoint(f"expected an ordinal below {blk}")
    else:
        raise MalformedPoint(f"no points for {t!r}")


# ---------------------------------------------------------------------------
# comparison


def _cmp(a, b) -> int:
    return (a > b) - (a < b)


def compare_points(t: Term, p, q) -> int:
    """-1, 0 or 1; total on well-formed points of t."""
    if isinstance(t, (OrdLeaf, Zeta, Eta, Lambda)):
        return _cmp(p, q)
    if isinstance(t, RevOrd):
        return -_cmp(p, q)
    if isinstance(t, Sum):
        (i, ps), (j, qs) = p, q
        if i != j:
            return _cmp(i, j)
        return compare_points(t.parts[i], ps, qs)
    if isinstance(t, Prod):
        (pi, pp), (qi, qp) = p, q
        c = compare_points(t.index, pi, qi)
        if c:
            return c
        return compare_points(t.inner, pp, qp)
    if isinstance(t, (GeomOmega, GeomOmegaStar)):
        (n, ptup), (m, qtup) = p, q
        if n != m:
            sign = 1 if isinstance(t, GeomOmega) else -1
            return sign * _cmp(n, m)
        bt = power_term(t.base, n)
        return compare_points(bt, tuple_to_nested(ptup), tuple_to_nested(qtup))
    if isinstance(t, SeqSumStar):
        (n, ps), (m, qs) = p, q
        if n != m:
            return -_cmp(n, m)
        return _cmp(ps, qs)
    if isinstance(t, SeqSumRev):
        (n, ps), (m, qs) = p, q
        if n != m:
            return _cmp(n, m)
        return -_cmp(ps, qs)  # blocks are reversed ordinals
    raise MalformedPoint(f"no points for {t!r}")


# ---------------------------------------------------------------------------
# counting


def _ord_final(a: Ordinal, p: Ordinal):
    """|{x : p <= x < a}|."""
    d = a - p
    return d.as_int() if d.is_finite() else inf


def _ord_initial(p: Ordinal):
    """|{x : x <= p}|."""
    return p.as_int() + 1 if p.is_finite() else inf


def initial_count(t: Term, p):
    """|{x : x <= p}| in t."""
    if isinstance(t, OrdLeaf):
        return _ord_initial(p)
    if isinstance(t, RevOrd):
        return _ord_final(t.power, p)
    if isinstance(t, (Zeta, Eta, Lambda)):
        return inf
    if isinstance(t, Sum):
        i, sub = p
        total = initial_count(t.parts[i], sub)
        for part in t.parts[:i]:
            c = total_count(part)
            if c == inf:
                return inf
            total += c
        return total
    if isinstance(t, Prod):
        q, sub = p
        below = initial_count(t.index, q) - 1
        ic = total_count(t.inner)
        if below == 0:
            extra = 0
        elif ic == inf or below == inf:
            extra = inf
        else:
            extra = ic * below
        return initial_count(t.inner, sub) + extra
    if isinstance(t, GeomOmega):
        n, tup = p
        total = 0
        for m in range(t.start, n):
            c = total_count(power_term(t.base, m))
            if c == inf:
                return inf
            total += c
        bt = power_term(t.base, n)
        return total + initial_count(bt, tuple_to_nested(tup))
    if isinstance(t, GeomOmegaStar):
        return inf  # infinitely many blocks to the left
    if isinstance(t, SeqSumStar):
        return inf
    if isinstance(t, SeqSumRev):
        n, sub = p
        total = 0
        for m in range(n):
            c = total_count(OrdLeaf(_seq_block(t.limit, m)))
            if c == inf:
                return inf
            total += c
        # within the reversed block: points >= sub in ordinal order
        return total + _ord_final(_seq_block(t.limit, n), sub)
    raise MalformedPoint(f"no points for {t!r}")


def final_count(t: Term, p):
    """|{x : x >= p}| in t."""
    if isinstance(t, OrdLeaf):
        return _ord_final(t.value, p)
    if isinstance(t, RevOrd):
        return _ord_initial(p)
    if isinstance(t, (Zeta, Eta, Lambda)):
        return inf
    if isinstance(t, Sum):
        i, sub = p
        total = final_count(t.parts[i], sub)
        for part in t.parts[i + 1 :]:
            c = total_count(part)
            if c == inf:
                return inf
            total += c
        return total
    if isinstance(t, Prod):
        q, sub = p
        above = final_count(t.index, q) - 1
        ic = total_count(t.inner)
        if above == 0:
            extra = 0
        elif ic == inf or above == inf:
            extra = inf
        else:
            extra = ic * above
        return final_count(t.inner, sub) + extra
    if isinstance(t, GeomOmega):
        return inf
    if isinstance(t, GeomOmegaStar):
        n, tup = p
        total = 0
        for m in range(t.start, n):
            c = total_count(power_term(t.base, m))
            if c == inf:
                return inf
            total += c
        bt = power_term(t.base, n)
        return total + final_count(bt, tuple_to_nested(tup))
    if isinstance(t, SeqSumStar):
        n, sub = p
        total = _ord_final(_seq_block(t.limit, n), sub)
        if total == inf:
            return inf
        for m in range(n):
            c = total_count(OrdLeaf(_seq_block(t.limit, m)))
            if c == inf:
                return inf
            total += c
        return total
    if isinstance(t, SeqSumRev):
        return inf
    raise MalformedPoint(f"no points for {t!r}")


def interval_count(t: Term, p, q):
    """|[p, q]| in t; requires p <= q."""
    c = compare_points(t, p, q)
    if c > 0:
        raise ValueError("interval_count requires p <= q")
    if c == 0:
        return 1
    if isinstance(t, OrdLeaf):
        d = q - p
        return d.as_int() + 1 if d.is_finite() else inf
    if isinstance(t, RevOrd):
        d = p - q  # p > q as ordinals since order is reversed
        return d.as_int() + 1 if d.is_finite() else inf
    if isinstance(t, Zeta):
        return q - p + 1
    if isinstance(t, (Eta, Lambda)):
        return inf
    if isinstance(t, Sum):
        (i, ps), (j, qs) = p, q
        if i == j:
            return interval_count(t.parts[i], ps, qs)
        total = final_count(t.parts[i], ps)
        for part in t.parts[i + 1 : j]:
            c2 = total_count(part)
            if c2 == inf:
                return inf
            total += c2
        if total == inf:
            return inf
        rest = initial_count(t.parts[j], qs)
        return inf if rest == inf else total + rest
    if isinstance(t, Prod):
        (pi, pp), (qi, qp) = p, q
        if compare_points(t.index, pi, qi) == 0:
            return interval_count(t.inner, pp, qp)
        between = interval_count(t.index, pi, qi)
        ic = total_count(t.inner)
        if between == inf:
            return inf
        mid = (between - 2) * ic if between > 2 else 0
        if ic == inf and between > 2:
            return inf
        head = final_count(t.inner, pp)
        tail = initial_count(t.inner, qp)
        if head == inf or tail == inf:
            return inf
        return head + mid + tail
    if isinstance(t, (GeomOmega, GeomOmegaStar)):
        (n, ptup), (m, qtup) = p, q
        if n == m:
            bt = power_term(t.base, n)
            return interval_count(bt, tuple_to_nested(ptup), tuple_to_nested(qtup))
        # p is the left endpoint in block n, q the right one in block m;
        # for the star node block numbers descend left to right
        left_blk, left_pt, right_blk, right_pt = n, ptup, m, qtup
        total = final_count(power_term(t.base, left_blk), tuple_to_nested(left_pt))
        step = 1 if isinstance(t, GeomOmega) else -1
        for k in range(left_blk + step, right_blk, step):
            c2 = total_count(power_term(t.base, k))
            if c2 == inf:
                return inf
            total += c2
        if total == inf:
            return inf
        rest = initial_count(power_term(t.base, right_blk), tuple_to_nested(right_pt))
        return inf if rest == inf else total + rest
    if isinstance(t, (SeqSumStar, SeqSumRev)):
        (n, ps), (m, qs) = p, q
        if n == m:
            if isinstance(t, SeqSumStar):
                d = qs - ps
            else:
                d = ps - qs
            return d.as_int() + 1 if d.is_finite() else inf
        # p < q, so for the star node n > m and for the rev node n < m
        if isinstance(t, SeqSumStar):
            head = _ord_final(_seq_block(t.limit, n), ps)
            mids = range(m + 1, n)
            tail = _ord_initial(qs)
        else:
            head = _ord_initial(ps)
            mids = range(n + 1, m)
            tail = _ord_final(_seq_block(t.limit, m), qs)
        if head == inf or tail == inf:
            return inf
        total = head + tail
        for k in mids:
            c2 = total_count(OrdLeaf(_seq_block(t.limit, k)))
            if c2 == inf:
                return inf
            total += c2
        return total
    raise MalformedPoint(f"no points for {t!r}")


def interval_is_finite(t: Term, p, q):
    """(finite?, cardinality-or-None) for the closed interval [p, q]."""
    c = interval_count(t, p, q)
    # compare by value: arithmetic can produce fresh float infinities
    return (c != inf, None if c == inf else c)


# ---------------------------------------------------------------------------
# endpoints and immediate neighbours


def _ord_sample(a: Ordinal) -> List[Ordinal]:
    """A spread of ordinals below a hitting every CNF boundary."""
    if a.is_zero():
        return []
    marks = {ZERO}
    prefix = ZERO
    for e, c in a.terms:
        pow_e = Ordinal(((e, 1),))
        for j in range(1, min(c, 2) + 1):
            marks.add(prefix + pow_e * Ordinal.from_int(j))
        prefix = prefix + pow_e * Ordinal.from_int(c)
    out = set()
    for m in marks:
        for d in range(3):
            v = m + Ordinal.from_int(d)
            if v < a:
                out.add(v)
    return sorted(out)


def first_point(t: Term):
    """The least point of t, or None if t is empty or has no least."""
    if isinstance(t, OrdLeaf):
        return None if t.value.is_zero() else ZERO
    if isinstance(t, (RevOrd, Zeta, Eta, Lambda)):
        return None
    if isinstance(t, Sum):
        sub = first_point(t.parts[0])
        return None if sub is None else (0, sub)
    if isinstance(t, Prod):
        q, sub = first_point(t.index), first_point(t.inner)
        return None if q is None or sub is None else (q, sub)
    if isinstance(t, GeomOmega):
        bt = power_term(t.base, t.start)
        f = first_point(bt)
        return None if f is None else (t.start, nested_to_tuple(f, t.start))
    if isinstance(t, (GeomOmegaStar, SeqSumStar)):
        return None
    if isinstance(t, SeqSumRev):
        for n in range(2):
            blk = _seq_block(t.limit, n)
            if not blk.is_zero():
                # least point of the reversed block = greatest ordinal in it
                return (n, blk.pred()) if blk.is_successor() else None
        return None
    raise MalformedPoint(f"no points for {t!r}")


def last_point(t: Term):
    """The greatest point of t, or None if t is empty or has no greatest."""
    if isinstance(t, OrdLeaf):
        a = t.value
        if a.is_zero():
            return None
        return a.pred() if a.is_successor() else None
    if isinstance(t, RevOrd):
        return ZERO
    if isinstance(t, (Zeta, Eta, Lambda)):
        return None
    if isinstance(t, Sum):
        i = len(t.parts) - 1
        sub = last_point(t.parts[i])
        return None if sub is None else (i, sub)
    if isinstance(t, Prod):
        q, sub = last_point(t.index), last_point(t.inner)
        return None if q is None or sub is None else (q, sub)
    if isinstance(t, GeomOmega):
        return None
    if isinstance(t, GeomOmegaStar):
        bt = power_term(t.base, t.start)
        f = last_point(bt)
        return None if f is None else (t.start, nested_to_tuple(f, t.start))
    if isinstance(t, SeqSumStar):
        for n in range(2):
            blk = _seq_block(t.limit, n)
            if not blk.is_zero():
                return (n, blk.pred()) if blk.is_successor() else None
        return None
    if isinstance(t, SeqSumRev):
        return None
    raise MalformedPoint(f"no points for {t!r}")


def _is_last(t: Term, p) -> bool:
    lp = last_point(t)
    return lp is not None and compare_points(t, p, lp) == 0


def _is_first(t: Term, p) -> bool:
    fp = first_point(t)
    return fp is not None and compare_points(t, p, fp) == 0


def succ_point(t: Term, p):
    """The immediate successor of p in t, or None."""
    if isinstance(t, OrdLeaf):
        nxt = p + ONE
        return nxt if nxt < t.value else None
    if isinstance(t, RevOrd):
        # next point to the right is the next smaller ordinal
        return p.pred() if p.is_successor() else None
    if isinstance(t, Zeta):
        return p + 1
    if isinstance(t, (Eta, Lambda)):
        return None
    if isinstance(t, Sum):
        i, sub = p
        s = succ_point(t.parts[i], sub)
        if s is not None:
            return (i, s)
        if _is_last(t.parts[i], sub) and i + 1 < len(t.parts):
            f = first_point(t.parts[i + 1])
            return None if f is None else (i + 1, f)
        return None
    if isinstance(t, Prod):
        q, sub = p
        s = succ_point(t.inner, sub)
        if s is not None:
            return (q, s)
        if _is_last(t.inner, sub):
            sq = succ_point(t.index, q)
            if sq is not None:
                f = first_point(t.inner)
                return None if f is None else (sq, f)
        return None
    if isinstance(t, (GeomOmega, GeomOmegaStar)):
        n, tup = p
        bt = power_term(t.base, n)
        nested = tuple_to_nested(tup)
        s = succ_point(bt, nested)
        if s is not None:
            return (n, nested_to_tuple(s, n))
        if not _is_last(bt, nested):
            return None
        nxt = n + 1 if isinstance(t, GeomOmega) else n - 1
        if isinstance(t, GeomOmegaStar) and nxt < t.start:
            return None
        nbt = power_term(t.base, nxt)
        f = first_point(nbt)
        return None if f is None else (nxt, nested_to_tuple(f, nxt))
    if isinstance(t, SeqSumStar):
        n, sub = p
        nxt = sub + ONE
        if nxt < _seq_block(t.limit, n):
            return (n, nxt)
        for m in range(n - 1, -1, -1):
            if not _seq_block(t.limit, m).is_zero():
                return (m, ZERO)
        return None
    if isinstance(t, SeqSumRev):
        n, sub = p
        if sub.is_successor():
            return (n, sub.pred())
        if sub.is_zero():
            blk = _seq_block(t.limit, n + 1)
            return (n + 1, blk.pred()) if blk.is_successor() else None
        return None
    raise MalformedPoint(f"no points for {t!r}")


def pred_point(t: Term, p):
    """The immediate predecessor of p in t, or None."""
    if isinstance(t, OrdLeaf):
        return p.pred() if p.is_successor() else None
    if isinstance(t, RevOrd):
        nxt = p + ONE
        return nxt if nxt < t.power else None
    if isinstance(t, Zeta):
        return p - 1
    if isinstance(t, (Eta, Lambda)):
        return None
    if isinstance(t, Sum):
        i, sub = p
        s = pred_point(t.parts[i], sub)
        if s is not None:
            return (i, s)
        if _is_first(t.parts[i], sub) and i > 0:
            l = last_point(t.parts[i - 1])
            return None if l is None else (i - 1, l)
        return None
    if isinstance(t, Prod):
        q, sub = p
        s = pred_point(t.inner, sub)
        if s is not None:
            return (q, s)
        if _is_first(t.inner, sub):
            pq = pred_point(t.index, q)
            if pq is not None:
                l = last_point(t.inner)
                return None if l is None else (pq, l)
        return None
    if isinstance(t, (GeomOmega, GeomOmegaStar)):
        n, tup = p
        bt = power_term(t.base, n)
        nested = tuple_to_nested(tup)
        s = pred_point(bt, nested)
        if s is not None:
            return (n, nested_to_tuple(s, n))
        if not _is_first(bt, nested):
            return None
        prv = n - 1 if isinstance(t, GeomOmega) else n + 1
        if isinstance(t, GeomOmega) and prv < t.start:
            return None
        pbt = power_term(t.base, prv)
        l = last_point(pbt)
        return None if l is None else (prv, nested_to_tuple(l, prv))
    if isinstance(t, SeqSumStar):
        n, sub = p
        if sub.is_successor():
            return (n, sub.pred())
        if sub.is_zero():
            blk = _seq_block(t.limit, n + 1)
            return (n + 1, blk.pred()) if blk.is_successor() else None
        return None
    if isinstance(t, SeqSumRev):
        n, sub = p
        nxt = sub + ONE
        if nxt < _seq_block(t.limit, n):
            return (n, nxt)
        for m in range(n - 1, -1, -1):
            if not _seq_block(t.limit, m).is_zero():
                return (m, ZERO)
        return None
    raise MalformedPoint(f"no points for {t!r}")


# ---------------------------------------------------------------------------
# sampling and the condensation-class oracle

_SAMPLE_CAP = 60


def sample_points(t: Term) -> List:
    """A small structural spread of points of t, hitting block and
    summand boundaries."""
    if isinstance(t, OrdLeaf):
        return _ord_sample(t.value)
    if isinstance(t, RevOrd):
        return _ord_sample(t.power)
    if isinstance(t, Zeta):
        return [-2, -1, 0, 1, 2]
    if isinstance(t, (Eta, Lambda)):
        return [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)]
    if isinstance(t, Sum):
        out = []
        for i, part in enumerate(t.parts):
            out.extend((i, s) for s in sample_points(part))
        return out[:_SAMPLE_CAP]
    if isinstance(t, Prod):
        idx = sample_points(t.index)[:8]
        inn = sample_points(t.inner)[:8]
        return [(q, s) for q in idx for s in inn][:_SAMPLE_CAP]
    if isinstance(t, (GeomOmega, GeomOmegaStar)):
        base_pts = sample_points(t.base)[:3]
        out = []
        for n in range(t.start, t.start + 3):
            if n == 0:
                out.append((0, ()))
                continue
            tuples = [()]
            for _ in range(n):
                tuples = [tup + (b,) for tup in tuples for b in base_pts]
                if len(tuples) > 16:
                    tuples = tuples[:16]
            out.extend((n, tup) for tup in tuples)
        return out[:_SAMPLE_CAP]
    if isinstance(t, (SeqSumStar, SeqSumRev)):
        out = []
        for n in range(4):
            blk = _seq_block(t.limit, n)
            out.extend((n, s) for s in _ord_sample(blk)[:6])
        return out[:_SAMPLE_CAP]
    raise MalformedPoint(f"no points for {t!r}")


def finite_class_size(t: Term, p, budget: int = 64):
    """Size of the finite-interval condensation class of p, walking
    immediate neighbours; None when the walk exceeds the budget (the
    class is then infinite for every term in this library, whose
    infinite classes contain a copy of omega or omega*)."""
    n = 1
    q = p
    for _ in range(budget):
        s = succ_point(t, q)
        if s is None:
            break
        q = s
        n += 1
    else:
        return None
    q = p
    for _ in range(budget):
        s = pred_point(t, q)
        if s is None:
            break
        q = s
        n += 1
    else:
        return None
    return n

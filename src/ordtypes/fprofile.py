"""Symbolic profile of the finite-interval condensation.

Condensing a linear order by "finitely many points between" partitions
it into convex classes in which every closed interval is finite; each
class is therefore finite or shaped like omega, omega* or zeta.  This
module computes, for a normalized term, the census of those classes --
how many are finite and what the infinite ones look like -- by a
calculus on small "class sequence" summaries:

- ``head``/``tail``: the descriptor of the leftmost/rightmost class,
  when one exists;
- ``census``: descriptor -> multiplicity (a natural number or inf);
- ``single``: head and tail are one and the same class.

Two adjacent summands merge at the seam exactly when the left one has
points with finite final segment (tail descriptor fin/omega*) and the
right one has points with finite initial segment (head descriptor
fin/omega); the merged class is then fin+fin=fin, fin+omega=omega,
omega*+fin=omega*, omega*+omega=zeta.  Non-adjacent blocks (separated
by infinitely many points) never merge.

The result backs ``f_class_profile`` and is cross-checked in the tests
against a brute-force neighbour-walking oracle on presented points.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Dict, Optional, Tuple

from .ordinals import Ordinal
from .terms import (
    Eta,
    GeomOmega,
    GeomOmegaStar,
    Lambda,
    OrdLeaf,
    Prod,
    RevOrd,
    SeqSumRev,
    SeqSumStar,
    Sum,
    Term,
    Zeta,
)

# class descriptors
OM = ("om",)
OMSTAR = ("omstar",)
ZETA_D = ("zeta",)


def FIN(k: int):
    return ("fin", k)


Census = Tuple[Tuple[tuple, object], ...]  # sorted ((desc, mult), ...)


@dataclass(frozen=True)
class ClassSeq:
    empty: bool
    head: Optional[tuple]
    tail: Optional[tuple]
    census: Census
    single: bool


EMPTY_CS = ClassSeq(True, None, None, (), False)


def _mk_census(d: Dict[tuple, object]) -> Census:
    return tuple(sorted(((k, v) for k, v in d.items() if v), key=str))


def _cdict(c: Census) -> Dict[tuple, object]:
    return dict(c)


def _cadd(a: Dict, b: Dict, scale=1) -> Dict:
    out = dict(a)
    for d, m in b.items():
        add = inf if (m == inf or scale == inf) else m * scale
        cur = out.get(d, 0)
        out[d] = inf if (cur == inf or add == inf) else cur + add
    return out


def _csub(c: Dict, d: tuple) -> Dict:
    out = dict(c)
    m = out.get(d, 0)
    if m == 0:
        raise ValueError(f"descriptor {d} not present")
    if m != inf:
        out[d] = m - 1
        if out[d] == 0:
            del out[d]
    return out


def _kinds(c: Census):
    return {d for d, _ in c}


def _can_merge(tail_d: Optional[tuple], head_d: Optional[tuple]) -> bool:
    return (
        tail_d is not None
        and head_d is not None
        and tail_d[0] in ("fin", "omstar")
        and head_d[0] in ("fin", "om")
    )


def _merge_desc(tail_d: tuple, head_d: tuple) -> tuple:
    if tail_d[0] == "fin" and head_d[0] == "fin":
        return FIN(tail_d[1] + head_d[1])
    if tail_d[0] == "fin":
        return OM
    if head_d[0] == "fin":
        return OMSTAR
    return ZETA_D


def _single(desc: tuple) -> ClassSeq:
    return ClassSeq(False, desc, desc, ((desc, 1),), True)


def cs_concat(a: ClassSeq, b: ClassSeq) -> ClassSeq:
    if a.empty:
        return b
    if b.empty:
        return a
    if not _can_merge(a.tail, b.head):
        return ClassSeq(
            False, a.head, b.tail, _mk_census(_cadd(_cdict(a.census), _cdict(b.census))), False
        )
    m = _merge_desc(a.tail, b.head)
    census = _cadd(_cdict(a.census), _cdict(b.census))
    census = _csub(_csub(census, a.tail), b.head)
    census = _cadd(census, {m: 1})
    head = m if a.single else a.head
    tail = m if b.single else b.tail
    return ClassSeq(False, head, tail, _mk_census(census), a.single and b.single)


def _rev_desc(d: Optional[tuple]) -> Optional[tuple]:
    if d is None:
        return None
    if d == OM:
        return OMSTAR
    if d == OMSTAR:
        return OM
    return d


def cs_reverse(c: ClassSeq) -> ClassSeq:
    if c.empty:
        return c
    census = _mk_census({_rev_desc(d): m for d, m in c.census})
    return ClassSeq(False, _rev_desc(c.tail), _rev_desc(c.head), census, c.single)


def cs_repeat_fin(c: ClassSeq, k: int) -> ClassSeq:
    if c.empty or k == 0:
        return EMPTY_CS
    if c.single and c.head[0] == "fin":
        return _single(FIN(c.head[1] * k))
    if k <= 6:
        out = c
        for _ in range(k - 1):
            out = cs_concat(out, c)
        return out
    r5 = cs_repeat_fin(c, 5)
    r6 = cs_concat(r5, c)
    d5, d6 = _cdict(r5.census), _cdict(r6.census)
    delta = {d: (m if m == inf else m - d5.get(d, 0)) for d, m in d6.items()}
    census = _cadd(d6, delta, scale=k - 6)
    return ClassSeq(False, r6.head, r6.tail, _mk_census(census), False)


def cs_repeat_om(c: ClassSeq) -> ClassSeq:
    """omega-many ascending adjacent copies."""
    if c.empty:
        return EMPTY_CS
    if c.single:
        d = c.head
        if d[0] == "fin":
            return _single(OM)
        if d == OM:
            return ClassSeq(False, OM, None, ((OM, inf),), False)
        if d == OMSTAR:
            return ClassSeq(False, OMSTAR, None, ((OMSTAR, inf),), False)
        return ClassSeq(False, ZETA_D, None, ((ZETA_D, inf),), False)
    if _can_merge(c.tail, c.head):
        # every copy's head and tail are consumed by a seam except the
        # first copy's head, which stays the head of the whole
        core = _csub(_csub(_cdict(c.census), c.head), c.tail)
        total = {d: inf for d in core}
        total = _cadd(total, {_merge_desc(c.tail, c.head): inf})
        total = _cadd(total, {c.head: 1})
    else:
        total = {d: inf for d in _cdict(c.census)}
    return ClassSeq(False, c.head, None, _mk_census(total), False)


def cs_repeat_omstar(c: ClassSeq) -> ClassSeq:
    return cs_reverse(cs_repeat_om(cs_reverse(c)))


def cs_repeat_zeta(c: ClassSeq) -> ClassSeq:
    return cs_concat(cs_repeat_omstar(c), cs_repeat_om(c))


def cs_repeat_dense(c: ClassSeq) -> ClassSeq:
    """Densely many pairwise non-adjacent copies (eta- or lambda-many)."""
    if c.empty:
        return EMPTY_CS
    return ClassSeq(
        False, None, None, _mk_census({d: inf for d in _kinds(c.census)}), False
    )


def _apply_desc(inner: ClassSeq, d: tuple) -> ClassSeq:
    if d[0] == "fin":
        return cs_repeat_fin(inner, d[1])
    if d == OM:
        return cs_repeat_om(inner)
    if d == OMSTAR:
        return cs_repeat_omstar(inner)
    return cs_repeat_zeta(inner)


def cs_prod(inner: ClassSeq, index: ClassSeq) -> ClassSeq:
    """index-many copies of inner; copies over the same index class are
    adjacent, copies over distinct classes never merge."""
    if inner.empty or index.empty:
        return EMPTY_CS
    census: Dict[tuple, object] = {}
    blocks: Dict[tuple, ClassSeq] = {}
    for d, m in index.census:
        blk = _apply_desc(inner, d)
        blocks[d] = blk
        census = _cadd(census, _cdict(blk.census), scale=m)
    head = blocks[index.head].head if index.head is not None else None
    tail = blocks[index.tail].tail if index.tail is not None else None
    single = index.single and blocks[index.head].single
    return ClassSeq(False, head, tail, _mk_census(census), single)


# ---------------------------------------------------------------------------
# class sequences of terms


def _ordinal_cs(a: Ordinal) -> ClassSeq:
    if a.is_zero():
        return EMPTY_CS
    m = a.finite_part
    # a = omega*beta + m; each unit of beta is one omega-shaped class
    beta_mult = 0
    beta_successor = False
    for e, c in a.terms:
        if e.is_zero():
            continue
        if e == Ordinal.from_int(1):
            beta_mult = c if beta_mult != inf else inf
            beta_successor = True
        else:
            beta_mult = inf
    if beta_mult == 0:
        return _single(FIN(m))
    census: Dict[tuple, object] = {OM: beta_mult}
    if m:
        census[FIN(m)] = 1
        tail = FIN(m)
    else:
        tail = OM if beta_successor else None
    single = beta_mult == 1 and m == 0
    return ClassSeq(False, OM, tail, _mk_census(census), single)


_CHAIN_PREFIX = 4


def _geom_cs(base: Term, start: int) -> Optional[ClassSeq]:
    """Ascending chain 1? + base^start + base^(start+1) + ... under omega."""
    cb = _cs(base)
    if cb is None or cb.empty:
        return None if cb is None else EMPTY_CS
    powers = {0: _single(FIN(1)), 1: cb}
    for n in range(2, start + _CHAIN_PREFIX + 2):
        powers[n] = cs_prod(powers[n - 1], cb)
    last = start + _CHAIN_PREFIX
    stable = (
        _kinds(powers[last].census) == _kinds(powers[last + 1].census)
        and powers[last].head == powers[last + 1].head
        and powers[last].tail == powers[last + 1].tail
    )
    if not stable:
        return None
    prefix = EMPTY_CS
    for n in range(start, last):
        prefix = cs_concat(prefix, powers[n])
    kinds = set(_kinds(powers[last].census))
    if _can_merge(powers[last].tail, powers[last].head):
        kinds.add(_merge_desc(powers[last].tail, powers[last].head))
    tail_cs = ClassSeq(
        False, powers[last].head, None, _mk_census({d: inf for d in kinds}), False
    )
    return cs_concat(prefix, tail_cs)


def _seqsum_cs(limit: Ordinal) -> ClassSeq:
    """Sum of limit[n] over n in omega*, blocks in natural inner order."""
    from .ordinals import fundamental_sequence

    for n0 in range(3):
        first = fundamental_sequence(limit, n0)
        if not first.is_zero():
            break
    else:
        raise ValueError("degenerate fundamental sequence")
    m = first.finite_part
    census: Dict[tuple, object] = {OM: inf}
    if m:
        census[FIN(m)] = 1
        tail = FIN(m)
    else:
        # the rightmost block is an infinite ordinal; the whole order
        # ends exactly the way that block does
        tail = _ordinal_cs(first).tail
    return ClassSeq(False, None, tail, _mk_census(census), False)


def _cs(t: Term) -> Optional[ClassSeq]:
    if isinstance(t, OrdLeaf):
        return _ordinal_cs(t.value)
    if isinstance(t, RevOrd):
        return cs_reverse(_ordinal_cs(t.power))
    if isinstance(t, Zeta):
        return _single(ZETA_D)
    if isinstance(t, (Eta, Lambda)):
        return cs_repeat_dense(_single(FIN(1)))
    if isinstance(t, Sum):
        out = EMPTY_CS
        for p in t.parts:
            cp = _cs(p)
            if cp is None:
                return None
            out = cs_concat(out, cp)
        return out
    if isinstance(t, Prod):
        ci, cx = _cs(t.index), _cs(t.inner)
        if ci is None or cx is None:
            return None
        if isinstance(t.index, (Eta, Lambda)):
            return cs_repeat_dense(cx)
        return cs_prod(cx, ci)
    if isinstance(t, GeomOmega):
        return _geom_cs(t.base, t.start)
    if isinstance(t, GeomOmegaStar):
        from .terms import reverse_term

        rev = _geom_cs(reverse_term(t.base), t.start)
        return None if rev is None else cs_reverse(rev)
    if isinstance(t, SeqSumStar):
        return _seqsum_cs(t.limit)
    if isinstance(t, SeqSumRev):
        return cs_reverse(_seqsum_cs(t.limit))
    raise TypeError(f"unexpected term {t!r}")


# ---------------------------------------------------------------------------
# public profile


def _desc_str(d: tuple) -> str:
    if d[0] == "fin":
        return f"finite:{d[1]}"
    return {"om": "omega", "omstar": "omega-star", "zeta": "zeta"}[d[0]]


@dataclass(frozen=True)
class FProfile:
    status: str  # all-infinite | finitely-many-finite | infinitely-many-finite | unknown
    finite_class_count: Optional[int]
    census: Tuple[Tuple[str, object], ...]
    head: Optional[str]
    tail: Optional[str]


def class_sequence(t: Term) -> Optional[ClassSeq]:
    return _cs(t)


def f_class_profile(t: Term) -> FProfile:
    c = _cs(t)
    if c is None:
        return FProfile("unknown", None, (), None, None)
    nfin = 0
    for d, m in c.census:
        if d[0] == "fin":
            nfin = inf if (m == inf or nfin == inf) else nfin + m
    if nfin == inf:
        status, count = "infinitely-many-finite", None
    elif nfin == 0 and not c.empty:
        status, count = "all-infinite", 0
    else:
        status, count = "finitely-many-finite", nfin
    return FProfile(
        status,
        count,
        tuple((_desc_str(d), ("inf" if m == inf else m)) for d, m in c.census),
        None if c.head is None else _desc_str(c.head),
        None if c.tail is None else _desc_str(c.tail),
    )

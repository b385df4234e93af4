"""Certificate-producing decision engine for order-type embeddability.

``Engine.embeds`` answers "does s embed in t?" three-valuedly (YES, NO,
UNKNOWN) by bounded-depth search over a fixed catalogue of sound rules.
Every YES/NO carries a certificate tree -- rule name, instantiation and
premise sub-certificates, its terms printed when it is first read --
that ``replay_certificate`` revalidates independently of the search.
UNKNOWN is an honest answer: the rule set is sound, not complete.

Each embedding rule is declared once, in ``RULES``: its name, in the
default order, with its search.  A rule decided by side conditions
alone is one ``decide(s, t)`` function that the search calls and replay
calls again; replay checks a node of a recursive rule by running the
rule's search once against the node's premises, so the same code finds
and checks it.  Certificates carry axiom tags: "AC" marks a
use of the axiom of choice, and such conclusions are withheld under
``use_choice=False``; "classical" marks the universality of the rational
line for countable orders (R-ETA-UNIV), which replay requires.

``classify_type`` fills a nine-field profile of a term t.  Each decided
field is certified by a node of a C-rule about t alone (s == t) whose
``claim`` names the field.  Each C-rule is declared once, in
``CLASSIFIERS``, with its step: the search that ``classify_type`` runs
and that replay runs again against a node's premises.  The links between
fields, the paper's theorems among them, are one table, ``IMPLICATIONS``,
applied both ways as the profile is built.  ``equimorphic`` and
``square_report`` build their EQ and GARRETT nodes by a step each.  So
replay checks every node by the code that built it, and by nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Dict, List, Optional, Tuple

from .analysis import facts
from .ordinals import OMEGA, ONE, ZERO, CapacityError, Ordinal, classify_ordinal
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
    ETA,
    LAMBDA,
    OMEGA_T,
    OMEGA_STAR,
    ONE_T,
    children_first,
    co_ordinal,
    fin,
    normalize,
    parse_normalized,
    print_term,
    product_count,
    pure_ordinal,
    rev_ordinal_term,
    reverse_term,
    set_derived,
    total_count,
)

YES, NO, UNKNOWN = "YES", "NO", "UNKNOWN"


class Verdict:
    """A three-valued answer.  A decided one carries its certificate
    tree, built as the search decides, with the terms in it -- each
    node's ``s`` and ``t`` and the terms of its instantiation -- kept as
    terms until the certificate is first read.  They are printed then,
    once, in place; a node whose terms are printed has its premises
    printed too.  So the search prints no term, and a subgoal's
    certificate that nothing reads is never printed."""

    __slots__ = ("answer", "_node")

    def __init__(self, answer: str, certificate: Optional[dict] = None):
        self.answer = answer
        self._node = certificate

    @property
    def certificate(self) -> Optional[dict]:
        node = self._node
        if node is not None and not _rendered(node):
            _render(node)
        return node

    @property
    def is_yes(self):
        return self.answer == YES

    @property
    def is_no(self):
        return self.answer == NO

    @property
    def decided(self):
        return self.answer != UNKNOWN


def _cert(answer, rule, s, t, inst=None, premises=(), axioms=(), claim=None):
    node = {
        "answer": answer,
        "rule": rule,
        "s": s,
        "t": t,
        "instantiation": inst or {},
        "premises": [p._node for p in premises],
        "axioms": list(axioms),
    }
    for q in node["premises"]:
        for ax in q.get("axioms", []):
            if ax not in node["axioms"]:
                node["axioms"].append(ax)
    if claim is not None:
        node["claim"] = claim
    return Verdict(answer, node)


def _shown(value):
    """An instantiation value as a certificate holds it: terms printed."""
    if isinstance(value, Term):
        return print_term(value)
    if isinstance(value, list):
        return [_shown(x) for x in value]
    return value


def _render(top: dict) -> None:
    """Print the terms of the certificate node ``top`` and of each of its
    premises not printed yet, premises first (``children_first``), in
    place."""
    children_first(top, _premises, _rendered, _render_node)


def _premises(node: dict):
    return node["premises"]


def _rendered(node: dict) -> bool:
    return isinstance(node["s"], str)


def _render_node(node: dict) -> None:
    inst = node["instantiation"]
    for k, v in inst.items():
        inst[k] = _shown(v)
    node["s"], node["t"] = print_term(node["s"]), print_term(node["t"])


UNK = Verdict(UNKNOWN)


# ---------------------------------------------------------------------------
# structural helpers


def _sumify(parts) -> Term:
    parts = [p for p in parts if p is not None]
    if not parts:
        return OrdLeaf(ZERO)
    if len(parts) == 1:
        return parts[0]
    return normalize(Sum(tuple(parts)))


def _run(parts: Tuple[Term, ...]) -> Term:
    """The sum of a run of consecutive parts of a normal-form Sum, in
    normal form, with no normalizer step: ``_norm_sum`` folds only
    adjacent parts, and no two adjacent parts of a normal form fold, so
    no two of the run do."""
    if len(parts) == 1:
        return parts[0]
    t = Sum(parts)
    if t._nf is None:
        set_derived(t, "_nf", True)
    return t


#: The highest power of a base that ``_npow`` builds.
MAX_POWER = 1024


def _npow(base: Term, n: int) -> Term:
    """base^n in normal form.  The powers (1, base, base^2, ...) are kept
    on the base node (``_powers``); each new one is one step of the
    normalizer on the one before, a CNF product for an ordinal or
    reversed-ordinal base.  Its point count, the one before times the
    base's, and its facts are derived as it is made, each one step from
    the data of the one before, so neither walks down a chain of powers.
    The tuple is replaced, never changed, so a thread that races to
    extend it builds the same interned nodes."""
    if n > MAX_POWER:
        raise CapacityError(f"power {n} exceeds cap {MAX_POWER}")
    powers = base._powers or (ONE_T,)
    while len(powers) <= n:
        power = normalize(Prod(powers[-1], base))
        if power._count is None:
            set_derived(power, "_count",
                        product_count(total_count(powers[-1]), total_count(base)))
        facts(power)
        powers = (*powers, power)
        set_derived(base, "_powers", powers)
    return powers[n]


def term_cuts(t: Term, deep: bool = True) -> Tuple[Tuple[Term, Term], ...]:
    """Certified decompositions t = left + right of the normal form t,
    with both parts nonzero; shallow ones leave the parts of a sum or
    product whole.  Kept on the node."""
    out = t._cuts if deep else t._shallow_cuts
    if out is None:
        out = tuple(_cuts(t, deep))
        set_derived(t, "_cuts" if deep else "_shallow_cuts", out)
    return out


def _cuts(t: Term, deep: bool) -> List[Tuple[Term, Term]]:
    out: List[Tuple[Term, Term]] = []
    if isinstance(t, OrdLeaf):
        a = t.value
        marks = set()
        prefix = ZERO
        for e, c in a.terms:
            pw = Ordinal(((e, 1),))
            for j in range(1, min(c, 2) + 1):
                marks.add(prefix + pw * Ordinal.from_int(j))
            prefix = prefix + pw * Ordinal.from_int(c)
        for m in sorted(marks):
            for d in (ZERO, ONE):
                cut = m + d
                if not cut.is_zero() and cut < a:
                    out.append((OrdLeaf(cut), OrdLeaf(a - cut)))
    elif isinstance(t, RevOrd):
        for l, r in term_cuts(OrdLeaf(t.power), deep):
            out.append((reverse_term(r), reverse_term(l)))
    elif isinstance(t, Zeta):
        out.append((OMEGA_STAR, OMEGA_T))
    elif isinstance(t, (Eta, Lambda)):
        out.extend([(t, t), (_sumify([t, ONE_T]), t), (t, _sumify([ONE_T, t]))])
    elif isinstance(t, Sum):
        ps = t.parts
        for i in range(1, len(ps)):
            out.append((_run(ps[:i]), _run(ps[i:])))
        if deep:
            for i, p in enumerate(ps):
                for l, r in term_cuts(p, deep=False):
                    out.append(
                        (_sumify(list(ps[:i]) + [l]), _sumify([r] + list(ps[i + 1 :])))
                    )
    elif isinstance(t, Prod):
        if deep:
            for l, r in term_cuts(t.index, deep=False):
                out.append(
                    (normalize(Prod(t.inner, l)), normalize(Prod(t.inner, r)))
                )
    elif isinstance(t, GeomOmega):
        for k in (1, 2):
            prefix = _sumify([_npow(t.base, n) for n in range(t.start, t.start + k)])
            out.append((prefix, GeomOmega(t.base, t.start + k)))
    elif isinstance(t, GeomOmegaStar):
        for k in (1, 2):
            suffix = _sumify(
                [_npow(t.base, n) for n in range(t.start + k - 1, t.start - 1, -1)]
            )
            out.append((GeomOmegaStar(t.base, t.start + k), suffix))
    return out


def term_pieces(t: Term) -> Tuple[Term, ...]:
    """Certified convex sub-orders t' with t' <= t of the normal form t.
    Kept on the node."""
    out = t._pieces
    if out is None:
        out = _pieces(t)
        set_derived(t, "_pieces", out)
    return out


def _pieces(t: Term) -> Tuple[Term, ...]:
    out: List[Term] = []
    if isinstance(t, Sum):
        ps = t.parts
        for i in range(len(ps)):
            for j in range(i + 1, len(ps) + 1):
                if (i, j) != (0, len(ps)):
                    out.append(_run(ps[i:j]))
    elif isinstance(t, Prod):
        out.extend([t.inner, t.index])
        cnt = total_count(t.index)
        k = 3 if cnt == inf else min(3, int(cnt))
        if k >= 2:
            out.append(normalize(Prod(t.inner, fin(k))))
    elif isinstance(t, Zeta):
        out.extend([OMEGA_STAR, OMEGA_T])
    elif isinstance(t, (GeomOmega, GeomOmegaStar)):
        star = isinstance(t, GeomOmegaStar)
        out += [OMEGA_STAR if star else OMEGA_T, t.base]
        out += [_npow(t.base, n) for n in range(t.start, t.start + 3)]
        for k in (2, 3):
            run = [_npow(t.base, n) for n in range(t.start, t.start + k)]
            out.append(_sumify(run[::-1] if star else run))
        out.append(type(t)(t.base, t.start + 1))
    elif isinstance(t, SeqSumStar):
        out.append(OMEGA_STAR)
        from .ordinals import fundamental_sequence

        for n in range(4):
            blk = fundamental_sequence(t.limit, n)
            if not blk.is_zero():
                out.append(OrdLeaf(blk))
        for k in (2, 3, 4):
            total = ZERO
            for n in range(k - 1, -1, -1):
                total = total + fundamental_sequence(t.limit, n)
            out.append(OrdLeaf(total))
    elif isinstance(t, SeqSumRev):
        out.append(OMEGA_T)
        rev_pieces = term_pieces(SeqSumStar(t.limit))
        out.extend(reverse_term(p) for p in rev_pieces)
    seen, uniq = set(), []
    for p in out:
        if p not in seen and p != t and total_count(p) != 0:
            seen.add(p)
            uniq.append(p)
    return tuple(uniq)


def _block_sum_structure(t: Term):
    """If t is an infinite sum of well-ordered blocks indexed by omega*
    (descending sequences must be unbounded left) return "left"; if the
    mirror (reverse-well-ordered blocks indexed by omega) return
    "right"; else None."""
    if isinstance(t, SeqSumStar):
        return "left"
    if isinstance(t, SeqSumRev):
        return "right"
    if isinstance(t, GeomOmegaStar) and facts(t.base).well_ordered:
        return "left"
    if isinstance(t, GeomOmega) and facts(t.base).rev_well_ordered:
        return "right"
    return None


def _geom_pure_base(t: Term):
    """(value, star, reversed_sense) for geometric terms with an
    ordinal-or-reversed-ordinal base; None otherwise."""
    if isinstance(t, GeomOmega):
        star = False
    elif isinstance(t, GeomOmegaStar):
        star = True
    else:
        return None
    v = pure_ordinal(t.base)
    if v is not None:
        return v, star, False
    v = co_ordinal(t.base)
    if v is not None:
        return v, star, True
    return None


def _sum_of_prods_fold(u: Term):
    """u = sum of products with one shared inner factor: the
    (inner, summed index) pair of the isomorphic single product."""
    if not isinstance(u, Sum):
        return None
    inner = None
    idxs = []
    for p in u.parts:
        if isinstance(p, Prod):
            c, ix = p.inner, p.index
        else:
            c, ix = p, ONE_T
        if inner is None:
            inner = c
        elif inner != c:
            return None
        idxs.append(ix)
    if inner is None or len(idxs) < 2:
        return None
    return inner, _sumify(idxs)


_HEREDITARY_FACTS = (
    "well_ordered",
    "rev_well_ordered",
    "scattered",
    "countable",
    "final_segments_wo",
    "initial_segments_rwo",
)

# the ordinal invariants of ``Facts`` that embedding never lowers
_ORDINAL_FACTS = ("rank", "final_rank", "initial_rank", "ordinal_bound",
                  "rev_ordinal_bound")


def _sum_dp_plan(engine, sp, tp, i, j, depth, fail):
    """R-SUM-DP's plan for the parts sp[i:] of s into the parts tp[j:]
    of t: (i, a, jj, verdict) for each run sp[i:i+a] embedded in tp[jj],
    or None; ``fail`` holds the (i, j) known to have none.  A function,
    not a closure over the engine, which a recursive closure would keep
    alive in a reference cycle."""
    if i == len(sp):
        return []
    if j >= len(tp) or (i, j) in fail:
        return None
    for jj in range(j, len(tp)):
        for a in range(1, min(3, len(sp) - i) + 1):
            run = _sumify(sp[i : i + a])
            v = engine._embeds(run, tp[jj], depth - 1)
            if v.is_yes:
                rest = _sum_dp_plan(engine, sp, tp, i + a, jj + 1, depth, fail)
                if rest is not None:
                    return [(i, a, jj, v)] + rest
    fail.add((i, j))
    return None


class InconsistencyError(RuntimeError):
    """A classification profile violated one of its own theorems --
    an engine bug, surfaced rather than patched."""


# ---------------------------------------------------------------------------
# side-condition rules
#
# Each ``decide(s, t)`` returns the rule's (answer, instantiation) for
# the goal s <= t, or None when the rule does not apply.  The search of
# the rule and its replay both call it (see ``RULES``).


def _decide_empty(s, t):
    if total_count(s) == 0:
        return YES, {"side": "s"}
    if total_count(t) == 0:
        return NO, {"side": "t"}
    return None


def _decide_refl(s, t):
    return (YES, {}) if s == t else None


def _compare(a, b):
    return (YES, {"cmp": "LE"}) if a <= b else (NO, {"cmp": "GT"})


def _below(a, bound):
    """a <= t YES for an ordinal a below ``bound``, the least ordinal
    (or reversed ordinal) that does not embed in the scattered t."""
    if bound is not None and a < bound:
        return YES, {"bound": str(bound)}
    return None


# R-ORD and R-CO-ORD read s first: on most goals it is no (reversed)
# ordinal, and the rule is done at once
def _decide_ord(s, t):
    a = pure_ordinal(s)
    if a is None:
        return None
    b = pure_ordinal(t)
    if b is not None:
        return _compare(a, b)
    return _below(a, facts(t).ordinal_bound)


def _decide_co_ord(s, t):
    a = co_ordinal(s)
    if a is None:
        return None
    b = co_ordinal(t)
    if b is not None:
        return _compare(a, b)
    return _below(a, facts(t).rev_ordinal_bound)


def _decide_fin(s, t):
    size = facts(s).size
    if size is None:
        return None
    nt = total_count(t)
    if nt >= size:
        return YES, {"size": size}
    return NO, {"size": size, "target_size": int(nt)}


def _decide_card(s, t):
    return (NO, {}) if not facts(s).countable and facts(t).countable else None


def _decide_scat(s, t):
    return (NO, {}) if not facts(s).scattered and facts(t).scattered else None


def _decide_struct(s, t):
    fs, ft = facts(s), facts(t)
    for name in _HEREDITARY_FACTS:
        if getattr(ft, name) and not getattr(fs, name):
            return NO, {"fact": name}
    if fs.rank is not None and ft.rank is not None:
        for name in _ORDINAL_FACTS:
            a, b = getattr(fs, name), getattr(ft, name)
            if b < a:
                return NO, {"fact": name, "s": str(a), "t": str(b)}
    return None


def _decide_eta_univ(s, t):
    return (YES, {}) if isinstance(t, (Eta, Lambda)) and facts(s).countable else None


def _decide_lambda_sep(s, t):
    if not isinstance(t, Lambda) or not isinstance(s, Prod):
        return None
    if total_count(s.inner) >= 2 and not facts(s.index).countable:
        return NO, {}
    return None


def _decide_wo_revsum(s, t):
    alpha = pure_ordinal(s)
    if alpha is None or alpha.is_finite():
        return None
    if not alpha.is_additively_indecomposable():
        return None
    if isinstance(t, SeqSumStar) and t.limit <= alpha:
        return NO, {"kind": "revsum"}
    g = _geom_pure_base(t)
    if g is not None and g[1] and not g[2] and g[0] ** OMEGA <= alpha:
        return NO, {"kind": "geom"}
    return None


def _decide_block_unbounded(s, t):
    side = _block_sum_structure(t)
    if side is None:
        return None
    for i, (a, b) in enumerate(term_cuts(s)):
        if side == "left":
            # descending sequences in t are unbounded left, so no
            # nonempty prefix can sit wholly left of one
            blocks = total_count(a) != 0 and not facts(b).well_ordered
        else:
            blocks = total_count(b) != 0 and not facts(a).rev_well_ordered
        if blocks:
            return NO, {"side": side, "cut": i, "left": a, "right": b}
    return None


# ---------------------------------------------------------------------------
# classification profiles

PROFILE_FIELDS = (
    "indecomposable",
    "strictly_indec_left",
    "strictly_indec_right",
    "sum_closed",
    "strongly_indecomposable",
    "untranscendable",
    "s_untranscendable",
    "product_closed",
    "homogeneous",
)


@dataclass(frozen=True)
class TypeProfile:
    indecomposable: Verdict
    strictly_indec_left: Verdict
    strictly_indec_right: Verdict
    sum_closed: Verdict
    strongly_indecomposable: Verdict
    untranscendable: Verdict
    s_untranscendable: Verdict
    product_closed: Verdict
    homogeneous: Verdict

    def answers(self) -> dict:
        return {f: getattr(self, f).answer for f in PROFILE_FIELDS}


def _ordinal_flags(a: Ordinal, swap: bool) -> Dict[str, str]:
    """The closed-form profile of the ordinal a, or of its reverse when
    swap is set: {field: YES/NO}.  The strict sides of 0 are left out."""
    op = classify_ordinal(a)
    indec = op.additively_indecomposable or a.is_zero()
    flags = {
        "indecomposable": YES if indec else NO,
        "sum_closed": YES if indec else NO,
        "strongly_indecomposable": YES if indec else NO,
        "untranscendable": YES if op.untranscendable else NO,
        "s_untranscendable": YES if op.s_untranscendable else NO,
        "product_closed": YES if op.product_closed else NO,
        "homogeneous": YES if a.is_finite() and a.as_int() <= 2 else NO,
    }
    if not a.is_zero():
        if a == ONE:
            left = right = YES
        elif a.is_finite() or not indec:
            left = right = NO
        else:
            left, right = NO, YES
        if swap:
            left, right = right, left
        flags["strictly_indec_left"] = left
        flags["strictly_indec_right"] = right
    return flags


def _any_type(t):
    return True


# the terms 0 and 2, made once: the rows below test for them on every
# profile step, and a term takes microseconds to make
_ZERO_T, _TWO_T = fin(0), fin(2)

# The links between profile fields: a row (name, premise, conclusion,
# side, source) says that a type t with side(t) and the premise field
# has the conclusion field, by the result or definition named in source.
# ``_implied`` fires each row forward (premise YES gives conclusion YES)
# and by contrapositive (conclusion NO gives premise NO).
# ``_ProfileBuilder.set`` closes a profile with it, and replay checks a
# node of a row by firing the rows of the node's premise.
IMPLICATIONS = (
    ("C-S-UNTR-LIFT", "s_untranscendable", "untranscendable", _any_type,
     "definition: s-untranscendability strengthens untranscendability"),
    ("C-STRONG-LIFT", "strongly_indecomposable", "indecomposable", _any_type,
     "definition: strong indecomposability strengthens indecomposability"),
    ("C-HOMOG-LIFT", "homogeneous", "s_untranscendable", _any_type,
     "a homogeneous type is s-untranscendable"),
    ("C-PC-LIFT", "product_closed", "untranscendable", _any_type,
     "a product-closed type is untranscendable"),
    ("C-2ONLY", "untranscendable", "indecomposable",
     lambda t: t not in (_ZERO_T, _TWO_T),
     "theorem: untranscendable types other than 2 are additively "
     "indecomposable"),
    ("C-SIGMA-SI", "untranscendable", "strongly_indecomposable",
     lambda t: t != _TWO_T and facts(t).countable,
     "theorem: every sigma-scattered untranscendable type other than 2 "
     "is strongly indecomposable; countable types are sigma-scattered"),
    ("C-STRICT-NEEDS-INDEC", "strictly_indec_left", "indecomposable",
     _any_type, "definition: a strictly indecomposable type is indecomposable"),
    ("C-STRICT-NEEDS-INDEC", "strictly_indec_right", "indecomposable",
     _any_type, "definition: a strictly indecomposable type is indecomposable"),
)

_IMPLIED = frozenset(row[0] for row in IMPLICATIONS)


def _implied(t, field, answer):
    """(rule, field) for each field that a row of ``IMPLICATIONS``
    derives for t from t's ``field`` answering ``answer``: forward from a
    premise YES, by contrapositive from a conclusion NO.  The derived
    field answers the same."""
    for name, premise, conclusion, side, _ in IMPLICATIONS:
        if answer == YES and field == premise and side(t):
            yield name, conclusion
        elif answer == NO and field == conclusion and side(t):
            yield name, premise


_STRICT_SIDES = ("strictly_indec_left", "strictly_indec_right")

# the homogeneous types C-HOMOG catalogues
_HOMOGENEOUS = (fin(0), fin(1), fin(2), ETA, LAMBDA)

# the indecomposable types the trichotomy does not hold for
_NO_TRICHOTOMY = (fin(0), fin(1))


def _sutr_candidates(t: Term):
    out = []
    if isinstance(t, Prod):
        out.append((t.inner, t.index))
    g = _geom_pure_base(t)
    if g is not None:
        rho, star, rev_base = g
        if star and not rev_base:
            out.append((OrdLeaf(rho ** OMEGA), OMEGA_STAR))
        elif not star and rev_base:
            out.append((normalize(rev_ordinal_term(rho ** OMEGA)), OMEGA_T))
    return out


_PC_CANDIDATES = (
    (OMEGA_T, fin(2)),
    (OMEGA_STAR, fin(2)),
    (fin(2), OMEGA_T),
    (fin(2), OMEGA_STAR),
)


class _ProfileBuilder:
    def __init__(self, t: Term):
        self.t = t
        self.fields: Dict[str, Verdict] = {f: UNK for f in PROFILE_FIELDS}

    def set(self, field, answer, rule, inst=None, premises=(), axioms=()):
        """Certify that t's ``field`` answers ``answer`` by ``rule``, then
        close the profile under ``IMPLICATIONS``, forward and by
        contrapositive, breadth first, so that each derived field cites
        the shortest chain.  A rule's own node replaces one the table
        derived; a conflicting answer raises InconsistencyError."""
        todo = [(field, answer, rule, inst, premises, axioms)]
        for field, answer, rule, inst, premises, axioms in todo:
            cur = self.fields[field]
            if cur.decided:
                if cur.answer != answer:
                    raise InconsistencyError(
                        f"{field} derived both {cur.answer} and {answer} "
                        f"for {print_term(self.t)}")
                if rule in _IMPLIED or cur._node["rule"] not in _IMPLIED:
                    continue
            v = _cert(answer, rule, self.t, self.t, inst, premises, axioms,
                      claim=field)
            self.fields[field] = v
            for name, implied in _implied(self.t, field, answer):
                todo.append((implied, answer, name, None, (v,), ()))


# ---------------------------------------------------------------------------
# classification steps
#
# Each C-rule's search is one step, ``step(engine, b)``, that certifies
# fields of the profile b of the term b.t by ``b.set``.  A step reads
# only ``embeds``, ``equimorphic`` and ``use_choice`` of its engine, the
# data kept on b.t (its facts, cuts and point count) and the fields b has
# already decided, so that replay can run it against the premises of a
# node (see ``CLASSIFIERS``).


def _step_ordinal(engine, b):
    """C-ORD, C-ORD-REV: the closed form of an ordinal or its reverse."""
    a = pure_ordinal(b.t)
    rule, val = ("C-ORD", a) if a is not None else ("C-ORD-REV", co_ordinal(b.t))
    if val is not None:
        text = str(val)
        for field, answer in _ordinal_flags(val, a is None).items():
            b.set(field, answer, rule, {"ordinal": text})


def _step_double(engine, b):
    """C-DOUBLE: t + t <= t makes t indecomposable and sum-closed."""
    t = b.t
    double = engine.embeds(_sumify([t, t]), t)
    if double.is_yes:
        for field in ("indecomposable", "sum_closed"):
            b.set(field, YES, "C-DOUBLE", premises=(double,))


def _step_sides(engine, b):
    """C-SIDES, C-SC-NO: a cut t = l + r with t embedding in neither side."""
    t = b.t
    for l, r in term_cuts(t):
        vl = engine.embeds(t, l)
        vr = engine.embeds(t, r) if vl.is_no else UNK
        if vr.is_no:
            inst = {"left": l, "right": r}
            b.set("indecomposable", NO, "C-SIDES", inst, (vl, vr))
            b.set("sum_closed", NO, "C-SC-NO", inst, (vl, vr))
            return


def _step_square(engine, b):
    """C-SQUARE: t*t <= t makes t s-untranscendable and product-closed."""
    t = b.t
    square = engine.embeds(normalize(Prod(t, t)), t)
    if square.is_yes:
        for field in ("s_untranscendable", "product_closed"):
            b.set(field, YES, "C-SQUARE", premises=(square,))


def _step_homogeneity(engine, b):
    """C-HOMOG: a catalogued homogeneous type, one equimorphic to one, or
    3 or more points; C-HOMOG-SCAT: an infinite homogeneous type is dense."""
    t = b.t
    if t in _HOMOGENEOUS:
        b.set("homogeneous", YES, "C-HOMOG")
        return
    for c in (ETA, LAMBDA):
        eq = engine.equimorphic(t, c)
        if eq.is_yes:
            b.set("homogeneous", YES, "C-HOMOG", {"transfer": c}, (eq,))
            return
    ft = facts(t)
    if ft.size is not None and ft.size >= 3:
        b.set("homogeneous", NO, "C-HOMOG", {"finite": ft.size})
    elif ft.size is None and ft.scattered:
        b.set("homogeneous", NO, "C-HOMOG-SCAT")


def _step_catalogued(engine, b):
    """C-GEOM and C-CAT-LAMBDA: the catalogued untranscendable types."""
    if isinstance(b.t, (GeomOmega, GeomOmegaStar)):
        b.set("untranscendable", YES, "C-GEOM")
    if isinstance(b.t, Lambda):
        b.set("untranscendable", YES, "C-CAT-LAMBDA")


def _step_sutr_no(engine, b):
    """C-SUTR-NO: t embeds in psi*tau but in neither factor."""
    t = b.t
    if b.fields["s_untranscendable"].decided:
        return
    for psi, tau in _sutr_candidates(t):
        v0 = engine.embeds(t, normalize(Prod(psi, tau)))
        v1 = engine.embeds(t, psi)
        v2 = engine.embeds(t, tau)
        if v0.is_yes and v1.is_no and v2.is_no:
            b.set("s_untranscendable", NO, "C-SUTR-NO",
                  {"psi": psi, "tau": tau}, (v0, v1, v2))
            return


def _strictly_below(engine, x, t):
    """The verdicts x <= t YES and t <= x NO, or None."""
    up = engine.embeds(x, t)
    down = engine.embeds(t, x) if up.is_yes else UNK
    return (up, down) if down.is_no else None


def _step_product_closed_no(engine, b):
    """C-LAMBDA-PC: the real line is not product-closed (choice); C-PC-NO:
    psi and tau strictly below t whose product does not embed in t."""
    t = b.t
    if isinstance(t, Lambda):
        if engine.use_choice:
            b.set("product_closed", NO, "C-LAMBDA-PC", axioms=("AC",))
        return
    if b.fields["product_closed"].decided:
        return
    for psi, tau in _PC_CANDIDATES:
        lower = _strictly_below(engine, psi, t)
        upper = lower and _strictly_below(engine, tau, t)
        if upper:
            v = engine.embeds(normalize(Prod(psi, tau)), t)
            if v.is_no:
                b.set("product_closed", NO, "C-PC-NO",
                      {"psi": psi, "tau": tau}, (*lower, *upper, v))
                return


def _step_sierpinski(engine, b):
    """C-SIERPINSKI: an uncountable suborder of the reals (choice)."""
    t = b.t
    if not facts(t).countable and engine.use_choice:
        vl = engine.embeds(t, LAMBDA)
        if vl.is_yes:
            b.set("strongly_indecomposable", NO, "C-SIERPINSKI",
                  premises=(vl,), axioms=("AC",))


def _step_side_cut(engine, b):
    """C-SIDE-CUT: t does not embed in a nonempty side of one of its cuts."""
    t = b.t
    for l, r in term_cuts(t):
        for side, part in (("strictly_indec_right", r),
                           ("strictly_indec_left", l)):
            if not b.fields[side].decided and total_count(part) != 0:
                v = engine.embeds(t, part)
                if v.is_no:
                    b.set(side, NO, "C-SIDE-CUT", {"part": part}, (v,))


def _step_trichotomy(engine, b):
    """C-TRICH-EXCL: for an indecomposable type other than 0 and 1,
    exactly one of {t + t <= t, strictly left, strictly right} holds;
    fill in what the decided alternatives force.  Each alternative
    makes t indecomposable, so one that holds stands for that premise."""
    t = b.t
    if t in _NO_TRICHOTOMY:
        return
    double = engine.embeds(_sumify([t, t]), t)
    held = [v for v in [double] + [b.fields[side] for side in _STRICT_SIDES]
            if v.is_yes]
    indec = b.fields["indecomposable"]
    if not (held or indec.is_yes):
        return
    for side, other in zip(_STRICT_SIDES, reversed(_STRICT_SIDES)):
        if b.fields[side].decided:
            continue
        if held:
            b.set(side, NO, "C-TRICH-EXCL", premises=held[:1])
        elif double.is_no and b.fields[other].is_no:
            b.set(side, YES, "C-TRICH-EXCL",
                  premises=(double, b.fields[other], indec))


# The classification rules: name -> the step that searches for its nodes
# and that replay runs to check one.  ``classify_type`` runs the first
# step for an ordinal or a reversed ordinal, and the others, in this
# order, for any other type.
CLASSIFIERS = {
    "C-ORD": _step_ordinal,
    "C-ORD-REV": _step_ordinal,
    "C-DOUBLE": _step_double,
    "C-SIDES": _step_sides,
    "C-SC-NO": _step_sides,
    "C-SQUARE": _step_square,
    "C-HOMOG": _step_homogeneity,
    "C-HOMOG-SCAT": _step_homogeneity,
    "C-GEOM": _step_catalogued,
    "C-CAT-LAMBDA": _step_catalogued,
    "C-SUTR-NO": _step_sutr_no,
    "C-LAMBDA-PC": _step_product_closed_no,
    "C-PC-NO": _step_product_closed_no,
    "C-SIERPINSKI": _step_sierpinski,
    "C-SIDE-CUT": _step_side_cut,
    "C-TRICH-EXCL": _step_trichotomy,
}

_GENERAL_STEPS = tuple(dict.fromkeys(CLASSIFIERS.values()))[1:]

# every rule whose nodes classify one term: the steps and the rows of
# ``IMPLICATIONS``
_CLASSIFICATIONS = frozenset(CLASSIFIERS) | _IMPLIED


# ---------------------------------------------------------------------------
# equimorphism and the square
#
# EQ and GARRETT are steps too: each reads only ``embeds`` of its engine
# and the verdicts it is given, so replay runs it against a node's
# premises as it runs a classification step.


def _step_eq(engine, s, t, depth=None):
    """EQ: s and t embed in each other, or the one named by ``failed``
    does not."""
    fwd = engine.embeds(s, t, depth)
    bwd = engine.embeds(t, s, depth)
    if fwd.is_yes and bwd.is_yes:
        return _cert(YES, "EQ", s, t, premises=(fwd, bwd))
    if fwd.is_no:
        return _cert(NO, "EQ", s, t, inst={"failed": "forward"},
                     premises=(fwd,))
    if bwd.is_no:
        return _cert(NO, "EQ", s, t, inst={"failed": "backward"},
                     premises=(bwd,))
    return UNK


def _step_garrett(engine, t, sutr):
    """GARRETT: an s-untranscendable t (``sutr``, a verdict) with two
    copies of itself side by side, t*2 = t + t <= t and 2*t <= t, has
    t*t <= t.  The three hypotheses by name, and the node when all hold."""
    hyps = {
        "s_untranscendable": sutr,
        "two_copies_right": engine.embeds(_sumify([t, t]), t),
        "two_copies_left": engine.embeds(normalize(Prod(_TWO_T, t)), t),
    }
    if not all(v.is_yes for v in hyps.values()):
        return hyps, UNK
    return hyps, _cert(
        YES, "GARRETT", normalize(Prod(t, t)), t,
        inst={
            "homogenization": (
                "the three hypotheses yield a homogeneous type "
                "equimorphic to the input, whose square embeds "
                "into itself and transfers back"
            )
        },
        premises=tuple(hyps.values()),
    )


# ---------------------------------------------------------------------------
# the engine


class Engine:
    """Bounded-depth rule search with memoization, and the
    classification and report pipelines built on it.

    One instance owns one memo table; confine an instance to a single
    thread at a time.  Answers are deterministic for a fixed rule
    order, and YES/NO answers are independent of rule order (all rules
    are sound, so reordering can only trade YES/NO for UNKNOWN, never
    flip them).

    Goals on the search stack are *active*; meeting an active goal
    again is a cycle cut and answers UNKNOWN.  Every YES/NO is memoized.
    An UNKNOWN is memoized with the depth it was searched at and with
    its dependency set: the goals still active when it finished on
    which its search was cut, directly or through a reused UNKNOWN or
    an UNKNOWN subgoal.  A decided subgoal hands on no dependency, as
    its answer is memoized for good.  A stored UNKNOWN
    answers a goal at depth d when it was searched at depth >= d and
    every goal of its set is active; reusing it adds that set to the
    caller's.  This is the completion rule of SLG resolution (Chen &
    Warren, JACM 43(1), 1996): an UNKNOWN found beneath open goals
    stays valid while they stay open.  With an empty set the entry
    answers in any context.  Reuse cannot flip an answer: it only ever
    returns UNKNOWN, and every YES/NO still comes from a certificate.
    The UNKNOWN is also reproducible: a search under the reuse
    condition would meet every cut the stored search met, at no more
    depth, and since a rule fires only on decided premises, more cuts
    or less depth never make a goal decided.  (As for a cut-free
    UNKNOWN, YES/NO answers memoized after the entry was stored are
    not reconsidered.)  A goal searched again, at more depth or outside
    the goals its entry was cut on, and decided, drops its UNKNOWN
    entry: the memo answers it from then on.
    """

    def __init__(self, depth: int = 8, use_choice: bool = True,
                 rule_order=None):
        self.depth = depth
        self.use_choice = use_choice
        self.rule_order = tuple(rule_order or DEFAULT_RULE_ORDER)
        unknown = set(self.rule_order) - set(RULES)
        if unknown:
            raise ValueError(f"unknown rules: {sorted(unknown)}")
        self._searches = tuple(RULES[name][0] for name in self.rule_order)
        self._memo: Dict[Tuple[Term, Term], Verdict] = {}
        self._unknown_depth: Dict[Tuple[Term, Term], int] = {}
        # dependency sets of the stored UNKNOWNs that have one
        self._unknown_deps: Dict[Tuple[Term, Term], frozenset] = {}
        self._active: set = set()
        # the running goal's dependency set; None while it is empty
        self._deps: Optional[set] = None
        self._goals = 0
        self._cycle_cuts = 0
        self._unknown_reuses = 0

    def search_stats(self) -> Dict[str, int]:
        """Cumulative counts over this engine's life: rule searches
        started, cycle cuts, and stored UNKNOWNs reused."""
        return {
            "goals": self._goals,
            "cycle_cuts": self._cycle_cuts,
            "unknown_reuses": self._unknown_reuses,
        }

    # -- embeddability ---------------------------------------------------

    def embeds(self, s: Term, t: Term, depth: Optional[int] = None) -> Verdict:
        s, t = normalize(s), normalize(t)
        return self._embeds(s, t, self.depth if depth is None else depth)

    def _add_deps(self, goals) -> None:
        if self._deps is None:
            self._deps = set(goals)
        else:
            self._deps.update(goals)

    def _embeds(self, s: Term, t: Term, depth: int) -> Verdict:
        key = (s, t)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if key in self._active:
            self._cycle_cuts += 1
            self._add_deps((key,))
            return UNK
        if self._unknown_depth.get(key, -1) >= depth:
            deps = self._unknown_deps.get(key)
            if deps is None or deps <= self._active:
                self._unknown_reuses += 1
                if deps is not None:
                    self._add_deps(deps)
                return UNK
        parent_deps, self._deps = self._deps, None
        self._goals += 1
        self._active.add(key)
        try:
            result = UNK
            for search in self._searches:
                v = search(self, s, t, depth)
                if v is not None:
                    result = v
                    break
        finally:
            self._active.discard(key)
            deps, self._deps = self._deps, parent_deps
        if result.decided:
            self._memo[key] = result
            self._unknown_depth.pop(key, None)
            self._unknown_deps.pop(key, None)
            return result
        self._unknown_depth[key] = depth
        if deps is not None:
            deps.discard(key)
        if deps:
            self._unknown_deps[key] = frozenset(deps)
            if parent_deps is None:
                self._deps = deps
            else:
                parent_deps.update(deps)
        else:
            self._unknown_deps.pop(key, None)
        return result

    def equimorphic(self, s: Term, t: Term, depth: Optional[int] = None) -> Verdict:
        return _step_eq(self, normalize(s), normalize(t), depth)

    # -- the search side of the recursive rules --------------------------

    def _rule_r_dense_abs(self, s, t, depth):
        if depth <= 0 or not isinstance(t, (Eta, Lambda)):
            return None
        if not isinstance(s, Sum):
            return None
        prem = []
        for p in s.parts:
            v = self._embeds(p, t, depth - 1)
            if not v.is_yes:
                return None
            prem.append(v)
        return _cert(YES, "R-DENSE-ABS", s, t, premises=tuple(prem))

    def _rule_r_absorb(self, s, t, depth):
        if depth <= 0:
            return None
        for piece in term_pieces(t):
            v = self._embeds(s, piece, depth - 1)
            if v.is_yes:
                return _cert(YES, "R-ABSORB", s, t,
                             inst={"piece": piece},
                             premises=(v,))
        return None

    def _rule_r_sum_dp(self, s, t, depth):
        if depth <= 0 or not isinstance(s, Sum) or not isinstance(t, Sum):
            return None
        sp, tp = s.parts, t.parts
        if len(sp) > 8 or len(tp) > 8:
            return None
        plan = _sum_dp_plan(self, sp, tp, 0, 0, depth, set())
        if plan is None:
            return None
        return _cert(
            YES, "R-SUM-DP", s, t,
            inst={"segments": [[i, a, jj] for i, a, jj, _ in plan]},
            premises=tuple(v for _, _, _, v in plan),
        )

    def _rule_r_prod_mono(self, s, t, depth):
        if depth <= 0 or not isinstance(s, Prod) or not isinstance(t, Prod):
            return None
        vi = self._embeds(s.inner, t.inner, depth - 1)
        if not vi.is_yes:
            return None
        vx = self._embeds(s.index, t.index, depth - 1)
        if not vx.is_yes:
            return None
        return _cert(YES, "R-PROD-MONO", s, t, premises=(vi, vx))

    def _rule_r_prod_sumfold(self, s, t, depth):
        if depth <= 0:
            return None
        sf = _sum_of_prods_fold(s)
        tf = _sum_of_prods_fold(t)
        if sf is None and tf is None:
            return None
        sc = (s.inner, s.index) if isinstance(s, Prod) else sf
        tc = (t.inner, t.index) if isinstance(t, Prod) else tf
        if sc is None or tc is None:
            return None
        vi = self._embeds(sc[0], tc[0], depth - 1)
        if not vi.is_yes:
            return None
        vx = self._embeds(sc[1], tc[1], depth - 1)
        if not vx.is_yes:
            return None
        return _cert(YES, "R-PROD-SUMFOLD", s, t,
                     inst={"s_product": list(sc), "t_product": list(tc)},
                     premises=(vi, vx))

    def _rule_r_psi_tau(self, s, t, depth):
        if depth <= 0 or not isinstance(s, Sum) or not isinstance(t, Prod):
            return None
        c, d = t.inner, t.index
        sp = s.parts
        for i in range(1, len(sp)):
            head = _sumify(sp[:i])
            v1 = self._embeds(head, c, depth - 1)
            if not v1.is_yes:
                continue
            rest = _sumify([ONE_T] + list(sp[i:]))
            v2 = self._embeds(rest, d, depth - 1)
            if v2.is_yes:
                return _cert(YES, "R-PSI-TAU", s, t, inst={"split": i},
                             premises=(v1, v2))
        return None

    def _rule_r_geom_reindex(self, s, t, depth):
        if depth <= 0 or type(s) is not type(t):
            return None
        if not isinstance(s, (GeomOmega, GeomOmegaStar)):
            return None
        v = self._embeds(s.base, t.base, depth - 1)
        if v.is_yes:
            return _cert(YES, "R-GEOM-REINDEX", s, t, premises=(v,))
        return None

    def _rule_r_geom_prod(self, s, t, depth):
        if depth <= 0 or not isinstance(t, Prod):
            return None
        g = _geom_pure_base(s)
        if g is None:
            return None
        rho, star, rev_base = g
        c, d = t.inner, t.index
        gamma = co_ordinal(c) if rev_base else pure_ordinal(c)
        if gamma is None or not (rho ** OMEGA <= gamma):
            return None
        marker = OMEGA_STAR if star else OMEGA_T
        v = self._embeds(marker, d, depth - 1)
        if not v.is_yes:
            return None
        return _cert(YES, "R-GEOM-PROD", s, t, premises=(v,))

    def _rule_r_geom(self, s, t, depth):
        if depth <= 0:
            return None
        if isinstance(s, GeomOmega):
            cond = _sumify([ONE_T, normalize(Prod(s.base, t))])
            v = self._embeds(cond, t, depth - 1)
            if v.is_yes:
                return _cert(YES, "R-GEOM", s, t,
                             inst={"direction": "omega"}, premises=(v,))
        elif isinstance(s, GeomOmegaStar):
            rt = reverse_term(t)
            rb = reverse_term(s.base)
            cond = _sumify([ONE_T, normalize(Prod(rb, rt))])
            v = self._embeds(cond, rt, depth - 1)
            if v.is_yes:
                return _cert(YES, "R-GEOM", s, t,
                             inst={"direction": "star"}, premises=(v,))
        return None

    def _rule_r_revsum_omega(self, s, t, depth):
        if depth <= 0 or not isinstance(t, Prod):
            return None
        alpha = pure_ordinal(s)
        if alpha is None or alpha.is_finite():
            return None
        c, d = t.inner, t.index
        ok = False
        if isinstance(c, SeqSumStar) and alpha <= c.limit:
            ok = True
        else:
            g = _geom_pure_base(c)
            if g is not None and g[1] and not g[2] and alpha <= g[0] ** OMEGA:
                ok = True
        if not ok:
            return None
        v = self._embeds(OMEGA_T, d, depth - 1)
        if not v.is_yes:
            return None
        return _cert(YES, "R-REVSUM-OMEGA", s, t, premises=(v,))

    def _rule_r_sep_prod(self, s, t, depth):
        if depth <= 0 or not isinstance(s, Prod) or not isinstance(t, Prod):
            return None
        a, b, c, d = s.inner, s.index, t.inner, t.index
        vb = self._embeds(b, d, depth - 1)
        if not vb.is_no:
            return None
        if total_count(a) != 0 or total_count(c) != 0:
            for variant, probe in (
                ("one-left", _sumify([ONE_T, a])),
                ("one-right", _sumify([a, ONE_T])),
            ):
                va = self._embeds(probe, c, depth - 1)
                if va.is_no:
                    return _cert(NO, "R-SEP-PROD", s, t,
                                 inst={"variant": variant},
                                 premises=(va, vb))
        if self.use_choice:
            va = self._embeds(a, c, depth - 1)
            if va.is_no:
                return _cert(NO, "R-SEP-PROD", s, t,
                             inst={"variant": "plain"},
                             premises=(va, vb), axioms=("AC",))
        return None

    # R-SEP-SUM works on a cut (phi, psi) of s and a cut (tau, rho) of t,
    # in three variants.  "plain" refutes s <= t from phi <= tau NO and
    # psi <= rho NO, "strong" from phi <= tau NO and 1 + psi <= rho NO
    # (separation).  "join" proves it from phi <= tau YES and psi <= rho
    # YES, as + is monotone: s = phi + psi <= tau + rho = t.  The join is
    # tried only when s is not a Sum: a Sum has a cut at every boundary
    # of its parts, and under rule orders that put this rule early,
    # joining at all of them made classification over two times slower.
    def _rule_r_sep_sum(self, s, t, depth):
        if depth <= 1:
            return None
        scuts = term_cuts(s)
        tcuts = term_cuts(t)
        if not scuts or not tcuts:
            return None
        join = not isinstance(s, Sum)
        for i, (phi, psi) in enumerate(scuts):
            for j, (tau, rho) in enumerate(tcuts):
                v1 = self._embeds(phi, tau, depth - 1)
                if join and v1.is_yes:
                    v2 = self._embeds(psi, rho, depth - 1)
                    if v2.is_yes:
                        return _cert(YES, "R-SEP-SUM", s, t,
                                     inst={"variant": "join", "s_cut": i,
                                           "t_cut": j},
                                     premises=(v1, v2))
                    continue
                if not v1.is_no:
                    continue
                v2 = self._embeds(psi, rho, depth - 1)
                if v2.is_no:
                    return _cert(NO, "R-SEP-SUM", s, t,
                                 inst={"variant": "plain", "s_cut": i,
                                       "t_cut": j},
                                 premises=(v1, v2))
                v2 = self._embeds(_sumify([ONE_T, psi]), rho, depth - 1)
                if v2.is_no:
                    return _cert(NO, "R-SEP-SUM", s, t,
                                 inst={"variant": "strong", "s_cut": i,
                                       "t_cut": j},
                                 premises=(v1, v2))
        return None

    def _rule_r_rev(self, s, t, depth):
        if depth <= 0:
            return None
        rs, rt = reverse_term(s), reverse_term(t)
        if (rs, rt) == (s, t):
            return None
        v = self._embeds(rs, rt, depth - 1)
        if v.decided:
            return _cert(v.answer, "R-REV", s, t, premises=(v,))
        return None

    # -- classification --------------------------------------------------

    def classify_type(self, t: Term) -> TypeProfile:
        t = normalize(t)
        b = _ProfileBuilder(t)
        if pure_ordinal(t) is not None or co_ordinal(t) is not None:
            _step_ordinal(self, b)
        else:
            self._classify_general(b)
        prof = TypeProfile(**b.fields)
        self._enforce_profile(t, prof)
        return prof

    def _classify_general(self, b: _ProfileBuilder):
        """Run the general catalogue's steps on b in order.  t + t <= t
        and t*t <= t are asked first, as the memo and UNKNOWN reuse
        depend on the order of the goals; the steps ask them again."""
        t = b.t
        self.embeds(_sumify([t, t]), t)
        self.embeds(normalize(Prod(t, t)), t)
        for step in _GENERAL_STEPS:
            step(self, b)

    def _enforce_profile(self, t: Term, p: TypeProfile):
        # (``_ProfileBuilder.set`` holds the profile to IMPLICATIONS)
        if p.indecomposable.is_yes and t not in _NO_TRICHOTOMY:
            double = self.embeds(_sumify([t, t]), t)
            trio = [double, p.strictly_indec_left, p.strictly_indec_right]
            if sum(1 for v in trio if v.is_yes) > 1:
                raise InconsistencyError(
                    f"profile for {print_term(t)}: "
                    "more than one trichotomy alternative"
                )

    # -- reports ---------------------------------------------------------

    def trichotomy_check(self, t: Term) -> dict:
        t = normalize(t)
        prof = self.classify_type(t)
        double = self.embeds(_sumify([t, t]), t)
        alts = {
            "double": double.answer,
            "strictly_left": prof.strictly_indec_left.answer,
            "strictly_right": prof.strictly_indec_right.answer,
        }
        reported = [k for k, v in alts.items() if v == YES]
        exception = t == fin(1)
        all_decided = all(v != UNKNOWN for v in alts.values())
        violation = (
            prof.indecomposable.answer == YES
            and not exception
            and all_decided
            and len(reported) != 1
        )
        return {
            "term": print_term(t),
            "indecomposable": prof.indecomposable.answer,
            "alternatives": alts,
            "reported": reported,
            "exception_one": exception,
            "all_decided": all_decided,
            "violation": violation,
        }

    def square_report(self, t: Term) -> dict:
        t = normalize(t)
        prof = self.classify_type(t)
        square_term = normalize(Prod(t, t))
        direct = self.embeds(square_term, t)
        hyps, verdict = _step_garrett(self, t, prof.s_untranscendable)
        if not verdict.decided:
            verdict = direct
        return {
            "term": print_term(t),
            "verdict": verdict,
            "hypotheses": hyps,
            "failed": [k for k, v in hyps.items() if v.is_no],
            "undecided": [k for k, v in hyps.items() if not v.decided],
            "direct": direct,
        }


# ---------------------------------------------------------------------------
# certificate replay
#
# Replay checks each node from the terms printed in it and the nodes of
# its premises, then checks the premises in turn.  Every node is checked
# by the code that builds it: a side-condition rule's ``decide``, or a
# search or step -- of ``RULES``, of ``CLASSIFIERS``, EQ, GARRETT, or the
# closure under ``IMPLICATIONS`` -- run once against the node's premises,
# which must give that node back.  A tampered certificate fails.


class CertificateError(ValueError):
    pass


def _p(text: str) -> Term:
    return parse_normalized(text)


def _expect(cond, why):
    if not cond:
        raise CertificateError(why)


def _premise_term(text, node, s, t) -> Term:
    """A term printed in a premise of the node whose terms are s and t;
    printed as one of those, it needs no parse."""
    if text == node["t"]:
        return t
    return s if text == node["s"] else _p(text)


def _premise_terms(q, node, s, t):
    """The terms (s, t) printed in the premise q of the node whose terms
    are s and t."""
    qt = _premise_term(q["t"], node, s, t)
    return (qt if q["s"] == q["t"] else _premise_term(q["s"], node, s, t)), qt


def _side_condition_rule(name, decide, axioms=()):
    """The ``RULES`` entry of a rule decided by its side conditions
    alone: a search that certifies what ``decide`` gives, and the
    (decide, axioms) pair that replay checks its nodes by."""

    def search(engine, s, t, depth):
        d = decide(s, t)
        return None if d is None else _cert(d[0], name, s, t, d[1], axioms=axioms)

    return search, (decide, axioms)


# The embedding rules, in the default order: name -> (search, side).
# ``search(engine, s, t, depth)`` returns a decided Verdict or None and
# may use only ``_embeds`` and ``use_choice`` of its engine argument, so
# that replay can run it against a node's premises (``_Premises``).
# ``side`` is (decide, axiom tags) of a rule decided by its side
# conditions alone, which replay calls instead, and None otherwise.
RULES = {
    "R-EMPTY": _side_condition_rule("R-EMPTY", _decide_empty),
    "R-REFL": _side_condition_rule("R-REFL", _decide_refl),
    "R-ORD": _side_condition_rule("R-ORD", _decide_ord),
    "R-CO-ORD": _side_condition_rule("R-CO-ORD", _decide_co_ord),
    "R-FIN": _side_condition_rule("R-FIN", _decide_fin),
    "R-CARD": _side_condition_rule("R-CARD", _decide_card),
    "R-SCAT": _side_condition_rule("R-SCAT", _decide_scat),
    "R-STRUCT": _side_condition_rule("R-STRUCT", _decide_struct),
    "R-ETA-UNIV": _side_condition_rule("R-ETA-UNIV", _decide_eta_univ,
                                       axioms=("classical",)),
    "R-DENSE-ABS": (Engine._rule_r_dense_abs, None),
    "R-LAMBDA-SEP": _side_condition_rule("R-LAMBDA-SEP", _decide_lambda_sep),
    "R-ABSORB": (Engine._rule_r_absorb, None),
    "R-SUM-DP": (Engine._rule_r_sum_dp, None),
    "R-PROD-MONO": (Engine._rule_r_prod_mono, None),
    "R-PROD-SUMFOLD": (Engine._rule_r_prod_sumfold, None),
    "R-PSI-TAU": (Engine._rule_r_psi_tau, None),
    "R-GEOM-REINDEX": (Engine._rule_r_geom_reindex, None),
    "R-GEOM-PROD": (Engine._rule_r_geom_prod, None),
    "R-GEOM": (Engine._rule_r_geom, None),
    "R-REVSUM-OMEGA": (Engine._rule_r_revsum_omega, None),
    "R-WO-REVSUM": _side_condition_rule("R-WO-REVSUM", _decide_wo_revsum),
    "R-BLOCK-UNBOUNDED": _side_condition_rule("R-BLOCK-UNBOUNDED",
                                              _decide_block_unbounded),
    "R-SEP-PROD": (Engine._rule_r_sep_prod, None),
    "R-SEP-SUM": (Engine._rule_r_sep_sum, None),
    "R-REV": (Engine._rule_r_rev, None),
}

DEFAULT_RULE_ORDER = tuple(RULES)


class _Premises:
    """The engine a rule's search or step runs against in replay: each
    goal that is an embedding premise of one node gets that premise's
    answer and certificate, each pair an EQ premise is about gets that
    premise's, and every other goal UNKNOWN.  A rule stays sound when a
    goal answers UNKNOWN, so this cannot make it unsound.  Choice is
    allowed; a node that used it must carry the AC tag the search then
    adds."""

    use_choice = True

    def __init__(self, premises):
        # premises: (node, s, t) of each premise, its terms parsed
        self._verdicts = {(s, t): Verdict(q["answer"], q)
                          for q, s, t in premises if q["rule"] in RULES}
        self._equimorphisms = {(s, t): Verdict(q["answer"], q)
                               for q, s, t in premises if q["rule"] == "EQ"}

    def embeds(self, s, t, depth=None):
        return self._verdicts.get((s, t), UNK)

    _embeds = embeds

    def equimorphic(self, s, t):
        return self._equimorphisms.get((s, t), UNK)


class _PremiseProfile:
    """The profile of t that a step runs against in replay: each field a
    classification premise of the node certifies about t holds that
    premise, and every other field UNKNOWN.  ``set`` applies no
    ``IMPLICATIONS`` and never raises; it records the node it certifies
    for the field ``claim``, and only the answer for another field: no
    step cites a field it has set itself."""

    def __init__(self, t, premises, claim):
        self.t = t
        self.claim = claim
        self.fields = dict.fromkeys(PROFILE_FIELDS, UNK)
        for q, qs, qt in premises:
            if (q["rule"] in _CLASSIFICATIONS and qs is t and qt is t
                    and q.get("claim") in self.fields):
                self.fields[q["claim"]] = Verdict(q["answer"], q)
        self.made = []

    def set(self, field, answer, rule, inst=None, premises=(), axioms=()):
        if field == self.claim:
            v = _cert(answer, rule, self.t, self.t, inst, premises, axioms,
                      claim=field)
            self.made.append(v)
        else:
            v = Verdict(answer)
        self.fields[field] = v


def replay_certificate(node: dict) -> bool:
    """Revalidate a certificate tree; True when every node checks out.

    Replay trusts the term layer: ``parse_normalized``, ``normalize``,
    ``print_term``, ``term_cuts``, ``term_pieces``, ``facts``,
    ``total_count`` and CNF ordinal arithmetic; it uses nothing of the
    point layer (``points``).  Terms are interned, so it trusts the
    intern table to give equal terms one node, and it trusts the data
    kept on a node as computed once: its normal form and reverse, its
    point count, its printed text, which a node's ``s`` and ``t`` are
    compared by, its facts (the ordinal invariants R-STRUCT compares
    among them, and the bounds R-ORD and R-CO-ORD read), its
    reversed-ordinal value, its pieces and cuts (deep and shallow), and
    the powers of a geometric base, each one normalizer step from the
    one before (``_npow``), which the search may have computed before the
    replay.  It trusts each rule as the search runs it, and nothing
    else: each side-condition rule's ``decide`` and each recursive
    rule's search in ``RULES``, each classification step of
    ``CLASSIFIERS``, the EQ and GARRETT steps, and the rows of
    ``IMPLICATIONS`` as ``_implied`` fires them, each run once against
    the node's premises.  It does not trust how the
    search used the rules: the memo, cycle cuts, UNKNOWN reuse, the
    depth bound and the rule order play no part in replay.
    The tree is walked depth first with an explicit stack, so a deep
    certificate ends in True or False, never in a RecursionError, and a
    node that is its own premise, directly or further down, is rejected."""
    try:
        _expect(isinstance(node, dict), "not a certificate node")
        t = _p(node["t"])
        todo = [(node, t if node["s"] == node["t"] else _p(node["s"]), t)]
        path = set()  # ids of the nodes whose premises are being checked
        while todo:
            node, s, t = todo.pop()
            if s is None:  # every premise of the node checked out
                path.discard(id(node))
                continue
            _expect(id(node) not in path, "a node is its own premise")
            path.add(id(node))
            todo += [(node, None, None)] + _replay(node, s, t)
        return True
    except (CertificateError, CapacityError, KeyError, ValueError, TypeError):
        return False


def _replay(node: dict, s: Term, t: Term):
    """Check the node whose printed terms are s and t, but not its
    premises; return (premise, s, t) for each of them."""
    _expect(node.get("answer") in (YES, NO), "answer must be decided")
    rule = node.get("rule")
    prem = [(q, *_premise_terms(q, node, s, t)) for q in node["premises"]]
    search, side = RULES.get(rule, (None, None))
    if side is not None:
        decide, axioms = side
        d = decide(s, t)
        _expect(d is not None and d[0] == node["answer"]
                and {k: _shown(v) for k, v in d[1].items()}
                == node["instantiation"], "side conditions")
        _expect(not prem and node["axioms"] == list(axioms),
                "premises or axiom tags")
        return prem
    engine = _Premises(prem)
    if search is not None:
        made = [search(engine, s, t, inf)]
    elif rule == "EQ":
        made = [_step_eq(engine, s, t)]
    elif rule == "GARRETT":
        sutr = _PremiseProfile(t, prem, None).fields["s_untranscendable"]
        made = [_step_garrett(engine, t, sutr)[1]]
    else:
        _expect(rule in _CLASSIFICATIONS, f"unknown rule {rule!r}")
        b = _PremiseProfile(t, prem, node.get("claim"))
        if rule in CLASSIFIERS:
            CLASSIFIERS[rule](engine, b)
        else:
            for field, v in list(b.fields.items()):
                if v.decided:
                    for name, implied in _implied(t, field, v.answer):
                        b.set(implied, v.answer, name, premises=(v,))
        made = b.made
    # the exact match covers the answer, claim, instantiation, premises
    # (the same objects) and axiom tags
    for v in made:
        if v is not None and v.certificate == node:
            return prem
    raise CertificateError("the rule does not derive the node from its premises")

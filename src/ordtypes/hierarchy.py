"""Regular unbounded sums and shuffles: validation, realization, and
construction of equimorphic representatives without finite classes.

A :class:`SumSpec` describes an indexed sum of order types

- over the natural numbers read left-to-right ("omega-sum"),
- over the natural numbers read right-to-left ("omega-star-sum"), or
- over the rationals with every summand type recurring densely
  ("eta-shuffle"),

with the summand sequence drawn from a closed catalogue of generator
shapes (constant, eventually constant, geometric powers of a base, or
an explicit finite prefix followed by one of those tails).  Keeping the
catalogue closed makes the regularity and density conditions decidable
via the embeddability engine.

Only these three countable index shapes are supported; anything else is
rejected loudly.

:func:`no_finite_F_witness` rebuilds a validated sum as an equimorphic
term all of whose finite-interval condensation classes are infinite,
following a small catalogue of construction steps (keep a sum that is
already class-infinite; collapse an all-singleton sum to its index, or
an all-singleton shuffle to omega times its index; pad finite summands
into two-sided-infinite blocks and drop singleton summands).  The
result is accepted only when the engine certifies the equimorphism or
the step applied is one of the catalogued ones and the engine does not
refute it.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .engine import NO, UNKNOWN, YES, Engine, Verdict
from .finite import CapacityError
from .fprofile import f_class_profile
from .points import total_count
from .terms import (
    ETA,
    OMEGA_STAR,
    OMEGA_T,
    ONE_T,
    ZETA,
    GeomOmega,
    GeomOmegaStar,
    ParseError,
    Prod,
    Sum,
    Term,
    normalize,
    parse_term,
    print_term,
)

log = logging.getLogger(__name__)

KINDS = ("omega-sum", "omega-star-sum", "eta-shuffle")
SHAPES = ("constant", "eventually-constant", "geometric", "prefix")


@dataclass(frozen=True)
class Generator:
    """A finitely described map from sum indices to summand terms."""

    shape: str
    base: Optional[Term] = None  # constant / eventually-constant / geometric
    prefix: Tuple[Term, ...] = ()  # eventually-constant / prefix
    tail: Optional["Generator"] = None  # prefix only

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown generator shape {self.shape!r}")
        # summands are consumed by the point and profile calculus, which
        # expects normalized terms
        if self.base is not None:
            object.__setattr__(self, "base", normalize(self.base))
        if self.prefix:
            object.__setattr__(
                self, "prefix", tuple(normalize(p) for p in self.prefix)
            )
        if self.shape == "prefix":
            if self.tail is None or self.tail.shape == "prefix":
                raise ValueError(
                    "prefix generators need a constant or geometric tail"
                )
        elif self.base is None:
            raise ValueError(f"{self.shape} generators need a base term")
        if self.shape == "eventually-constant" and not self.prefix:
            raise ValueError("eventually-constant generators need a prefix")

    def term_at(self, n: int) -> Term:
        """The n-th summand (n counts from the index's near end: from
        the left for omega-sums, from the right for omega-star-sums)."""
        if self.shape == "constant":
            return self.base
        if self.shape == "eventually-constant":
            return self.prefix[n] if n < len(self.prefix) else self.base
        if self.shape == "geometric":
            # powers start at 1: base + base^2 + base^3 + ...
            out = self.base
            for _ in range(n):
                out = normalize(Prod(out, self.base))
            return out
        if n < len(self.prefix):
            return self.prefix[n]
        return self.tail.term_at(n - len(self.prefix))

    def values(self) -> List[Term]:
        """The distinct summand terms named by the description (the
        prefix entries plus the eventual base; a geometric generator is
        represented by its base)."""
        if self.shape == "constant":
            return [self.base]
        if self.shape == "eventually-constant":
            return list(self.prefix) + [self.base]
        if self.shape == "geometric":
            return [self.base]
        return list(self.prefix) + self.tail.values()


@dataclass(frozen=True)
class SumSpec:
    kind: str
    generator: Generator

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unsupported index {self.kind!r}: only omega-sum, "
                "omega-star-sum and eta-shuffle indices exist here"
            )


# ---------------------------------------------------------------------------
# JSON round-trip


def generator_to_json(g: Generator) -> dict:
    out = {"shape": g.shape}
    if g.base is not None:
        out["base"] = print_term(g.base)
    if g.prefix:
        out["prefix"] = [print_term(p) for p in g.prefix]
    if g.tail is not None:
        out["tail"] = generator_to_json(g.tail)
    return out


def generator_from_json(d: dict) -> Generator:
    if not isinstance(d, dict) or "shape" not in d:
        raise ValueError("generator must be an object with a 'shape'")
    return Generator(
        shape=d["shape"],
        base=parse_term(d["base"]) if "base" in d else None,
        prefix=tuple(parse_term(p) for p in d.get("prefix", ())),
        tail=generator_from_json(d["tail"]) if "tail" in d else None,
    )


def spec_to_json(s: SumSpec) -> dict:
    return {"kind": s.kind, "generator": generator_to_json(s.generator)}


def spec_from_json(d) -> SumSpec:
    if isinstance(d, str):
        d = json.loads(d)
    if not isinstance(d, dict):
        raise ValueError("sum spec must be a JSON object")
    if "generator" not in d:
        raise ValueError("sum spec needs a 'generator'")
    return SumSpec(kind=d.get("kind", ""), generator=generator_from_json(d["generator"]))


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class SpecCheck:
    """The answer of a regularity check: why it holds or is undecided
    (``reason``), or the index of a summand that does not recur
    (``counterexample_index``), and the engine verdicts it rests on, each
    with its own certificate."""

    answer: str
    reason: Optional[str] = None
    counterexample_index: Optional[int] = None
    premises: Tuple[Verdict, ...] = ()

    @property
    def is_yes(self):
        return self.answer == YES

    @property
    def is_no(self):
        return self.answer == NO

    @property
    def decided(self):
        return self.answer != UNKNOWN


def validate_sum_spec(s: SumSpec, engine: Optional[Engine] = None) -> SpecCheck:
    """Check the regularity condition of the indexed sum.

    For omega / omega-star sums: every summand type must embed into
    summand types occurring unboundedly far out; with our catalogued
    shapes this reduces to finitely many engine queries (each prefix
    value against the eventual value, and 1 <= base for geometric
    towers).  For shuffles every named value recurs densely by
    construction, so the check is vacuous."""
    eng = engine or Engine()
    g = s.generator
    if s.kind == "eta-shuffle":
        return SpecCheck(YES, "each named summand recurs densely by "
                              "construction of the shuffle")

    if g.shape == "constant":
        return SpecCheck(YES, "constant generator")
    if g.shape == "geometric":
        v = eng.embeds(ONE_T, g.base)
        if v.is_yes:
            return SpecCheck(YES, "monotone geometric tower", premises=(v,))
        if v.is_no:
            return SpecCheck(NO, counterexample_index=0, premises=(v,))
        return SpecCheck(UNKNOWN, "1 <= base is undecided")

    # eventually-constant / prefix: each prefix entry must re-embed
    # into the recurring tail values
    tail_values = _dedupe(
        [g.base] if g.shape == "eventually-constant" else g.tail.values()
        + [g.tail.term_at(k) for k in range(1, 4)]
    )
    unknown = False
    found = []
    for i, p in enumerate(g.prefix):
        answers = [eng.embeds(p, tv) for tv in tail_values]
        yes = [a for a in answers if a.is_yes]
        if yes:
            found.append(yes[0])
        elif all(a.is_no for a in answers):
            return SpecCheck(NO, counterexample_index=i,
                             premises=tuple(answers))
        else:
            unknown = True
    if unknown:
        return SpecCheck(UNKNOWN, "a prefix entry's re-embedding in the "
                                  "tail is undecided")
    return SpecCheck(YES, "prefix entries re-embed in the tail",
                     premises=tuple(found))


# ---------------------------------------------------------------------------
# realization


def realize(s: SumSpec) -> Term:
    """The indexed sum as a normalized term, when expressible."""
    g = s.generator
    if s.kind == "eta-shuffle":
        vals = [v for v in g.values() if total_count(v) != 0]
        distinct = _dedupe(vals)
        if not distinct:
            return normalize(Prod(ONE_T, ETA)) if g.values() else ETA
        if len(distinct) > 1:
            raise CapacityError(
                "shuffles of more than one summand type have no term "
                "representation here"
            )
        return normalize(Prod(distinct[0], ETA))

    star = s.kind == "omega-star-sum"
    marker = OMEGA_STAR if star else OMEGA_T

    if g.shape == "constant":
        return normalize(Prod(g.base, marker))
    if g.shape == "geometric":
        geom = GeomOmegaStar(g.base, 1) if star else GeomOmega(g.base, 1)
        return normalize(geom)
    if g.shape == "eventually-constant":
        head = list(g.prefix)
        tail_term = normalize(Prod(g.base, marker))
    else:
        head = list(g.prefix)
        tail_spec = SumSpec(s.kind, g.tail)
        tail_term = realize(tail_spec)
    if star:
        # index 0 is the rightmost summand
        parts = [tail_term] + head[::-1]
    else:
        parts = head + [tail_term]
    return normalize(Sum(tuple(parts)))


def _dedupe(ts: List[Term]) -> List[Term]:
    out = []
    for t in ts:
        if t not in out:
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# witnesses without finite classes


def _pad_term(t: Term) -> Optional[Term]:
    """An order without finite interval-condensation classes containing
    t: t itself when its classes are already all infinite, a zeta-block
    padding for finite nonempty t, else nothing."""
    prof = f_class_profile(t)
    if prof.status == "all-infinite":
        return t
    n = total_count(t)
    if n != 0 and n != float("inf") and isinstance(n, int):
        return normalize(Prod(t, ZETA))
    return None


def no_finite_F_witness(
    s: SumSpec, engine: Optional[Engine] = None
) -> Optional[Term]:
    """An equimorphic rebuild of the sum whose interval-condensation
    classes are all infinite, or None (with a logged diagnostic) when
    no catalogued construction step applies or the engine refutes the
    equimorphism."""
    eng = engine or Engine()
    v = validate_sum_spec(s, eng)
    if v.is_no:
        log.warning("witness refused: spec fails its regularity check")
        return None
    try:
        r = realize(s)
    except CapacityError as exc:
        log.warning("witness refused: %s", exc)
        return None

    if f_class_profile(r).status == "all-infinite":
        return r  # catalogued step: nothing to rebuild

    g = s.generator
    singleton = all(
        eng.embeds(val, ONE_T).is_yes for val in g.values()
    )
    if s.kind == "eta-shuffle":
        if singleton:
            # all summands are 0 or 1: the sum is a dense suborder of
            # the rationals, equimorphic to omega copies shuffled in
            cand = normalize(Prod(OMEGA_T, ETA))
            return _accept(eng, r, cand, catalogued=True)
        vals = [v for v in _dedupe(g.values()) if total_count(v) != 0]
        padded = _pad_term(vals[0]) if len(vals) == 1 else None
        if padded is None:
            log.warning("witness refused: no padding for shuffle summand")
            return None
        cand = normalize(Prod(padded, ETA))
        return _accept(eng, r, cand, catalogued=False)

    marker = OMEGA_STAR if s.kind == "omega-star-sum" else OMEGA_T
    if singleton:
        # the sum collapses to its index
        return _accept(eng, r, marker, catalogued=True)

    # drop summands that embed in 1, pad the rest
    kept = []
    for val in _dedupe(g.values()):
        one = eng.embeds(val, ONE_T)
        if one.is_yes:
            continue
        if not one.decided:
            log.warning("witness refused: cannot decide summand size")
            return None
        padded = _pad_term(val)
        if padded is None:
            log.warning("witness refused: no padding for %s",
                        print_term(val))
            return None
        kept.append(padded)
    if len(kept) != 1:
        log.warning("witness refused: mixed infinite summands")
        return None
    cand = normalize(Prod(kept[0], marker))
    return _accept(eng, r, cand, catalogued=False)


def _accept(eng: Engine, realized: Term, cand: Term,
            catalogued: bool) -> Optional[Term]:
    if f_class_profile(cand).status != "all-infinite":
        log.warning("witness refused: %s still has finite classes",
                    print_term(cand))
        return None
    v = eng.equimorphic(realized, cand)
    if v.is_yes:
        return cand
    if v.is_no:
        log.warning("witness refused: engine refutes the equimorphism "
                    "between %s and %s", print_term(realized),
                    print_term(cand))
        return None
    if catalogued:
        return cand
    log.warning("witness refused: equimorphism between %s and %s "
                "undecided and no catalogued step applies",
                print_term(realized), print_term(cand))
    return None

"""Interned terms: one node per term, its hash and derived data on it."""

import ast
import gc
import json
import os
import pickle
import random
import signal
import subprocess
import threading
import sys
import time
import weakref
from dataclasses import fields
from math import inf
from pathlib import Path

import pytest

import ordtypes
from ordtypes import analysis, engine, terms
from ordtypes.engine import Engine
from ordtypes.ordinals import OMEGA, CapacityError, Ordinal
from ordtypes.points import power_term
from ordtypes.terms import (
    Eta, GeomOmega, GeomOmegaStar, Lambda, OrdLeaf, Prod, Rev, RevOrd,
    SeqSumRev, SeqSumStar, Sum, Zeta, normalize, parse_normalized, parse_term,
    print_term)

from helpers import REGRESSION_CORPUS, rand_term


def _random_texts(seed, n, depth=2):
    rng = random.Random(seed)
    return [print_term(normalize(rand_term(rng, depth))) for _ in range(n)]


def _subterms(t):
    yield t
    for f in fields(t):
        v = getattr(t, f.name)
        for x in (v if isinstance(v, tuple) else (v,)):
            if isinstance(x, terms.Term):
                yield from _subterms(x)


def _nesting(text):
    depth = deepest = 0
    for c in text:
        depth += (c == "(") - (c == ")")
        deepest = max(deepest, depth)
    return deepest


def _live_nodes():
    gc.collect()  # so that no node is kept only by garbage
    return [n for n in (r() for r in terms._TABLE.values()) if n is not None]


def _unfolded_powers(base, n):
    """normalize(power_term(base, k)) for k < n.  Each chain is built as
    ``power_term`` builds it, ``Prod(chain, base)``, and the chains are
    normalized in ascending k while held, so each is one step on the
    stored normal form of the one before, not a recursion k deep."""
    chains = [power_term(base, k) for k in range(min(n, 2))]
    while len(chains) < n:
        chains.append(terms.Prod(chains[-1], base))
    return tuple(normalize(c) for c in chains)


# Oracles for the data kept on a node, each a recursion over the whole
# subtree that reads nothing stored on the nodes below.


def _render(t, level=0):
    if isinstance(t, OrdLeaf):
        s = str(t.value)
        need = ("+" in s and level >= 1) or ("*" in s and level >= 2)
        return f"({s})" if need else s
    if isinstance(t, RevOrd):
        p = t.power
        return "w~" if p == terms.OMEGA_T.value else f"w^({p.terms[0][0]})~"
    if isinstance(t, (Zeta, Eta, Lambda)):
        return {Zeta: "z", Eta: "q", Lambda: "r"}[type(t)]
    if isinstance(t, Sum):
        s = " + ".join(_render(p, 1) for p in t.parts)
        return f"({s})" if level >= 1 else s
    if isinstance(t, Prod):
        left = _render(t.inner, 1 if isinstance(t.inner, Prod) else 2)
        s = f"{left}*{_render(t.index, 2)}"
        return f"({s})" if level >= 2 else s
    if isinstance(t, Rev):
        return f"{_render(t.arg, 2)}~"
    if isinstance(t, (GeomOmega, GeomOmegaStar)):
        name = "geom" if isinstance(t, GeomOmega) else "geomrev"
        start = f", {t.start}" if t.start else ""
        return f"{name}({_render(t.base)}{start})"
    return f"revsum({t.limit})" + ("~" if isinstance(t, SeqSumRev) else "")


def _count(t):
    if isinstance(t, OrdLeaf):
        return t.value.as_int() if t.value.is_finite() else inf
    if isinstance(t, Sum):
        return sum(_count(p) for p in t.parts)
    if isinstance(t, Prod):
        a, b = _count(t.inner), _count(t.index)
        return 0 if a == 0 or b == 0 else a * b
    return inf


def _wo(t):
    if isinstance(t, OrdLeaf):
        return True
    if isinstance(t, Sum):
        return all(_wo(p) for p in t.parts)
    if isinstance(t, Prod):
        return _wo(t.inner) and _wo(t.index)
    if isinstance(t, GeomOmega):
        return _wo(t.base)
    return False


def _rwo(t):
    if isinstance(t, OrdLeaf):
        return t.value.is_finite()
    if isinstance(t, RevOrd):
        return True
    if isinstance(t, Sum):
        return all(_rwo(p) for p in t.parts)
    if isinstance(t, Prod):
        return _rwo(t.inner) and _rwo(t.index)
    if isinstance(t, GeomOmegaStar):
        return _rwo(t.base)
    return False


def _fsw(t):
    if isinstance(t, (OrdLeaf, Zeta, SeqSumStar)):
        return True
    if isinstance(t, RevOrd):
        return t.power == terms.OMEGA_T.value
    if isinstance(t, Sum):
        return _fsw(t.parts[0]) and all(_wo(p) for p in t.parts[1:])
    if isinstance(t, Prod):
        return _fsw(t.inner) and _wo(t.inner) and _fsw(t.index)
    if isinstance(t, (GeomOmega, GeomOmegaStar)):
        return _wo(t.base) and _fsw(t.base)
    return False


def _isw(t):
    if isinstance(t, OrdLeaf):
        return t.value <= terms.OMEGA_T.value
    if isinstance(t, (RevOrd, Zeta, SeqSumRev)):
        return True
    if isinstance(t, Sum):
        return _isw(t.parts[-1]) and all(_rwo(p) for p in t.parts[:-1])
    if isinstance(t, Prod):
        return _isw(t.inner) and _rwo(t.inner) and _isw(t.index)
    if isinstance(t, (GeomOmega, GeomOmegaStar)):
        return _rwo(t.base) and _isw(t.base)
    return False


def _free_of(t, kinds):
    if isinstance(t, kinds):
        return False
    if isinstance(t, Sum):
        return all(_free_of(p, kinds) for p in t.parts)
    if isinstance(t, Prod):
        return _free_of(t.inner, kinds) and _free_of(t.index, kinds)
    if isinstance(t, (GeomOmega, GeomOmegaStar)):
        return _free_of(t.base, kinds)
    return True


_ONE = Ordinal.from_int(1)


def _ordinal_ranks(a):
    if a.is_zero():
        return a, a, a
    e = a.terms[0][0]
    # below w^e (e >= 1) the ordinals' ranks stay below e, else reach it
    below = e if a.terms == ((e, 1),) and not e.is_zero() else e + _ONE
    return e, e + _ONE, below


def _ranks(t, memo):
    """(rank, final rank, initial rank) of the scattered t, memoized by
    node in ``memo``; a sum's final segment past a point of its i-th
    part is that part's final segment followed by the parts after it."""
    if t in memo:
        return memo[t]
    if isinstance(t, OrdLeaf):
        out = _ordinal_ranks(t.value)
    elif isinstance(t, RevOrd):
        r, f, i = _ordinal_ranks(t.power)
        out = r, i, f
    elif isinstance(t, Zeta):
        out = _ONE, _ONE + _ONE, _ONE + _ONE
    elif isinstance(t, Sum):
        rs = [_ranks(p, memo) for p in t.parts]
        out = (max(r[0] for r in rs), _segment_rank(rs, 1),
               _segment_rank(rs[::-1], 2))
    elif isinstance(t, Prod):
        (a, _, _), (b, bf, bi) = _ranks(t.inner, memo), _ranks(t.index, memo)
        out = a + b, a + bf, a + bi
    elif isinstance(t, (GeomOmega, GeomOmegaStar)):
        r = _ranks(t.base, memo)[0] * terms.OMEGA_T.value
        up = isinstance(t, GeomOmega)
        out = r, r + _ONE if up else r, r if up else r + _ONE
    else:
        a = t.limit
        e = a.terms[0][0]
        r = e if a.terms == ((e, 1),) else e + _ONE
        star = isinstance(t, SeqSumStar)
        out = r, r if star else r + _ONE, r + _ONE if star else r
    memo[t] = out
    return out


def _segment_rank(rs, k):
    """The final (k = 1) or, of the reversed parts, initial (k = 2) rank
    of a sum whose parts have the ranks rs: the max, over each part, of
    its own and of the rank of the parts after it, plus one."""
    out, after = rs[-1][k], rs[-1][0]
    for r in reversed(rs[:-1]):
        out = max(out, r[k], after + _ONE)
        after = max(after, r[0])
    return out


_W = terms.OMEGA_T.value


def _power(e):
    return Ordinal(((e, 1),))


def _after(x, c):
    """The least ordinal that is no beta + gamma with beta < x and gamma
    < c: the sup of beta + c over beta < x."""
    if x.is_successor():
        return x.pred() + c
    *head, (e, k) = x.terms
    if c < _power(e):
        return x
    return Ordinal(tuple(head) + (((e, k - 1),) if k > 1 else ())) + c


def _sums_below(x, c):
    """The least ordinal that is no sum over delta < c of nonzero
    ordinals below x."""
    if x.is_successor():
        # each summand is at most x - 1, and x - 1 in each reaches it
        top = x.pred()
        return top * c.pred() + _ONE if c.is_successor() else top * c
    # a sum over w of ordinals below the limit x reaches at most g
    lead = x.terms[0][0]
    g = x if x.terms == ((lead, 1),) else _power(lead + _ONE)
    blocks = Ordinal(tuple((e - _ONE, k) for e, k in c.limit_part.terms))
    m = c.finite_part
    if m <= 1:
        return g * blocks + Ordinal.from_int(m)
    rest = x  # sums of m - 1 ordinals below x
    for _ in range(m - 2):
        rest = _after(rest, x)
    return g * blocks + rest


def _bound(t, rev, memo):
    """The least ordinal that does not embed in the scattered t, or, with
    rev, whose reverse does not: the same for t reversed, by mirroring
    t's structure, memoized by node in ``memo``."""
    key = (t, rev)
    if key in memo:
        return memo[key]
    if isinstance(t, OrdLeaf):
        a = t.value
        out = _W if rev and not a.is_finite() else a + _ONE
    elif isinstance(t, RevOrd):
        out = t.power + _ONE if rev else _W
    elif isinstance(t, Zeta):
        out = _W + _ONE
    elif isinstance(t, Sum):
        bs = [_bound(p, rev, memo) for p in t.parts]
        out = bs[-1] if rev else bs[0]
        for b in (bs[-2::-1] if rev else bs[1:]):
            out = _after(out, b)
    elif isinstance(t, Prod):
        out = _sums_below(_bound(t.inner, rev, memo),
                          _bound(t.index, rev, memo))
    elif isinstance(t, (GeomOmega, GeomOmegaStar)):
        x = _bound(t.base, rev, memo)
        sup = _W if x <= _W else _power(x.terms[0][0] * _W)
        # an w-sum of blocks holds sup; blocks along w* hold finitely many
        out = sup + _ONE if isinstance(t, GeomOmega) != rev else sup
    else:
        a = t.limit
        lead = a.terms[0][0]
        if isinstance(t, SeqSumStar) != rev:
            out = a if a.terms == ((lead, 1),) else _power(lead + _ONE)
        else:
            out = _W + _ONE
    memo[key] = out
    return out


def _co_ordinal(t):
    """The ordinal whose reverse t is, or None."""
    if isinstance(t, OrdLeaf):
        return t.value if t.value.is_finite() else None
    if isinstance(t, RevOrd):
        return t.power
    if isinstance(t, Sum):
        out = Ordinal()
        for p in reversed(t.parts):
            v = _co_ordinal(p)
            if v is None:
                return None
            out = out + v
        return out
    if isinstance(t, Prod):
        b = _co_ordinal(t.index)
        a = None if b is None else _co_ordinal(t.inner)
        return None if a is None else a * b
    return None


def _facts(t, ranks, bounds):
    """The facts of t; ``ranks`` and ``bounds`` memoize the ranks and
    the bounds by node."""
    n = _count(t)
    scattered = _free_of(t, (Eta, Lambda))
    return analysis.Facts(
        size=None if n == inf else n,
        countable=_free_of(t, Lambda),
        scattered=_free_of(t, (Eta, Lambda)),
        well_ordered=_wo(t),
        rev_well_ordered=_rwo(t),
        final_segments_wo=_fsw(t),
        initial_segments_rwo=_isw(t),
        **dict(zip(("rank", "final_rank", "initial_rank"),
                   _ranks(t, ranks) if scattered else (None,) * 3)),
        ordinal_bound=_bound(t, False, bounds) if scattered else None,
        rev_ordinal_bound=_bound(t, True, bounds) if scattered else None,
    )


def test_equal_terms_are_one_node():
    for text in REGRESSION_CORPUS + tuple(_random_texts(5, 200)):
        assert parse_normalized(text) is parse_normalized(text), text
        assert parse_term(text) is parse_term(text), text
    assert terms.GeomOmega(terms.OMEGA_T) is terms.GeomOmega(terms.OMEGA_T, 0)


def test_terms_and_ordinals_survive_pickling():
    # an ordinal is rebuilt by its constructor, and a term by its
    # fields, so unpickling gives back the one interned node
    assert pickle.loads(pickle.dumps(OMEGA)) == OMEGA
    for text in REGRESSION_CORPUS:
        for t in (parse_term(text), parse_normalized(text)):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(t, protocol)) is t, text


def test_hash_is_the_hash_of_the_fields():
    for text in REGRESSION_CORPUS + tuple(_random_texts(6, 200)):
        for t in _subterms(parse_term(text)):
            assert hash(t) == hash(tuple(getattr(t, f.name) for f in fields(t)))
            for f in fields(t):
                v = getattr(t, f.name)
                if isinstance(v, Ordinal):
                    assert hash(v) == hash(v.terms)


def test_stored_data_is_what_a_fresh_computation_gives():
    # search corpus and random terms, then recompute one step of every
    # node's stored data from its children's: a normal form is a fixed
    # point of the normalizer and parses back from its printed form,
    # reversal links both ways, the stored count, pieces and cuts are the
    # computed ones, the stored text, reversed-ordinal value and facts are
    # those of a recursion over the whole subtree, and each stored power
    # is the normal form of the unfolded product
    texts = list(REGRESSION_CORPUS) + _random_texts(8, 40)
    keep = [parse_normalized(x) for x in texts]
    for k in range(0, len(keep), 4):
        eng = Engine(depth=3)
        for s in keep[k:k + 4]:
            eng.classify_type(s)
            for t in keep[k:k + 4]:
                eng.embeds(s, t)
    seen = dict.fromkeys(
        ("nf", "rev", "count", "co_ordinal", "text", "facts", "pieces",
         "cuts", "powers"), 0)
    ranks, bounds = {}, {}
    for n in _live_nodes():
        if n._text is not None:
            seen["text"] += 1
            for level in (0, 1, 2):
                assert print_term(n, level) == _render(n, level), n
        if n._nf is True:
            seen["nf"] += 1
            assert terms._normalize(n) is n, print_term(n)
            text = print_term(n)
            if _nesting(text) <= terms.MAX_NESTING:
                assert parse_normalized(text) is n, text
            else:
                # a text nested past the parser's bound is refused
                with pytest.raises(terms.ParseError, match="nested deeper"):
                    parse_normalized(text)
        rev = n._rev() if isinstance(n._rev, weakref.ref) else n._rev
        if rev is not None:
            seen["rev"] += 1
            assert terms._reverse_normal(n) is rev, print_term(n)
            assert terms._reverse_normal(rev) is n, print_term(n)
        if n._count is not None:
            seen["count"] += 1
            assert terms._point_count(n) == n._count, print_term(n)
        if n._co is not None:
            seen["co_ordinal"] += 1
            assert (n._co or None) == _co_ordinal(n), print_term(n)
        if n._facts is not None:
            seen["facts"] += 1
            assert n._facts == _facts(n, ranks, bounds), print_term(n)
        if n._pieces is not None:
            seen["pieces"] += 1
            assert engine._pieces(n) == n._pieces
        for deep, cuts in ((True, n._cuts), (False, n._shallow_cuts)):
            if cuts is not None:
                seen["cuts"] += 1
                assert tuple(engine._cuts(n, deep)) == cuts
        if n._powers is not None:
            seen["powers"] += 1
            assert n._powers == _unfolded_powers(n, len(n._powers))
    assert all(seen.values()), seen


def test_unreferenced_term_is_freed():
    t = parse_normalized("w^(4321)*q + z + geomrev(w^(55)~)")
    ref = weakref.ref(t)
    assert Engine().embeds(t, parse_normalized("q")).decided
    assert analysis.facts(t).countable
    del t
    gc.collect()
    assert ref() is None


def test_an_engine_is_freed_without_the_cycle_collector():
    # an engine that nothing refers to is freed at once, with its memo
    # and the terms it holds, not at some later full collection
    s, t = parse_normalized("w + z + 1"), parse_normalized("w + 1 + z + q")
    enabled = gc.isenabled()
    gc.disable()
    try:
        eng = Engine()
        eng._rule_r_sum_dp(s, t, 3)
        ref = weakref.ref(eng)
        del eng
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_parse_builds_powers_of_omega_directly():
    start = time.perf_counter()
    t = parse_normalized("w^(99999999999999999999)")
    assert time.perf_counter() - start < 1.0
    assert t.value == Ordinal(((Ordinal.from_int(99999999999999999999), 1),))
    assert parse_normalized("w^(0)") == terms.ONE_T
    assert parse_normalized("w^(w + 2)").value == terms.OMEGA_T.value ** Ordinal(
        ((Ordinal.from_int(1), 1), (Ordinal(), 2)))


class _Cap(BaseException):
    pass


def test_a_timer_exception_always_comes_out_of_the_call():
    # a signal handler's exception raised inside a constructor, a sweep
    # of the intern table or a derived-data computation must reach the
    # caller, not be swallowed as an unraisable exception
    unraisable, state = [], {"armed": False, "fired": 0}

    def fire(signum, frame):
        if state["armed"]:
            state["armed"] = False
            state["fired"] += 1
            raise _Cap()

    texts = _random_texts(7, 24)
    # the garbage collector's callbacks run Python code too, and a test
    # library may have installed one: set them aside, as the program
    # installs none
    callbacks, gc.callbacks[:] = gc.callbacks[:], []
    old_handler = signal.signal(signal.SIGALRM, fire)
    old_hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
    caught = 0
    try:
        for k in range(0, len(texts), 4):
            group = [parse_normalized(x) for x in texts[k:k + 4]]
            for s in group:
                for t in group:
                    try:
                        try:
                            state["armed"] = True
                            signal.setitimer(signal.ITIMER_REAL, 0.001)
                            Engine().embeds(s, t)
                        finally:
                            state["armed"] = False
                            signal.setitimer(signal.ITIMER_REAL, 0)
                    except _Cap:
                        caught += 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)
        sys.unraisablehook = old_hook
        gc.callbacks[:] = callbacks
    assert state["fired"] > 0
    assert caught == state["fired"], unraisable
    assert unraisable == []
    for text in texts:
        assert parse_normalized(text) is parse_normalized(text)


_CORPUS_RUN = """
import json, sys
from ordtypes.engine import Engine, PROFILE_FIELDS
from ordtypes.terms import parse_normalized
texts = json.loads(sys.argv[1])
eng = Engine()
ts = [parse_normalized(x) for x in texts]
out = {"hashes": [hash(t) for t in ts], "embeds": [], "profiles": []}
for s in ts:
    for t in ts:
        v = eng.embeds(s, t)
        out["embeds"].append([v.answer, v.certificate])
for t in ts:
    p = eng.classify_type(t)
    out["profiles"].append([[getattr(p, f).answer, getattr(p, f).certificate]
                            for f in PROFILE_FIELDS])
out["stats"] = eng.search_stats()
print(json.dumps(out, sort_keys=True))
"""


def test_answers_do_not_depend_on_the_hash_seed():
    src = str(Path(ordtypes.__file__).resolve().parent.parent)
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _CORPUS_RUN, json.dumps(REGRESSION_CORPUS)],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["hashes"] == [
        hash(parse_normalized(x)) for x in REGRESSION_CORPUS]


def test_threads_making_the_same_terms_get_one_node():
    texts = [f"w^({k + 1000})*{k + 2} + z + geom(w^({k + 1}))" for k in range(300)]
    geometric = ["geomrev(w)", "geom(w~)"] + [
        f"geomrev(w^({k + 2000}), {k % 5})" for k in range(40)]
    results, pieces = [], []

    def work():
        results.append([parse_normalized(x) for x in texts])
        pieces.append([engine.term_pieces(parse_normalized(x)) for x in geometric])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(results) == len(workers)
    for nodes in results[1:]:
        assert all(a is b for a, b in zip(results[0], nodes))
    assert len(pieces) == len(workers)
    for got in pieces[1:]:
        assert all(a is b for ps, qs in zip(pieces[0], got) for a, b in zip(ps, qs))
    for text, ps in zip(geometric, pieces[0]):
        t = parse_normalized(text)
        assert ps == engine._pieces(t), text
        base = t.base
        assert base._powers == _unfolded_powers(base, len(base._powers))


def test_a_power_above_the_cap_raises_before_anything_is_built():
    base = parse_normalized("w^(4321) + z")
    with pytest.raises(CapacityError):
        engine._npow(base, engine.MAX_POWER + 1)
    assert base._powers is None
    base = parse_normalized("w^(7)")
    top = engine._npow(base, engine.MAX_POWER)
    assert top.value == Ordinal(((Ordinal.from_int(7 * engine.MAX_POWER), 1),))


def _imported(module):
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    return imported


def test_the_engine_does_not_import_the_point_layer():
    imported = _imported(engine)
    assert not imported & {"points", "ordtypes.points"}, imported


def test_the_facts_do_not_import_the_point_layer():
    # every fact is one step from the facts of the children, with no
    # point of the term built
    imported = _imported(analysis)
    assert not imported & {"points", "ordtypes.points"}, imported

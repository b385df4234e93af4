#!/usr/bin/env python3
"""Seeded benchmark of the ordtypes answer engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

The program is imported from ``src/`` of the checkout; nothing is
installed.  One process runs one workload as a single closed-loop
client on one thread.  It measures set-up in fresh interpreters, then
runs whole cycles of the workload's passes (see ``workloads.py``), at
least the fixed epoch, ending on the cycle boundary nearest to
``--seconds``; it checks every answer and prints each metric by name
with its unit and sample count.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` records
spans around the benchmark's own calls into ``terms``, ``ordinals``,
``analysis``, ``points``, ``engine`` and ``cli``, writes them to
``.bench_out/``, and reports the per-layer metrics with the tracing
overhead.

Every decided answer is replayed through ``replay_certificate`` and
compared with the committed reference answers in ``reference/``.  A
call that runs past its workload's cap is stopped by a wall-clock
interval timer, enters the latency statistics at the processor time it
took until it stopped, and counts as capped; its engine is discarded.
A call that raises counts as failed.

On a shared virtual machine the host's speed can swing by a factor of
two from one tenth of a second to the next, and every timing swings
with it.  So in untraced runs a
fixed pure-Python calibration job runs in short chunks between the
timed calls, for about a tenth of their time, and each call's time is
scaled by ``CALIBRATION_REF_S`` over the mean time of the chunks just
before and just after it: it reads as on a host that runs a chunk in
``CALIBRATION_REF_S``.  The unscaled timings are printed in the
diagnostics line.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time
from typing import List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 15
IMPORT_SAMPLES = 5
REPLAY_CAP = 2.0
TAIL_BEYOND = 10
PROBE_TERMS = 64
PROBE_SAMPLES = 5000
PROBE_ROUNDS = 20
CLI_QUERY = ("type", "embeds", "w*q", "q")
# share of a traced run spent on workload passes; the rest probes layers
TRACED_PASS_SHARE = 0.9
# calibration time run between timed calls, as a share of their time
CALIBRATION_SHARE = 0.1
# a calibration chunk's typical time on the reference host, a shared
# 2-core x86-64 virtual machine under Python 3.11.7
CALIBRATION_REF_S = 0.0025

# A fresh interpreter: import the CLI, then build the workload's first
# engine from its first pass's parsed inputs.
SETUP_CHILD = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import ordtypes.cli
from ordtypes.engine import DEFAULT_RULE_ORDER
import workloads
p = next(workloads.passes(sys.argv[3], int(sys.argv[4]), DEFAULT_RULE_ORDER))
workloads.parse_all(p.texts)
workloads.new_engine(p.rule_order)
print("ready", flush=True)
"""

IMPORT_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import ordtypes.cli
print(time.perf_counter() - t, flush=True)
"""


def _load_program():
    """Import the program from the checkout's sources, or exit."""
    if not (SRC / "ordtypes" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import ordtypes

    if Path(ordtypes.__file__).resolve().parent != SRC / "ordtypes":
        sys.exit(f"error: imported ordtypes from {ordtypes.__file__}")


# ---------------------------------------------------------------------------
# per-call cap


class Capped(BaseException):
    """Raised inside a call that ran past its cap.  A BaseException, so
    no handler in the program can swallow it."""


CAPPED = object()


class CallCap:
    """Runs calls under a wall-clock cap, set by an in-process interval
    timer (``ITIMER_REAL``) whose signal raises ``Capped`` in the call."""

    def __init__(self):
        self._armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self._armed:
            self._armed = False
            raise Capped()

    def run(self, seconds, fn, *args):
        """(result, start, end); result is CAPPED if the cap fired."""
        start = perf_counter()
        try:
            try:
                self._armed = True
                signal.setitimer(signal.ITIMER_REAL, seconds)
                result = fn(*args)
            finally:
                self._armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Capped:
            result = CAPPED
        return result, start, perf_counter()


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans kept in memory as [id, parent, call, name, start, end].
    ``call`` is the id of the root span a span descends from."""

    def __init__(self):
        self.on = False
        self.spans: List[list] = []
        self._stack: List[int] = []

    def _link(self):
        if not self._stack:
            return None, len(self.spans)
        parent = self._stack[-1]
        return parent, self.spans[parent][2]

    def open(self, name):
        if self.on:
            parent, call = self._link()
            self._stack.append(len(self.spans))
            self.spans.append([len(self.spans), parent, call, name, perf_counter(), None])

    def close(self):
        if self.on:
            self.spans[self._stack.pop()][5] = perf_counter()

    def leaf(self, name, start, end):
        if self.on:
            parent, call = self._link()
            self.spans.append([len(self.spans), parent, call, name, start, end])

    def self_times(self):
        """{name: [self seconds of each span]}; a span's self time is its
        duration minus its children's."""
        child = Counter()
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, _, _, name, start, end in self.spans:
            out.setdefault(name, []).append(end - start - child[sid])
        return out


# ---------------------------------------------------------------------------
# one pass


class Samples:
    """Latencies of one kind of call.  A call that finished is kept with
    the calibration segment it ran in; a call stopped by the cap is kept
    apart, by the processor time it took."""

    def __init__(self):
        self.lat, self.seg, self.capped = array("d"), array("l"), array("d")

    def add(self, seconds, seg, capped):
        if capped:
            self.capped.append(seconds)
        else:
            self.lat.append(seconds)
            self.seg.append(seg)


@dataclass
class PassResult:
    seconds: float = 0.0
    embeds: Samples = field(default_factory=Samples)
    classify: Samples = field(default_factory=Samples)
    replay: Samples = field(default_factory=Samples)
    counts: Counter = field(default_factory=Counter)
    errors: List[str] = field(default_factory=list)
    answers: dict = field(default_factory=dict)


class Checker:
    """Decided answers against the committed reference answers.  Any
    decided answer for the same question must agree; an UNKNOWN on
    either side is not a disagreement."""

    def __init__(self):
        self.embeds, self.profiles = {}, {}
        for path in sorted((BENCH / "reference").glob("*.json")):
            for p in json.loads(path.read_text())["passes"]:
                for key, ans in p["embeds"].items():
                    self._add(self.embeds, key, ans)
                for text, prof in p["profiles"].items():
                    for f, ans in prof.items():
                        self._add(self.profiles, (text, f), ans)

    @staticmethod
    def _add(table, key, ans):
        if ans in ("YES", "NO"):
            if table.setdefault(key, ans) != ans:
                raise ValueError(f"reference answers disagree on {key}")

    def flips_embeds(self, s, t, ans):
        ref = self.embeds.get(f"{s}\t{t}")
        return int(ans in ("YES", "NO") and ref is not None and ref != ans)

    def flips_profile(self, text, answers):
        return sum(
            ans in ("YES", "NO")
            and self.profiles.get((text, f), ans) != ans
            for f, ans in answers.items()
        )


def _cert_size(node):
    """Nodes in a certificate tree, as replay walks it."""
    return 1 + sum(_cert_size(q) for q in node["premises"])


def run_pass(p, cap_s, cap, checker, tracer, calib, keep_answers=False,
             measure_certs=False):
    from ordtypes.engine import replay_certificate
    from workloads import new_engine, parse_all

    r = PassResult()
    c = r.counts
    t_pass = perf_counter()
    tracer.open("pass")

    tracer.open("prepare")
    terms = parse_all(p.texts)
    engine = None if p.engine_per_call else new_engine(p.rule_order)
    tracer.close()

    def call(name, seconds, fn, *args):
        nonlocal engine
        cpu = thread_time()
        try:
            res, start, end = cap.run(seconds, fn, *args)
        except Exception as exc:  # a program error: count it, keep going
            res, start, end = exc, perf_counter(), perf_counter()
            c["failed"] += 1
            r.errors.append(f"{name}: {type(exc).__name__}: {exc}")
        cpu = thread_time() - cpu
        tracer.leaf(name, start, end)
        seg = calib.after(end - start)
        if (res is CAPPED or isinstance(res, Exception)) and not p.engine_per_call:
            engine = new_engine(p.rule_order)
        # a capped call's wall time adds to the cap any spell in which the
        # host did not run the process; its processor time does not
        return res, cpu if res is CAPPED else end - start, seg

    def engine_for_call():
        return new_engine(p.rule_order) if p.engine_per_call else engine

    certs = []
    for i, j in p.pairs:
        v, *t = call("engine.embeds", cap_s, engine_for_call().embeds,
                     terms[i], terms[j])
        r.embeds.add(*t, v is CAPPED)
        c["embeds.calls"] += 1
        c["verdicts"] += 1
        if isinstance(v, Exception):
            continue
        ans = "UNKNOWN" if v is CAPPED else v.answer
        c["embeds.capped" if v is CAPPED else "embeds." + ans] += 1
        if ans != "UNKNOWN":
            c["decided"] += 1
            certs.append(v.certificate)
            c["wrong"] += checker.flips_embeds(p.texts[i], p.texts[j], ans)
        if keep_answers:
            r.answers.setdefault("embeds", {})[f"{p.texts[i]}\t{p.texts[j]}"] = ans

    for i, t in enumerate(terms):
        prof, *t = call("engine.classify_type", cap_s,
                        engine_for_call().classify_type, t)
        r.classify.add(*t, prof is CAPPED)
        c["classify.calls"] += 1
        c["verdicts"] += 9
        if isinstance(prof, Exception):
            continue
        if prof is CAPPED:
            c["classify.capped"] += 1
            answers = {}
        else:
            answers = prof.answers()
        c["wrong"] += checker.flips_profile(p.texts[i], answers)
        for f, ans in answers.items():
            if ans != "UNKNOWN":
                c["decided"] += 1
                certs.append(getattr(prof, f).certificate)
        if keep_answers:
            r.answers.setdefault("profiles", {})[p.texts[i]] = answers

    for cert in certs:
        ok, *t = call("engine.replay_certificate", REPLAY_CAP,
                      replay_certificate, cert)
        r.replay.add(*t, ok is CAPPED)
        c["replay.calls"] += 1
        if ok is CAPPED:
            c["failed"] += 1
            r.errors.append("replay_certificate: ran past its cap")
        elif ok is False:
            c["replay.rejected"] += 1
            c["wrong"] += 1
        if measure_certs:
            c["cert.nodes"] += _cert_size(cert)
            c["cert.bytes"] += len(json.dumps(cert))

    tracer.close()
    r.seconds = perf_counter() - t_pass
    return r


# ---------------------------------------------------------------------------
# fresh interpreters


def _child_lines(code, args, n, calib):
    """(wall seconds from spawning a fresh interpreter running ``code``
    to its first output line, that line, scale) for n children in turn.
    A calibration chunk runs just before and just after each child; the
    scale is ``CALIBRATION_REF_S`` over their mean, or 1 without
    calibration."""
    out = []
    for _ in range(n):
        before = calib.chunk()
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code, *args],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            elapsed = perf_counter() - start
            proc.stdout.read()
            status = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if status != 0 or not line:
            sys.exit(f"error: child interpreter failed with exit code {status}")
        after = calib.chunk()
        scale = 2 * CALIBRATION_REF_S / (before + after) if calib.on else 1.0
        out.append((elapsed, line, scale))
    return out


# ---------------------------------------------------------------------------
# the run


@dataclass(frozen=True)
class _Node:
    op: str
    kids: tuple


def _build(depth, k):
    if depth == 0:
        return _Node("leaf", (k % 5,))
    return _Node("sum" if k % 2 else "prod",
                 (_build(depth - 1, 3 * k + 1), _build(depth - 1, 7 * k + 2)))


def _size(t, memo):
    n = memo.get(t)
    if n is None:
        n = 1 if t.op == "leaf" else 1 + sum(_size(c, memo) for c in t.kids)
        memo[t] = n
    return n


# equal trees built twice, so that comparing them walks them
_TREES = [(_build(6, k), _build(6, k)) for k in range(6)]


def calibration_seconds():
    """Time of one chunk of a fixed pure-Python job shaped like the
    engine's work: hash, memoise, walk and compare frozen dataclass
    trees.  The collector is off, so the program's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for a, b in _TREES:
            _size(a, {})
            if a != b or not isinstance(b, _Node):
                raise AssertionError("calibration trees differ")
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Calibration chunks run between timed calls, for
    ``CALIBRATION_SHARE`` of the calls' time.  The calls between two
    chunks form a segment; segment s runs after chunk s - 1 and before
    chunk s.  Off, it runs no chunk and scales nothing."""

    def __init__(self, on=True):
        self.on = on
        self.chunks = [calibration_seconds() for _ in range(3)] if on else []
        self._debt = 0.0

    def after(self, seconds):
        """Account a timed call of ``seconds``; return its segment."""
        seg = len(self.chunks)
        if self.on:
            self._debt += CALIBRATION_SHARE * seconds
            while self._debt > 0:
                self._debt -= self.chunk()
        return seg

    def chunk(self):
        if self.on:
            self.chunks.append(calibration_seconds())
            return self.chunks[-1]
        return 0.0

    def scales(self):
        """The scale of each segment: ``CALIBRATION_REF_S`` over the mean
        of the chunks on either side of it."""
        c = self.chunks
        if not self.on:
            return None
        return [CALIBRATION_REF_S * len(w) / sum(w)
                for w in (c[max(s - 1, 0):s + 1] for s in range(len(c) + 1))]


def tail(samples):
    """(value, percentile): the highest percentile with TAIL_BEYOND
    samples above it."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - 1 - TAIL_BEYOND) / (n - 1)


@dataclass
class Run:
    results: List[PassResult] = field(default_factory=list)
    prefix: Counter = field(default_factory=Counter)
    total: Counter = field(default_factory=Counter)
    texts: set = field(default_factory=set)
    # (seconds, line, scale) of each fresh interpreter
    children: list = field(default_factory=list)
    seconds: dict = field(default_factory=lambda: {True: [], False: []})
    calib: Calibration = None
    epoch_rss_mb: float = 0.0


def run_workload(args, cap, checker, seconds, tracer=None, keep_answers=False,
                 child=None):
    """Passes until the fixed epoch is done, in whole cycles, ending on
    the cycle boundary nearest to ``seconds``.  Untraced, calibration
    chunks run between the calls.  With a tracer, each pass runs twice
    on the same inputs, traced and untraced in alternating order, for
    the tracing overhead, and nothing is calibrated.  ``child`` is
    (code, argv, n): n fresh interpreters are timed at even spacing over
    the run, so that they meet the host's fast and slow spells in the
    same proportion as the passes do."""
    import workloads
    from ordtypes.engine import DEFAULT_RULE_ORDER

    cap_s = workloads.CAPS[args.workload]
    prefix_n = workloads.PREFIX[args.workload]
    cycle = workloads.CYCLE[args.workload]
    stream = workloads.passes(args.workload, args.seed, DEFAULT_RULE_ORDER)
    run = Run(calib=Calibration(on=tracer is None and seconds > 0))
    start = perf_counter()
    code, argv, n_child = child or (None, None, 0)
    due = [start + i * seconds / n_child for i in range(n_child)]
    k = 0
    while True:
        if k >= prefix_n and k % cycle == 0:
            elapsed = perf_counter() - start
            if elapsed + 0.5 * elapsed / (k // cycle) >= seconds:
                break
        while due and perf_counter() >= due[0]:
            due.pop(0)
            run.children += _child_lines(code, argv, 1, run.calib)
        p = next(stream)
        run.texts.update(p.texts)
        modes = [False] if tracer is None else [k % 2 == 0, k % 2 != 0]
        for n, traced in enumerate(modes):
            if tracer is not None:
                tracer.on = traced
            first = n == 0
            r = run_pass(p, cap_s, cap, checker, tracer or Tracer(), run.calib,
                         keep_answers=keep_answers and first,
                         measure_certs=k < prefix_n and first)
            run.seconds[traced].append(r.seconds)
            run.total.update(r.counts)
            if first:
                if k < prefix_n:
                    run.prefix.update(r.counts)
                    r.answers["rule_order"] = list(p.rule_order or []) or None
                if k == prefix_n - 1:
                    run.epoch_rss_mb = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024
                run.results.append(r)
            for e in r.errors[:3]:
                print(f"failure: {e}", file=sys.stderr)
        k += 1
    if tracer is not None:
        tracer.on = False
    run.children += _child_lines(code, argv, len(due), run.calib)
    return run


def _timings(run, cap_s, scaled):
    """Timing metrics.  When ``scaled``, a finished call's time is
    scaled by its segment's scale and taken at most at the cap.  A call
    stopped by the cap enters at the processor time it took, unscaled:
    the cap is wall-clock time, and the delay in stopping does not
    follow the host's speed."""
    scales = run.calib.scales() if scaled else None

    def samples(kind, cap_at):
        out = []
        for r in run.results:
            smp = getattr(r, kind)
            if scales is None:
                out += smp.lat
            else:
                out += [min(x * scales[s], cap_at) for x, s in zip(smp.lat, smp.seg)]
            out += smp.capped
        return out

    lat = samples("embeds", cap_s)
    cls = samples("classify", cap_s)
    rep = samples("replay", REPLAY_CAP)
    tail_s, tail_pct = tail(lat)
    setup = [t * (scale if scaled else 1.0) for t, _, scale in run.children]
    return [
        # name, value, unit, samples, note
        ("setup_s", statistics.median(setup), "s", len(setup),
         "median over fresh interpreters"),
        ("embeds_per_s", len(lat) / sum(lat), "1/s", len(lat), ""),
        ("embeds_p50_ms", 1e3 * statistics.median(lat), "ms", len(lat), ""),
        ("embeds_tail_ms", 1e3 * tail_s, "ms", len(lat),
         f"p{tail_pct:.3f}, {TAIL_BEYOND} samples beyond"),
        ("classify_per_s", len(cls) / sum(cls), "1/s", len(cls), ""),
        ("replay_per_s", len(rep) / sum(rep), "1/s", len(rep), ""),
    ]


def end_to_end(args, cap, checker):
    import workloads

    run = run_workload(args, cap, checker, args.seconds, child=(
        SETUP_CHILD, [str(SRC), str(BENCH), args.workload, str(args.seed)],
        SETUP_SAMPLES))
    cap_s = workloads.CAPS[args.workload]
    pc = run.prefix
    calls = pc["embeds.calls"] + pc["classify.calls"]
    capped = pc["embeds.capped"] + pc["classify.capped"]
    rows = _timings(run, cap_s, scaled=True) + [
        ("decided_share", pc["decided"] / pc["verdicts"], "share",
         pc["verdicts"], "verdicts in the fixed epoch"),
        ("uncapped_share", 1 - capped / calls, "share", calls,
         "calls in the fixed epoch"),
        ("peak_rss_mb", run.epoch_rss_mb, "MB", 1,
         "when the fixed epoch is done"),
    ]
    info = {
        "passes": len(run.results),
        "calibration_chunk_s": statistics.median(run.calib.chunks),
        "calibration_chunks": len(run.calib.chunks),
        "raw": {name: value for name, value, *_ in _timings(run, cap_s, scaled=False)},
        "capped_share": capped / calls,
        "wrong_answers": run.total["wrong"],
        "epoch_embeds": {a: pc["embeds." + a] for a in ("YES", "NO", "UNKNOWN", "capped")},
        "epoch_classify_capped": pc["classify.capped"],
        "epoch_certificate_nodes": pc["cert.nodes"],
    }
    return rows, info, run


def per_layer(args, cap, checker):
    from ordtypes import analysis, cli, points, terms
    from workloads import new_engine

    tracer = Tracer()
    start = perf_counter()
    run = run_workload(args, cap, checker, TRACED_PASS_SHARE * args.seconds,
                       tracer, child=(IMPORT_CHILD, [str(SRC)], IMPORT_SAMPLES))
    imports = run.children

    # layer probes on the workload's own terms
    texts = _spaced(sorted(run.texts), PROBE_TERMS)
    nodes = [terms.normalize(terms.parse_term(t)) for t in texts]
    ords = sorted({o for n in nodes for o in _ordinals_in(n)}, key=str)
    probes = [
        ("terms.parse_term", terms.parse_term, [(t,) for t in texts]),
        ("terms.normalize", terms.normalize,
         [(terms.parse_term(t),) for t in texts]),
        ("terms.print_term", terms.print_term, [(n,) for n in nodes]),
        ("terms.reverse_term", terms.reverse_term, [(n,) for n in nodes]),
        ("ordinals.arith", _arith,
         _spaced([(a, b) for a in ords for b in ords], PROBE_TERMS)),
        ("analysis.facts", analysis.facts, [(n,) for n in nodes]),
        ("points.total_count", points.total_count, [(n,) for n in nodes]),
        ("engine.Engine.init", new_engine, [()]),
        ("cli.run", cli.run, [(CLI_QUERY,)]),
    ]
    tracer.on = True
    end = start + args.seconds
    rounds = 0
    while rounds < PROBE_ROUNDS or (
        perf_counter() < end and rounds * len(texts) < PROBE_SAMPLES
    ):
        rounds += 1
        for name, fn, arg_list in probes:
            tracer.open("probe")
            for a in arg_list:
                t0 = perf_counter()
                fn(*a)
                tracer.leaf(name, t0, perf_counter())
            tracer.close()
    tracer.on = False

    selfs = tracer.self_times()
    pc = run.prefix

    def med(name, scale):
        return scale * statistics.median(selfs[name]), len(selfs[name])

    def mean(name, scale):
        return scale * statistics.fmean(selfs[name]), len(selfs[name])

    traced, untraced = sum(run.seconds[True]), sum(run.seconds[False])
    rows = [
        ("terms.parse_term.us", *med("terms.parse_term", 1e6), "us"),
        ("terms.normalize.us", *med("terms.normalize", 1e6), "us"),
        ("terms.print_term.us", *med("terms.print_term", 1e6), "us"),
        ("terms.reverse_term.us", *med("terms.reverse_term", 1e6), "us"),
        ("ordinals.arith.us", *med("ordinals.arith", 1e6), "us"),
        ("analysis.facts.us", *med("analysis.facts", 1e6), "us"),
        ("points.total_count.us", *med("points.total_count", 1e6), "us"),
        ("engine.embeds.calls", pc["embeds.calls"], 1, "count"),
        ("engine.embeds.self_ms", *mean("engine.embeds", 1e3), "ms"),
        ("engine.embeds.decided", pc["embeds.YES"] + pc["embeds.NO"], 1, "count"),
        ("engine.embeds.unknown", pc["embeds.UNKNOWN"], 1, "count"),
        ("engine.embeds.capped", pc["embeds.capped"], 1, "count"),
        ("engine.classify_type.calls", pc["classify.calls"], 1, "count"),
        ("engine.classify_type.ms", *mean("engine.classify_type", 1e3), "ms"),
        ("engine.classify_type.capped", pc["classify.capped"], 1, "count"),
        ("engine.replay_certificate.calls", pc["replay.calls"], 1, "count"),
        ("engine.replay_certificate.us", *mean("engine.replay_certificate", 1e6), "us"),
        ("engine.replay_certificate.rejected", pc["replay.rejected"], 1, "count"),
        ("engine.certificate.nodes", pc["cert.nodes"], 1, "count"),
        ("engine.certificate.bytes", pc["cert.bytes"], 1, "bytes"),
        ("engine.Engine.init_us", *med("engine.Engine.init", 1e6), "us"),
        ("cli.import_s", statistics.median(float(x) for _, x, _ in imports),
         len(imports), "s"),
        ("cli.run.ms", *med("cli.run", 1e3), "ms"),
        ("bench.trace_overhead_pct", 100 * (traced / untraced - 1),
         len(run.seconds[True]), "%"),
    ]
    rows = [(name, value, unit, n, "") for name, value, n, unit in rows]
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "fields": ["id", "parent", "call", "name", "start", "end"],
        "spans": tracer.spans,
    }))
    info = {
        "passes": len(run.results),
        "spans": len(tracer.spans),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "wrong_answers": run.total["wrong"],
    }
    return rows, info, run


def _spaced(items, n):
    """At most n items, evenly spaced through the list."""
    return items[:: max(1, len(items) // n)][:n]


def _ordinals_in(t):
    from dataclasses import fields, is_dataclass
    from ordtypes.ordinals import Ordinal

    if isinstance(t, Ordinal):
        yield t
    elif isinstance(t, tuple):
        for x in t:
            yield from _ordinals_in(x)
    elif is_dataclass(t):
        for f in fields(t):
            yield from _ordinals_in(getattr(t, f.name))


def _arith(a, b):
    return a + b, a * b, a < b, hash(a)


def write_reference(args, cap, checker):
    import workloads

    run = run_workload(args, cap, checker, 0.0, keep_answers=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "cap_s": workloads.CAPS[args.workload],
        "passes": [
            {"rule_order": r.answers["rule_order"],
             "embeds": r.answers.get("embeds", {}),
             "profiles": r.answers.get("profiles", {})}
            for r in run.results
        ],
    }
    path = BENCH / "reference" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    pc = run.prefix
    print(f"wrote {path.relative_to(ROOT)}: embeds "
          + ", ".join(f"{pc['embeds.' + a]} {a}" for a in ("YES", "NO", "UNKNOWN", "capped"))
          + f"; {pc['classify.calls']} profiles; "
          f"{run.total['wrong']} disagreements with the other references")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record the fixed epoch's answers at the default "
                         "seed in reference/")
    args = ap.parse_args(argv)

    _load_program()
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEEDS[args.workload]
    checker = Checker()
    cap = CallCap()
    if args.write_reference:
        if args.seed != workloads.DEFAULT_SEEDS[args.workload]:
            ap.error("reference answers are recorded at the default seed")
        write_reference(args, cap, checker)
        return 0

    rows, info, run = (per_layer if args.trace else end_to_end)(args, cap, checker)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  passes {info['passes']}")
    for name, value, unit, n, note in rows:
        print(f"  {name:36s} {value:14.6g} {unit:6s} n={n} {note}".rstrip())
    print("diagnostics " + json.dumps(info, sort_keys=True))
    total = run.total
    print(json.dumps({
        "correct": total["wrong"] == 0 and total["failed"] == 0,
        "attempted": total["embeds.calls"] + total["classify.calls"] + total["replay.calls"],
        "failed": total["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _, _ in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

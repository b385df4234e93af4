"""Command-line front end.

Exit codes: 0 success (or --expect matched), 1 usage/parse error,
2 undecided verdict or --expect mismatch, 3 internal consistency
violation.  Machine output goes to stdout, diagnostics to stderr;
--json switches a command's output to a single JSON document.
"""

from __future__ import annotations

import dataclasses
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import Optional, Tuple

import click

from .condense import e_y_condense, finite_condensation
from .engine import Engine, InconsistencyError, PROFILE_FIELDS, Verdict
from .finite import CapacityError, FiniteOrder, finite_profile
from .fprofile import f_class_profile
from .hierarchy import no_finite_F_witness, realize, spec_from_json, validate_sum_spec
from .ordinals import (
    Ordinal,
    classify_ordinal,
    ord_cmp,
    s_untranscendability_witness,
    transcendability_witness,
)
from .points import sample_points
from .game import Strategy, exhaustive_verify, random_strategy, verify_flip_identity
from .terms import ParseError, parse_term, print_term, pure_ordinal


def _echo_json(doc) -> None:
    click.echo(json.dumps(doc, sort_keys=True, default=str))


def _shallow_dict(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _parse_ordinal(text: str) -> Ordinal:
    from .terms import normalize

    t = normalize(parse_term(text))
    a = pure_ordinal(t)
    if a is None:
        raise click.UsageError(f"not an ordinal expression: {text!r}")
    return a


def _verdict_doc(v: Verdict) -> dict:
    return {"answer": v.answer, "certificate": v.certificate}


def _finish_verdict(v: Verdict, expect: Optional[str], as_json: bool) -> int:
    if as_json:
        _echo_json(_verdict_doc(v))
    else:
        click.echo(v.answer)
    if expect is not None:
        return 0 if v.answer == expect.upper() else 2
    return 0 if v.decided else 2


@click.group()
def cli() -> None:
    """Symbolic calculator and decision engine for linear order types."""


# ---------------------------------------------------------------------------
# ord


@cli.group()
def ord() -> None:
    """Ordinal arithmetic and classification."""


@ord.command("cnf")
@click.argument("expr")
def ord_cnf(expr: str) -> int:
    click.echo(str(_parse_ordinal(expr)))
    return 0


@ord.command("cmp")
@click.argument("a")
@click.argument("b")
def ord_cmp_cmd(a: str, b: str) -> int:
    click.echo(ord_cmp(_parse_ordinal(a), _parse_ordinal(b)))
    return 0


@ord.command("classify")
@click.argument("expr")
def ord_classify(expr: str) -> int:
    p = classify_ordinal(_parse_ordinal(expr))
    _echo_json(_shallow_dict(p))
    return 0


@ord.command("witness")
@click.argument("expr")
def ord_witness(expr: str) -> int:
    a = _parse_ordinal(expr)
    doc: dict = {"ordinal": str(a)}
    tw = transcendability_witness(a)
    doc["transcendability"] = (
        None if tw is None else {"psi": str(tw[0]), "tau": str(tw[1])}
    )
    sw = s_untranscendability_witness(a)
    doc["s_untranscendability"] = (
        None
        if sw is None
        else {"rho": print_term(sw[0]), "tau": str(sw[1])}
    )
    _echo_json(doc)
    return 0


# ---------------------------------------------------------------------------
# type


@cli.group("type")
def type_grp() -> None:
    """Order-type embeddability and classification."""


def _engine(depth: Optional[int], no_choice: bool) -> Engine:
    kw = {"use_choice": not no_choice}
    if depth is not None:
        kw["depth"] = depth
    return Engine(**kw)


_common = [
    click.option("--json", "as_json", is_flag=True, help="JSON output"),
    click.option("--depth", type=int, default=None, help="search depth"),
    click.option("--no-choice", is_flag=True, help="forbid choice-tagged rules"),
    click.option("--expect", default=None, help="expected answer; sets exit code"),
]


def _with_common(f):
    for opt in reversed(_common):
        f = opt(f)
    return f


@type_grp.command("embeds")
@click.argument("s")
@click.argument("t")
@_with_common
def type_embeds(s, t, as_json, depth, no_choice, expect) -> int:
    v = _engine(depth, no_choice).embeds(parse_term(s), parse_term(t))
    return _finish_verdict(v, expect, as_json)


@type_grp.command("equi")
@click.argument("s")
@click.argument("t")
@_with_common
def type_equi(s, t, as_json, depth, no_choice, expect) -> int:
    v = _engine(depth, no_choice).equimorphic(parse_term(s), parse_term(t))
    return _finish_verdict(v, expect, as_json)


@type_grp.command("classify")
@click.argument("t")
@_with_common
def type_classify(t, as_json, depth, no_choice, expect) -> int:
    prof = _engine(depth, no_choice).classify_type(parse_term(t))
    doc = {
        name: _verdict_doc(getattr(prof, name)) if as_json
        else getattr(prof, name).answer
        for name in PROFILE_FIELDS
    }
    _echo_json(doc)
    if expect is not None:
        field, _, want = expect.partition("=")
        return 0 if doc.get(field) == want.upper() else 2
    return 0


@type_grp.command("square")
@click.argument("t")
@_with_common
def type_square(t, as_json, depth, no_choice, expect) -> int:
    rep = _engine(depth, no_choice).square_report(parse_term(t))
    doc = {
        "term": rep["term"],
        "verdict": _verdict_doc(rep["verdict"]) if as_json
        else rep["verdict"].answer,
        "hypotheses": {k: v.answer for k, v in rep["hypotheses"].items()},
        "failed": rep["failed"],
        "undecided": rep["undecided"],
    }
    _echo_json(doc)
    v = rep["verdict"]
    if expect is not None:
        return 0 if v.answer == expect.upper() else 2
    return 0 if v.decided else 2


@type_grp.command("fprofile")
@click.argument("t")
def type_fprofile(t) -> int:
    _echo_json(_shallow_dict(f_class_profile(parse_term(t))))
    return 0


# ---------------------------------------------------------------------------
# finite


@cli.group()
def finite() -> None:
    """Brute-force profiles of finite orders."""


@finite.command("profile")
@click.argument("n", type=int)
def finite_profile_cmd(n: int) -> int:
    _echo_json(_shallow_dict(finite_profile(FiniteOrder(n))))
    return 0


# ---------------------------------------------------------------------------
# cond


@cli.group()
def cond() -> None:
    """Condensations."""


@cond.command("ey")
@click.option("--size", type=int, required=True)
@click.option("--subset", required=True, help="comma-separated positions")
def cond_ey(size: int, subset: str) -> int:
    try:
        ys = [int(p) for p in subset.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise click.UsageError(f"bad subset: {exc}")
    r = e_y_condense(FiniteOrder(size), ys)
    _echo_json(
        {
            "classes": [list(c.points) for c in r.classes],
            "quotient_size": r.quotient.size,
            "embedding": {str(k): list(v) for k, v in r.witness_map.items()},
            "dichotomy": r.dichotomy,
        }
    )
    return 0


@cond.command("f")
@click.option("--term", "term_text", required=True)
@click.option("--window", type=int, default=None, help="sample size cap")
def cond_f(term_text: str, window: Optional[int]) -> int:
    from .terms import normalize

    t = normalize(parse_term(term_text))
    pts = sample_points(t)
    if window is not None:
        pts = pts[:window]
    r = finite_condensation(t, window=pts)
    _echo_json(
        {
            "classes": [
                {"size": len(c.points), "tag": list(c.tag)}
                for c in r.classes
            ],
            "sampled": r.sampled,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# hier


def _load_spec(text: str):
    if text.lstrip().startswith("{"):
        return spec_from_json(text)
    with open(text, "r", encoding="utf-8") as fh:
        return spec_from_json(fh.read())


@cli.group()
def hier() -> None:
    """Regular unbounded sums and shuffles."""


@hier.command("validate")
@click.argument("spec")
def hier_validate(spec: str) -> int:
    v = validate_sum_spec(_load_spec(spec))
    _echo_json({
        "answer": v.answer,
        "reason": v.reason,
        "counterexample_index": v.counterexample_index,
        "premises": [p.certificate for p in v.premises],
    })
    return 0 if v.decided else 2


@hier.command("realize")
@click.argument("spec")
def hier_realize(spec: str) -> int:
    click.echo(print_term(realize(_load_spec(spec))))
    return 0


@hier.command("witness")
@click.argument("spec")
def hier_witness(spec: str) -> int:
    w = no_finite_F_witness(_load_spec(spec))
    if w is None:
        click.echo("no witness", err=True)
        return 2
    click.echo(print_term(w))
    return 0


# ---------------------------------------------------------------------------
# game


@cli.group()
def game() -> None:
    """Flip-conjugation checks for the word game."""


@game.command("verify")
@click.option("--rounds", type=int, default=2, show_default=True)
@click.option("--max-move", type=int, default=2, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--exhaustive", is_flag=True)
@click.option("--trials", type=int, default=1000, show_default=True)
def game_verify(rounds, max_move, seed, exhaustive, trials) -> int:
    if exhaustive:
        total, failures = exhaustive_verify(rounds, max_move)
        _echo_json({"mode": "exhaustive", "cases": total,
                    "failures": len(failures)})
        return 0 if not failures else 3
    rng = random.Random(0 if seed is None else seed)
    from .game import _all_words

    words = _all_words(max_move)
    bad = 0
    for _ in range(trials):
        rho = random_strategy(rng, depth=2 * rounds + 1, max_move=max_move)
        adv = [words[rng.randrange(len(words))] for _ in range(rounds)]
        if not verify_flip_identity(rho, adv, rounds):
            bad += 1
    _echo_json({"mode": "seeded", "cases": trials, "failures": bad})
    return 0 if bad == 0 else 3


# ---------------------------------------------------------------------------
# dispatch


def run(argv) -> Tuple[int, str, str]:
    """Programmatic entry point: returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = _dispatch(list(argv))
    return code, out.getvalue(), err.getvalue()


def _dispatch(argv) -> int:
    try:
        rv = cli.main(args=argv, prog_name="ordtypes",
                      standalone_mode=False)
        return int(rv or 0)
    except click.UsageError as exc:
        exc.show(file=sys.stderr)
        return 1
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return 1
    except click.exceptions.Abort:
        return 1
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 3
    except (ParseError, CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

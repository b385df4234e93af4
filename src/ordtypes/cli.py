"""Command-line front end.

Exit codes: 0 success (or --expect matched), 1 usage/parse error,
2 undecided verdict or --expect mismatch, 3 internal consistency
violation.  Machine output goes to stdout, diagnostics to stderr;
--json switches a command's output to a single JSON document.

The module imports only the engine stack at load time; a command that
needs another module (finite orders, condensations, hierarchies,
games, class profiles) imports it when it runs, so a cold call loads
only what it uses.
"""

from __future__ import annotations

import dataclasses
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import Optional, Tuple

from .engine import Engine, InconsistencyError, PROFILE_FIELDS, Verdict
from .ordinals import (
    CapacityError,
    Ordinal,
    classify_ordinal,
    ord_cmp,
    s_untranscendability_witness,
    transcendability_witness,
)
from .terms import ParseError, normalize, parse_term, print_term, pure_ordinal


def _echo_json(doc) -> None:
    import json

    print(json.dumps(doc, sort_keys=True, default=str))


def _shallow_dict(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _parse_ordinal(text: str) -> Ordinal:
    a = pure_ordinal(normalize(parse_term(text)))
    if a is None:
        raise ValueError(f"not an ordinal expression: {text!r}")
    return a


def _verdict_doc(v: Verdict) -> dict:
    return {"answer": v.answer, "certificate": v.certificate}


def _finish_verdict(v: Verdict, expect: Optional[str], as_json: bool) -> int:
    if as_json:
        _echo_json(_verdict_doc(v))
    else:
        print(v.answer)
    if expect is not None:
        return 0 if v.answer == expect.upper() else 2
    return 0 if v.decided else 2


# ---------------------------------------------------------------------------
# the command table

_DOC = "Symbolic calculator and decision engine for linear order types."

_GROUPS = {
    "ord": "Ordinal arithmetic and classification.",
    "type": "Order-type embeddability and classification.",
    "finite": "Brute-force profiles of finite orders.",
    "cond": "Condensations.",
    "hier": "Regular unbounded sums and shuffles.",
    "game": "Flip-conjugation checks for the word game.",
}

# (group, command) -> (function, arguments); each argument is the
# (flags, keywords) of one argparse ``add_argument`` call, and the
# function takes the parsed values by their argparse names
_COMMANDS: dict = {}


def _arg(*flags, **keywords):
    return flags, keywords


def _command(group: str, name: str, *arguments):
    def register(f):
        _COMMANDS[group, name] = (f, arguments)
        return f
    return register


# ---------------------------------------------------------------------------
# ord


@_command("ord", "cnf", _arg("expr"))
def ord_cnf(expr: str) -> int:
    print(_parse_ordinal(expr))
    return 0


@_command("ord", "cmp", _arg("a"), _arg("b"))
def ord_cmp_cmd(a: str, b: str) -> int:
    print(ord_cmp(_parse_ordinal(a), _parse_ordinal(b)))
    return 0


@_command("ord", "classify", _arg("expr"))
def ord_classify(expr: str) -> int:
    p = classify_ordinal(_parse_ordinal(expr))
    _echo_json(_shallow_dict(p))
    return 0


@_command("ord", "witness", _arg("expr"))
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


def _engine(depth: Optional[int], no_choice: bool) -> Engine:
    kw = {"use_choice": not no_choice}
    if depth is not None:
        kw["depth"] = depth
    return Engine(**kw)


_COMMON = (
    _arg("--json", dest="as_json", action="store_true", help="JSON output"),
    _arg("--depth", type=int, help="search depth"),
    _arg("--no-choice", action="store_true",
         help="forbid choice-tagged rules"),
    _arg("--expect", help="expected answer; sets exit code"),
)


@_command("type", "embeds", _arg("s"), _arg("t"), *_COMMON)
def type_embeds(s, t, as_json, depth, no_choice, expect) -> int:
    v = _engine(depth, no_choice).embeds(parse_term(s), parse_term(t))
    return _finish_verdict(v, expect, as_json)


@_command("type", "equi", _arg("s"), _arg("t"), *_COMMON)
def type_equi(s, t, as_json, depth, no_choice, expect) -> int:
    v = _engine(depth, no_choice).equimorphic(parse_term(s), parse_term(t))
    return _finish_verdict(v, expect, as_json)


@_command("type", "classify", _arg("t"), *_COMMON)
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


@_command("type", "square", _arg("t"), *_COMMON)
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


@_command("type", "fprofile", _arg("t"))
def type_fprofile(t) -> int:
    from .fprofile import f_class_profile

    _echo_json(_shallow_dict(f_class_profile(parse_term(t))))
    return 0


# ---------------------------------------------------------------------------
# finite


@_command("finite", "profile", _arg("n", type=int))
def finite_profile_cmd(n: int) -> int:
    from .finite import FiniteOrder, finite_profile

    _echo_json(_shallow_dict(finite_profile(FiniteOrder(n))))
    return 0


# ---------------------------------------------------------------------------
# cond


@_command("cond", "ey", _arg("--size", type=int, required=True),
          _arg("--subset", required=True, help="comma-separated positions"))
def cond_ey(size: int, subset: str) -> int:
    from .condense import e_y_condense
    from .finite import FiniteOrder

    try:
        ys = [int(p) for p in subset.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad subset: {exc}")
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


@_command("cond", "f", _arg("--term", dest="term_text", required=True),
          _arg("--window", type=int, help="sample size cap"))
def cond_f(term_text: str, window: Optional[int]) -> int:
    from .condense import finite_condensation
    from .points import sample_points

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
    from .hierarchy import spec_from_json

    if text.lstrip().startswith("{"):
        return spec_from_json(text)
    with open(text, "r", encoding="utf-8") as fh:
        return spec_from_json(fh.read())


@_command("hier", "validate", _arg("spec"))
def hier_validate(spec: str) -> int:
    from .hierarchy import validate_sum_spec

    v = validate_sum_spec(_load_spec(spec))
    _echo_json({
        "answer": v.answer,
        "reason": v.reason,
        "counterexample_index": v.counterexample_index,
        "premises": [p.certificate for p in v.premises],
    })
    return 0 if v.decided else 2


@_command("hier", "realize", _arg("spec"))
def hier_realize(spec: str) -> int:
    from .hierarchy import realize

    print(print_term(realize(_load_spec(spec))))
    return 0


@_command("hier", "witness", _arg("spec"))
def hier_witness(spec: str) -> int:
    from .hierarchy import no_finite_F_witness

    w = no_finite_F_witness(_load_spec(spec))
    if w is None:
        print("no witness", file=sys.stderr)
        return 2
    print(print_term(w))
    return 0


# ---------------------------------------------------------------------------
# game


@_command("game", "verify",
          _arg("--rounds", type=int, default=2, help="default: %(default)s"),
          _arg("--max-move", type=int, default=2, help="default: %(default)s"),
          _arg("--seed", type=int),
          _arg("--exhaustive", action="store_true"),
          _arg("--trials", type=int, default=1000,
               help="default: %(default)s"))
def game_verify(rounds, max_move, seed, exhaustive, trials) -> int:
    import random

    from .game import (
        _all_words,
        exhaustive_verify,
        random_strategy,
        verify_flip_identity,
    )

    if exhaustive:
        total, failures = exhaustive_verify(rounds, max_move)
        _echo_json({"mode": "exhaustive", "cases": total,
                    "failures": len(failures)})
        return 0 if not failures else 3
    rng = random.Random(0 if seed is None else seed)
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
# parsing and dispatch
#
# Parsing ends in SystemExit, as argparse's does: code 0 after printing
# help, 2 after printing a usage error.


def _usage_error(prog: str, message: str):
    print(f"usage: {prog} COMMAND [ARGS]...\n{prog}: error: {message}",
          file=sys.stderr)
    raise SystemExit(2)


def _word(argv, prog: str, doc: str, helps: dict):
    """The command word that heads argv, and the words after it.  The
    words before it are options, up to a '--', and a group's only option
    is --help."""
    i = 0
    while i < len(argv) and argv[i][:1] == "-" and argv[i] not in ("-", "--"):
        i += 1
    options, argv = argv[:i], argv[i + (argv[i:i + 1] == ["--"]):]
    unknown = [w for w in options if w != "--help"]
    if unknown:
        _usage_error(prog, f"no such option: {unknown[0]}")
    if options:
        width = max(map(len, helps))
        listing = "\n".join(f"  {k:{width}}  {v}".rstrip()
                            for k, v in helps.items())
        print(f"usage: {prog} COMMAND [ARGS]...\n\n{doc}\n\n"
              f"commands:\n{listing}")
        raise SystemExit(0)
    if not argv:
        _usage_error(prog, "missing command")
    if argv[0] not in helps:
        if argv[0][:1] == "-" and argv[0] != "-":
            # a word after '--' that is no command but looks like an
            # option is read as the group's options, for --help or an error
            _word(argv, prog, doc, helps)
        _usage_error(prog, f"no such command: {argv[0]!r}")
    return argv[0], argv[1:]


def _parse(argv):
    """(command function, keyword arguments) for argv."""
    import argparse

    group, argv = _word(argv, "ordtypes", _DOC, _GROUPS)
    names = {n: "" for g, n in _COMMANDS if g == group}
    name, argv = _word(argv, f"ordtypes {group}", _GROUPS[group], names)
    function, arguments = _COMMANDS[group, name]
    parser = argparse.ArgumentParser(prog=f"ordtypes {group} {name}",
                                     add_help=False, allow_abbrev=False)
    # listed in the help; the words below are searched for --help
    parser.add_argument("--help", action="help",
                        help="show this message and exit")
    for flags, keywords in arguments:
        parser.add_argument(*flags, **keywords)
    # The words are sorted before argparse reads them, by the rules the
    # command line has always had: a word that starts with '-' is an
    # option and must be one of the command's; an option that takes a
    # value takes the next word, whatever it looks like ("--expect -x",
    # "--subset -1,2"); an option given twice keeps its last value, and
    # only that one is converted; '--' makes every later word an
    # argument; and --help wins once every option is known.
    takes_value = {flags[0]: "action" not in keywords
                   for flags, keywords in arguments if flags[0][:1] == "-"}
    options, positionals, help_asked = {}, [], False
    words = iter(argv)
    for w in words:
        option, eq, value = w.partition("=")
        if w == "--":
            positionals += words
        elif w[:1] != "-" or w == "-":
            positionals.append(w)
        elif w == "--help":
            help_asked = True
        elif option not in takes_value:
            parser.error(f"no such option: {option}")
        elif not takes_value[option]:
            if eq:
                parser.error(f"option {option} takes no value")
            options[option] = None
        else:
            if not eq:
                value = next(words, None)
                if value is None:
                    parser.error(f"option {option} needs a value")
            options[option] = value
    if help_asked:
        parser.print_help()
        raise SystemExit(0)
    # argparse drops a '--' that it is given as a value, so such a value
    # passes through it as a word that no argv can hold
    dashes = "\0--"
    args = [o if v is None else f"{o}={dashes if v == '--' else v}"
            for o, v in options.items()]
    if positionals:
        args += ["--", *(dashes if p == "--" else p for p in positionals)]
    parsed = vars(parser.parse_args(args))
    return function, {k: "--" if v == dashes else v for k, v in parsed.items()}


def run(argv) -> Tuple[int, str, str]:
    """Programmatic entry point: returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = _dispatch(list(argv))
    return code, out.getvalue(), err.getvalue()


def _dispatch(argv) -> int:
    try:
        function, kwargs = _parse(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return function(**kwargs)
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 3
    except (ParseError, CapacityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # the class sequences of fprofile and the point layer recurse
        # once per level of a term, so type fprofile on a chain of
        # thousands of '*' can exhaust the stack
        print("error: term nested too deeply to process "
              "(recursion limit reached)", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

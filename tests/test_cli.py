import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import ordtypes
from ordtypes.cli import run
from ordtypes.engine import replay_certificate
from ordtypes.fprofile import f_class_profile
from ordtypes.terms import parse_normalized

_ROOT = Path(__file__).resolve().parent.parent


def _fresh_python(code, *argv):
    """The stdout of code run with argv in a fresh interpreter that
    imports the package from this checkout."""
    src = str(Path(ordtypes.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True).stdout


def test_ord_cnf():
    code, out, err = run(["ord", "cnf", "w^(w)*2 + w*3 + 5"])
    assert code == 0 and out.strip() == "w^(w)*2 + w*3 + 5"
    code, out, _ = run(["ord", "cnf", "w*w + 2 + 3"])
    assert code == 0 and out.strip() == "w^(2) + 5"


def test_ord_cmp():
    code, out, _ = run(["ord", "cmp", "w", "w^(2)"])
    assert code == 0 and out.strip() == "LT"


def test_ord_classify_json_deterministic():
    a = run(["ord", "classify", "w^(w)"])
    b = run(["ord", "classify", "w^(w)"])
    assert a == b and a[0] == 0
    doc = json.loads(a[1])
    assert doc["untranscendable"] is True
    assert doc["s_untranscendable"] is False


def test_ord_witness():
    code, out, _ = run(["ord", "witness", "w^(2)"])
    assert code == 0
    doc = json.loads(out)
    assert doc["s_untranscendability"] == {"rho": "w", "tau": "w"}
    code, out, _ = run(["ord", "witness", "w"])
    doc = json.loads(out)
    assert doc["s_untranscendability"] is None


def test_ord_rejects_non_ordinal():
    code, _, err = run(["ord", "cnf", "q"])
    assert code == 1 and "not an ordinal" in err


def test_type_embeds_exit_codes():
    assert run(["type", "embeds", "w", "z"])[0] == 0
    assert run(["type", "embeds", "w", "z", "--expect", "YES"])[0] == 0
    assert run(["type", "embeds", "w", "z", "--expect", "NO"])[0] == 2
    code, out, _ = run(["type", "embeds", "z", "w"])
    assert code == 0 and out.strip() == "NO"


def test_type_embeds_json_certificate():
    code, out, _ = run(["type", "embeds", "r*r", "r", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["answer"] == "NO"
    assert doc["certificate"]["rule"] == "R-LAMBDA-SEP"


def test_type_classify_expect():
    code, out, _ = run(["type", "classify", "q"])
    assert code == 0 and json.loads(out)["homogeneous"] == "YES"
    assert run(["type", "classify", "q",
                "--expect", "homogeneous=YES"])[0] == 0
    assert run(["type", "classify", "q",
                "--expect", "homogeneous=NO"])[0] == 2


def test_type_classify_applies_contrapositives():
    # z is decomposable and not 2, so it is not untranscendable, hence
    # not s-untranscendable
    assert run(["type", "classify", "z",
                "--expect", "s_untranscendable=NO"])[0] == 0


def test_type_square():
    code, out, _ = run(["type", "square", "q"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "YES" and doc["failed"] == []


def test_type_fprofile():
    code, out, _ = run(["type", "fprofile", "geomrev(w)"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "finitely-many-finite"
    assert doc["finite_class_count"] == 1


def test_finite_profile():
    code, out, _ = run(["finite", "profile", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["decomposable"] is True and doc["transcendable"] is False


def test_cond_ey():
    code, out, _ = run(["cond", "ey", "--size", "5", "--subset", "1,2,4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"] == [[0], [1, 2], [3], [4]]
    assert doc["quotient_size"] == 4
    assert run(["cond", "ey", "--size", "3", "--subset", "9"])[0] == 1


def test_cond_f():
    code, out, _ = run(["cond", "f", "--term", "w + 1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"][-1] == {"size": 1, "tag": ["fin", 1]}


def test_hier_commands():
    spec = json.dumps(
        {"kind": "omega-sum", "generator": {"shape": "geometric",
                                            "base": "w"}}
    )
    assert run(["hier", "validate", spec])[0] == 0
    code, out, _ = run(["hier", "realize", spec])
    assert code == 0 and out.strip() == "w^(w)"
    code, out, _ = run(["hier", "witness", spec])
    assert code == 0 and out.strip() == "w^(w)"


def test_hier_witness_refusal_exit_2():
    spec = json.dumps(
        {
            "kind": "omega-sum",
            "generator": {
                "shape": "prefix",
                "prefix": ["w"],
                "tail": {"shape": "constant", "base": "1"},
            },
        }
    )
    code, out, err = run(["hier", "witness", spec])
    assert code == 2 and "no witness" in err


def test_hier_spec_file(tmp_path):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(
        {"kind": "eta-shuffle", "generator": {"shape": "constant",
                                              "base": "z"}}
    ))
    code, out, _ = run(["hier", "realize", str(f)])
    assert code == 0 and out.strip() == "z*q"
    assert run(["hier", "realize", str(tmp_path / "missing.json")])[0] == 1
    assert run(["hier", "realize", str(tmp_path)])[0] == 1


def test_every_printed_certificate_replays():
    terms = ("w + 1", "z", "q", "z*q", "w^(w)~")
    printed = []
    for s in terms:
        for t in terms:
            out = run(["type", "embeds", s, t, "--json"])[1]
            printed.append(json.loads(out)["certificate"])
        out = run(["type", "classify", s, "--json"])[1]
        printed += [doc["certificate"] for doc in json.loads(out).values()]
        out = run(["type", "square", s, "--json"])[1]
        printed.append(json.loads(out)["verdict"]["certificate"])
    # one spec of each generator shape; hier validate prints the engine
    # verdicts its answer rests on, and no node of its own
    answers = {}
    for kind, gen in (
        ("omega-sum", {"shape": "constant", "base": "w"}),
        ("omega-sum", {"shape": "eventually-constant", "base": "w",
                       "prefix": ["1", "2"]}),
        ("omega-star-sum", {"shape": "geometric", "base": "z"}),
        ("omega-sum", {"shape": "prefix", "prefix": ["w"],
                       "tail": {"shape": "constant", "base": "1"}}),
    ):
        code, out, _ = run(["hier", "validate",
                            json.dumps({"kind": kind, "generator": gen})])
        doc = json.loads(out)
        answers[gen["shape"]] = (code, doc["answer"], len(doc["premises"]))
        printed += doc["premises"]
    assert answers == {"constant": (0, "YES", 0),
                       "eventually-constant": (0, "YES", 2),
                       "geometric": (0, "YES", 1),
                       "prefix": (0, "NO", 1)}
    decided = [c for c in printed if c is not None]
    assert len(decided) > 50
    assert all(replay_certificate(c) for c in decided)


def test_game_verify():
    code, out, _ = run(["game", "verify", "--exhaustive", "--rounds", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"mode": "exhaustive", "cases": 216, "failures": 0}
    code, out, _ = run(["game", "verify", "--seed", "7", "--trials", "25"])
    assert code == 0 and json.loads(out)["failures"] == 0


def test_usage_errors():
    assert run(["no-such-group"])[0] == 1
    assert run(["type", "embeds", "w +", "z"])[0] == 1
    assert run([])[0] == 1


def test_capacity_error_exit_1():
    # 33 nested exponents exceed the CNF nesting cap of the parser
    nested = "w^(" * 33 + "1" + ")" * 33
    code, _, err = run(["type", "embeds", nested, "w"])
    assert code == 1 and "error:" in err


def test_deep_brackets_are_a_parse_error():
    # the parser bounds bracket nesting: deeper input is a parse error
    # (exit 1), never a RecursionError out of the call
    deep = "(" * 3000 + "1" + ")" * 3000
    code, _, err = run(["type", "classify", deep])
    assert code == 1 and "nested deeper" in err
    code, out, _ = run(["ord", "cnf", "(" * 100 + "1" + ")" * 100])
    assert code == 0 and out.strip() == "1"


def test_long_runs_of_reversals_end():
    # the parser bounds a run of '~' as it bounds brackets, and replay
    # of a node that names a longer run is False, never a RecursionError
    long = "1" + "~" * 3000
    code, _, err = run(["type", "classify", long])
    assert code == 1 and "'~' in a row" in err
    node = {"answer": "YES", "rule": "R-REFL", "s": long, "t": long,
            "instantiation": {}, "premises": [], "axioms": []}
    assert replay_certificate(node) is False
    # runs within the bound, also in every one of 99 nested brackets,
    # normalize as one step
    nested = "1"
    for _ in range(99):
        nested = f"({nested}{'~' * 100})"
    for s, t in (("w" + "~" * 100, "w"), ("w" + "~" * 99, "w~"),
                 (nested, "1")):
        assert run(["type", "embeds", s, t])[:2] == (0, "YES\n"), s[:20]


def test_geometric_sums_from_a_high_power_answer():
    # the pieces of these sums start at w^500, w^500~ and the 500-deep
    # Prod chain z^500, each power one step from the one before, its
    # count and facts too; a sum's end points are read off its base's
    # facts, so none of these overflows the stack
    for t in ("geomrev(w, 500)", "geom(w~, 500)", "geom(z, 500)",
              "geomrev(z+1, 300)", "geomrev(w, 1020)"):
        code, out, err = run(["type", "embeds", "w", t])
        assert (code, out.strip(), err) == (0, "YES", ""), t


def test_calls_that_reverse_a_chain_of_powers_end():
    # R-REV reverses z^500, a Prod chain 500 deep, and the search names
    # high powers of z + 1, whose text doubles with each power: each
    # call ends with a documented exit code, not a RecursionError or a
    # MemoryError
    for argv in (["type", "embeds", "z*z", "geom(z, 500)"],
                 ["type", "embeds", "z*z", "geom(z, 500)", "--json"],
                 ["type", "classify", "geom(z, 500)"]):
        code, _, _ = run(argv)
        assert code in (0, 1, 2), argv
    code, out, _ = run(["type", "embeds", "geomrev(z+1, 300)", "z*z"])
    assert (code, out.strip()) == (0, "NO")


# Runs a CLI call and replays the certificate it prints; the output is
# [exit code, stderr, answer, replayed].
_CALL_AND_REPLAY = """
import json, sys
from ordtypes.cli import run
from ordtypes.engine import replay_certificate
code, out, err = run(sys.argv[1:])
doc = json.loads(out)
print(json.dumps([code, err, doc["answer"], replay_certificate(doc["certificate"])]))
"""


def test_certificates_that_name_high_powers_print_and_replay():
    # a power of z prints as a bracket-free chain z*z*...*z, rendered on
    # an explicit stack: the first render takes no stack frame per
    # factor, and the text stays inside the parser's nesting bound.  Each
    # call runs in a fresh interpreter, as z keeps its powers for the
    # life of a process, and the whole-subtree oracles of
    # test_interning recurse once per factor.
    for s, t in (("z*z", "geom(z, 1020)"), ("z*z*z", "geom(z, 150)")):
        argv = ["type", "embeds", "--json", s, t]
        out = _fresh_python(_CALL_AND_REPLAY, *argv)
        assert json.loads(out) == [0, "", "YES", True], (s, t)


def test_importing_the_cli_loads_only_the_engine_stack():
    # a cold call pays for every module the CLI imports, so the command
    # groups outside the engine stack load their modules when they run,
    # and argv is parsed by the standard library
    code = "import json, sys, ordtypes.cli; print(json.dumps(sorted(sys.modules)))"
    loaded = set(json.loads(_fresh_python(code)))
    assert not loaded & {
        "ordtypes.hierarchy", "ordtypes.condense", "ordtypes.fprofile",
        "ordtypes.points", "ordtypes.game", "ordtypes.finite", "click",
        "logging",
    }
    assert {m for m in loaded if m.startswith("ordtypes.")} == {
        "ordtypes.cli", "ordtypes.engine", "ordtypes.terms",
        "ordtypes.ordinals", "ordtypes.analysis",
    }


def test_terms_too_deep_for_the_stack_exit_1():
    # normalize recurses once per factor of a chain of products, so
    # thousands of them exhaust the stack; the call still ends in a
    # documented exit code with a stated reason
    for argv in (["type", "classify", "w" + "*w" * 3000],
                 ["type", "classify", "w" + "*2" * 3000],
                 ["ord", "cnf", "w" + "*w" * 3000]):
        code, out, err = run(argv)
        assert (code, out) == (1, ""), argv[:2]
        assert "nested too deeply" in err


def test_type_fprofile_reads_the_normal_form():
    # the class profile is computed on the normalized term, as the API
    # expects: a reversal has a profile, and geom(0) (the sum 0^0 + 0 +
    # ... = 1) and geomrev(1, 1) (omega*) have their own
    for t in ("w~", "(w + 1)~", "geom(0)"):
        code, out, _ = run(["type", "fprofile", t])
        want = f_class_profile(parse_normalized(t))
        assert code == 0 and json.loads(out)["status"] == want.status, t
    assert json.loads(run(["type", "fprofile", "geomrev(1, 1)"])[1]) == {
        "census": [["omega-star", 1]], "finite_class_count": 0,
        "head": "omega-star", "status": "all-infinite", "tail": "omega-star"}


_SPEC = '{"kind":"omega-sum","generator":{"shape":"geometric","base":"w"}}'

# Each command-line example of the README with the exit code and stdout
# it gave when the command line was built on click; hier witness reads
# spec.json, which holds _SPEC.
_README_EXAMPLES = [
    (["ord", "cnf", "w*w + 2 + 3"], 0, "w^(2) + 5\n"),
    (["ord", "classify", "w^(w)"], 0,
     '{"additively_indecomposable": true, "cofinality": "w", '
     '"delta_number": true, "multiplicatively_indecomposable": true, '
     '"multiplicatively_principal": true, "product_closed": true, '
     '"s_untranscendable": false, "strongly_indecomposable": true, '
     '"sum_closed": true, "untranscendable": true}\n'),
    (["ord", "witness", "w^(2)"], 0,
     '{"ordinal": "w^(2)", "s_untranscendability": {"rho": "w", "tau": "w"}, '
     '"transcendability": {"psi": "w", "tau": "w"}}\n'),
    (["type", "embeds", "r*r", "r", "--json"], 0,
     '{"answer": "NO", "certificate": {"answer": "NO", "axioms": [], '
     '"instantiation": {}, "premises": [], "rule": "R-LAMBDA-SEP", '
     '"s": "r*r", "t": "r"}}\n'),
    (["type", "classify", "q", "--expect", "homogeneous=YES"], 0,
     '{"homogeneous": "YES", "indecomposable": "YES", "product_closed": "YES", '
     '"s_untranscendable": "YES", "strictly_indec_left": "NO", '
     '"strictly_indec_right": "NO", "strongly_indecomposable": "YES", '
     '"sum_closed": "YES", "untranscendable": "YES"}\n'),
    (["type", "square", "q"], 0,
     '{"failed": [], "hypotheses": {"s_untranscendable": "YES", '
     '"two_copies_left": "YES", "two_copies_right": "YES"}, "term": "q", '
     '"undecided": [], "verdict": "YES"}\n'),
    (["type", "fprofile", "geomrev(w)"], 0,
     '{"census": [["finite:1", 1], ["omega", "inf"]], "finite_class_count": 1, '
     '"head": null, "status": "finitely-many-finite", "tail": "finite:1"}\n'),
    (["finite", "profile", "2"], 0,
     '{"decomposable": true, "partition_witness": [[0], [1]], '
     '"split_witness": [1, 1], "strongly_indecomposable": false, '
     '"transcend_witness": null, "transcendable": false}\n'),
    (["cond", "ey", "--size", "5", "--subset", "1,2,4"], 0,
     '{"classes": [[0], [1, 2], [3], [4]], "dichotomy": null, "embedding": '
     '{"0": [1, 0], "1": [1, 1], "2": [2, 1], "3": [1, 2], "4": [4, 3]}, '
     '"quotient_size": 4}\n'),
    (["cond", "f", "--term", "w + 1"], 0,
     '{"classes": [{"size": 3, "tag": ["omega"]}, '
     '{"size": 1, "tag": ["fin", 1]}], "sampled": true}\n'),
    (["hier", "validate", _SPEC], 0,
     '{"answer": "YES", "counterexample_index": null, "premises": '
     '[{"answer": "YES", "axioms": [], "instantiation": {"cmp": "LE"}, '
     '"premises": [], "rule": "R-ORD", "s": "1", "t": "w"}], '
     '"reason": "monotone geometric tower"}\n'),
    (["hier", "realize", _SPEC], 0, "w^(w)\n"),
    (["hier", "witness", "spec.json"], 0, "w^(w)\n"),
    (["game", "verify", "--exhaustive", "--rounds", "1"], 0,
     '{"cases": 216, "failures": 0, "mode": "exhaustive"}\n'),
]


def test_readme_examples(tmp_path, monkeypatch):
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    examples = [shlex.split(line, comments=True)[1:]
                for line in readme.splitlines()
                if line.startswith("ordtypes ")]
    assert examples == [argv for argv, _, _ in _README_EXAMPLES]
    (tmp_path / "spec.json").write_text(_SPEC)
    monkeypatch.chdir(tmp_path)
    for argv, code, out in _README_EXAMPLES:
        assert run(argv)[:2] == (code, out), argv


# Terms of at most 8 characters built from small leaves, and a few
# larger terms on their own, so that each case is fast.  The engine has
# no per-query budget yet (ROADMAP item 1), so larger terms reach inputs
# that are still unbounded in time: type classify 'r+r*q+q' takes 15 s,
# type square 'z*2*2*2*2' 3.6 s, and 'z*2*2*2*2*2' runs past 20 s.  Nor does the cap reach the open inputs of ROADMAP items 5 and 6:
# a large finite multiple such as z*100000000, which expands into that
# many parts, and chains of thousands of products, which exhaust the
# recursive normalizer's stack.  Numbers stay at most 2, since game
# verify --exhaustive grows exponentially in --rounds and --max-move.
_TERMS = st.one_of(
    st.sampled_from(["r", "geomrev(w)", "geomrev(z, 1)"]),
    st.recursive(
        st.sampled_from(["0", "1", "2", "w", "z", "q", "w~"]),
        lambda kids: st.one_of(
            st.tuples(kids, st.sampled_from(["+", "*", " + "]),
                      kids).map("".join),
            kids.map(lambda a: a + "~"),
            kids.map(lambda a: f"({a})"),
            kids.map(lambda a: f"w^({a})"),
            kids.map(lambda a: f"geom({a})"),
        ),
        max_leaves=4,
    ).filter(lambda t: len(t) <= 8),
)

# each command with the number of terms it takes
_COMMANDS = [
    (["ord", "cnf"], 1), (["ord", "cmp"], 2), (["ord", "classify"], 1),
    (["ord", "witness"], 1), (["type", "embeds"], 2), (["type", "equi"], 2),
    (["type", "classify"], 1), (["type", "square"], 1),
    (["type", "fprofile"], 1), (["finite", "profile"], 1),
    (["cond", "ey"], 0), (["cond", "f"], 0), (["hier", "validate"], 1),
    (["hier", "realize"], 1), (["hier", "witness"], 1),
    (["game", "verify"], 0),
    # a missing or unknown command
    ([], 0), (["type"], 0), (["nope"], 0), (["ord", "nope"], 1),
    (["--", "type", "embeds"], 2),
]

# each group's options, and whether each takes a value
_OPTIONS = {
    "type": {"--json": False, "--depth": True, "--no-choice": False,
             "--expect": True},
    "cond": {"--size": True, "--subset": True, "--term": True,
             "--window": True},
    "game": {"--rounds": True, "--max-move": True, "--seed": True,
             "--exhaustive": False, "--trials": True},
}

_VALUES = st.sampled_from(["YES", "NO", "homogeneous=YES", "-1", "0", "1",
                           "2", "1,2"])


@st.composite
def _argv(draw):
    """A command with its number of terms or one more or less, and up to
    three options among them."""
    command, arity = draw(st.sampled_from(_COMMANDS))
    options = _OPTIONS.get(command[0] if command else "", {})
    n = draw(st.sampled_from([arity, arity, arity + 1, max(arity - 1, 0)]))
    words = draw(st.lists(_TERMS, min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 3))):
        option = draw(st.sampled_from([
            *options, *options, "--help", "--", "--bogus", "-1", "--json",
            "--size", "(", "", "w +",
        ]))
        value = [draw(st.one_of(_TERMS, _VALUES))] if options.get(option) else []
        at = draw(st.integers(0, len(words)))
        words[at:at] = [option, *value]
    return command + words


@settings(max_examples=200, deadline=None)
@given(_argv())
@example(["type", "square", "--expect", "--", "q", "--"])
def test_every_argv_ends_in_an_exit_code(argv):
    assert run(argv)[0] in (0, 1, 2, 3)

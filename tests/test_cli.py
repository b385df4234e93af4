import json
import os
import subprocess
import sys
from pathlib import Path

import ordtypes
from ordtypes.cli import run
from ordtypes.engine import replay_certificate


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
    src = str(Path(ordtypes.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    for s, t in (("z*z", "geom(z, 1020)"), ("z*z*z", "geom(z, 150)")):
        argv = ["type", "embeds", "--json", s, t]
        proc = subprocess.run([sys.executable, "-c", _CALL_AND_REPLAY, *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        assert json.loads(proc.stdout) == [0, "", "YES", True], (s, t)

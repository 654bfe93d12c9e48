# Command line driver: exit codes, JSON envelopes against the bundled
# schemas, byte-identical determinism, and text/JSON parity.  Every call
# goes through main(argv) in process, so stdout and stderr are captured
# by pytest's capsys fixture.

import copy
import io
import json
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import jsonschema
import pytest

from orthokit import Orthoset, cli, config, corpus, is_sasaki_space, lattice, snapshot


SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schema"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_payload(tmp_path, fixture_name, filename):
    doc = corpus.load(fixture_name)["payload"]
    path = tmp_path / filename
    path.write_text(json.dumps(doc))
    return str(path)


def envelope_of(out):
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("report.schema.json"))
    return doc


# --------------------------------------------------------------- envelopes


def test_json_envelope_validates_and_echoes_command(capsys, tmp_path):
    path = write_payload(tmp_path, "path4", "path4.json")
    code, out, _ = run(capsys, ["check", path, "--format", "json"])
    assert code == 0
    doc = envelope_of(out)
    assert doc["tool"] == "orthokit"
    assert doc["command"] == "check"
    assert doc["input"] == path
    assert doc["seed"] == 0
    assert set(doc["budgets"]) == {
        "family", "clique", "nodes", "automorphism", "lattice_cap"
    }
    result = doc["result"]
    assert result["n"] == 4 and result["rank"] == 2
    assert result["dacey"]["holds"] is False
    assert result["sasaki_naive"]["holds"] is False
    assert result["modes_agree"] is True


def test_budget_flags_are_echoed_in_envelope(capsys, tmp_path):
    path = write_payload(tmp_path, "two_edges", "two_edges.json")
    code, out, _ = run(
        capsys, ["check", path, "--format", "json", "--family-budget", "77"]
    )
    assert code == 0
    assert envelope_of(out)["budgets"]["family"] == 77
    # every flag at once: the envelope is the resolved snapshot
    flags = {"family": 77, "clique": 500, "nodes": 9000, "automorphism": 4, "lattice_cap": 70}
    code, out, _ = run(capsys, [
        "check", path, "--format", "json", "--family-budget", "77",
        "--clique-budget", "500", "--node-budget", "9000",
        "--automorphism-bound", "4", "--lattice-cap", "70",
    ])
    assert code == 0
    assert envelope_of(out)["budgets"] == flags == snapshot(**flags)


def test_output_is_byte_identical_across_runs(capsys, tmp_path):
    path = write_payload(tmp_path, "horizontal_sum_atoms", "hs.json")
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["sasaki", path, "--format", "json"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    code, text1, _ = run(capsys, ["sasaki", path])
    code, text2, _ = run(capsys, ["sasaki", path])
    assert text1 == text2


# -------------------------------------------------------------- exit codes


def test_missing_file_is_an_input_error(capsys):
    code, out, err = run(capsys, ["check", "/nonexistent/file.json"])
    assert code == 2
    assert "cannot read" in err and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_utf8_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"elements": ["\u00e9"], "orthogonal": []}'.encode("latin-1"))
    code, out, err = run(capsys, ["check", str(path)])
    assert code == 2
    assert "cannot read" in err and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_invalid_json_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(capsys, ["check", str(path)])
    assert code == 2 and "invalid JSON" in err
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("via_params", [False, True], ids=["file", "params"])
def test_deeply_nested_json_is_an_input_error(capsys, tmp_path, via_params):
    if via_params:
        argv = ["corpus", "generate", "boolean", "--params", DEEP]
    else:
        path = tmp_path / "deep.json"
        path.write_text(DEEP)
        argv = ["check", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 2 and "invalid JSON" in err
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_unknown_fixture_is_an_input_error(capsys):
    code, _, err = run(capsys, ["corpus", "show", "pentagon"])
    assert code == 2 and "pentagon" in err


def test_duplicate_label_is_an_input_error_that_names_it(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"elements": ["a", "b", "a"], "orthogonal": [["a", "b"]]}))
    code, out, err = run(capsys, ["check", str(path)])
    assert code == 2 and out == "" and err == "error: duplicate element label 'a'\n"


def test_tiny_family_budget_exceeds(capsys, tmp_path):
    path = write_payload(tmp_path, "complete4", "k4.json")
    code, _, err = run(capsys, ["check", path, "--family-budget", "3"])
    assert code == 3 and "budget" in err


def test_check_enforces_clique_budget(capsys, tmp_path):
    path = write_payload(tmp_path, "cycle4", "cycle4.json")
    code, out, err = run(
        capsys, ["check", path, "--clique-budget", "0", "--format", "json"]
    )
    assert code == 3 and "budget" in err and out == ""


def test_negative_budget_flag_is_an_input_error(capsys, tmp_path):
    path = write_payload(tmp_path, "cycle4", "cycle4.json")
    code, out, err = run(capsys, ["sasaki", path, "--node-budget", "-5"])
    assert code == 2 and "node budget" in err and out == ""


def test_negative_family_budget_is_not_budget_exceeded(capsys, tmp_path):
    path = write_payload(tmp_path, "two_edges", "two_edges.json")
    code, _, err = run(capsys, ["finch", path, "--family-budget", "-1"])
    assert code == 2 and "family budget" in err


def test_malformed_env_budget_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("ORTHOKIT_NODE_BUDGET", "abc")
    code, out, err = run(capsys, ["corpus", "list", "--format", "json"])
    assert code == 2 and "ORTHOKIT_NODE_BUDGET" in err and out == ""


def test_negative_env_budget_is_an_input_error(capsys, monkeypatch, tmp_path):
    path = write_payload(tmp_path, "cycle4", "cycle4.json")
    monkeypatch.setenv("ORTHOKIT_CLIQUE_BUDGET", "-3")
    code, _, err = run(capsys, ["check", path])
    assert code == 2 and "ORTHOKIT_CLIQUE_BUDGET" in err


def test_zero_budget_is_valid(capsys, monkeypatch, tmp_path):
    path = write_payload(tmp_path, "cycle4", "cycle4.json")
    monkeypatch.setenv("ORTHOKIT_AUTOMORPHISM_BOUND", "0")
    code, out, _ = run(capsys, ["check", path, "--format", "json"])
    assert code == 0
    doc = envelope_of(out)
    assert doc["budgets"]["automorphism"] == 0
    assert doc["result"]["transitive"] is None


@pytest.mark.parametrize("flag, env", [
    (["--family-budget", "1"], {}),
    (["--clique-budget", "0"], {}),
    (["--node-budget", "0"], {}),
    (["--automorphism-bound", "0"], {}),
    ([], {"ORTHOKIT_FAMILY_BUDGET": "1"}),
])
def test_run_golden_enforces_the_budgets_it_echoes(capsys, monkeypatch, flag, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, ["corpus", "run-golden", "--format", "json"] + flag)
    assert code == 3 and out == "" and err.startswith("error: budget exceeded: ")


def defaults():
    return {name: spec[0] for name, spec in config.BUDGETS.items()}


def test_library_calls_do_not_read_the_environment(monkeypatch):
    # every budget set to 0 by variable; only the CLI reads them
    for _, env, *_ in config.BUDGETS.values():
        monkeypatch.setenv(env, "0")
    x = corpus.get("complete4").build()
    assert is_sasaki_space(x).is_sasaki
    assert x.is_transitive().holds
    assert corpus.mo_lattice(2).n == 6
    with config.budgets(nodes=100):
        assert {name: config.resolve(name) for name in config.BUDGETS} == {**defaults(), "nodes": 100}
        assert corpus.generate("boolean", {"n": 3}).n == 8
    assert {name: config.resolve(name) for name in config.BUDGETS} == defaults()


def test_budgets_do_not_leak_between_runs(capsys):
    flags = ["--family-budget", "1", "--clique-budget", "0", "--node-budget", "0",
             "--automorphism-bound", "0", "--lattice-cap", "0"]
    # one run ends in an error, the other returns normally
    assert run(capsys, ["corpus", "run-golden"] + flags)[0] == 3
    assert {name: config.resolve(name) for name in config.BUDGETS} == defaults()
    assert run(capsys, ["corpus", "list"] + flags)[0] == 0
    assert {name: config.resolve(name) for name in config.BUDGETS} == defaults()


def test_finch_on_non_sasaki_space_is_a_domain_error(capsys, tmp_path):
    path = write_payload(tmp_path, "path4", "path4.json")
    code, _, err = run(capsys, ["finch", path])
    assert code == 2 and "sasaki" in err.lower()


def test_finch_on_sasaki_space_reports_all_laws(capsys, tmp_path):
    path = write_payload(tmp_path, "two_edges", "two_edges.json")
    code, out, _ = run(capsys, ["finch", path, "--format", "json"])
    assert code == 0
    result = envelope_of(out)["result"]
    assert result["ok"] is True
    assert set(result["laws"]) == {
        "monotone", "composition", "adjoint_bound", "self_adjoint",
        "join_preserving",
    }


# ------------------------------------------------------------ sasaki + oml


def test_sasaki_space_refutation_validates_schema(capsys, tmp_path):
    path = write_payload(tmp_path, "path4", "path4.json")
    code, out, _ = run(capsys, ["sasaki", path, "--format", "json"])
    assert code == 0
    result = envelope_of(out)["result"]
    assert result["is_sasaki"] is False
    assert result["refutation_verified"] is True
    jsonschema.validate(result["refutation"], load_schema("refutation.schema.json"))


def test_sasaki_witness_validates_schema(capsys, tmp_path):
    path = write_payload(tmp_path, "two_edges", "two_edges.json")
    code, out, _ = run(
        capsys, ["sasaki", path, "--target", "a", "--format", "json"]
    )
    assert code == 0
    result = envelope_of(out)["result"]
    assert result["exists"] is True and result["shortcut"] == "c"
    jsonschema.validate(result["witness"], load_schema("witness.schema.json"))
    assert result["witness"]["map"] == {"a": "a", "c": "a", "d": "a"}


def test_sasaki_count_reports_multiplicity(capsys, tmp_path):
    doc = {
        "elements": ["a", "b", "c", "d"],
        "orthogonal": [["a", "c"], ["b", "c"]],
    }
    path = tmp_path / "slack.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys,
        ["sasaki", str(path), "--target", "a,b", "--count", "--limit", "5",
         "--format", "json"],
    )
    assert code == 0
    result = envelope_of(out)["result"]
    assert result["count"] == 2 and len(result["maps"]) == 2


def test_sasaki_search_depth_is_not_limited(capsys, tmp_path):
    # 1,500 elements and one orthogonal pair: the target {x0} leaves 1,498
    # free elements, each with the single value x0
    elements = [f"x{i}" for i in range(1500)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"elements": elements, "orthogonal": [["x0", "x1"]]}))
    code, out, _ = run(capsys, ["sasaki", str(path), "--target", "x0", "--format", "json"])
    assert code == 0
    result = envelope_of(out)["result"]
    assert result["exists"] and result["nodes"] == 1498 and result["shortcut"] == "c"
    code, out, _ = run(capsys, ["sasaki", str(path), "--target", "x0", "--count", "--format", "json"])
    assert code == 0 and envelope_of(out)["result"]["count"] == 1


@pytest.fixture(scope="module")
def large_inputs(tmp_path_factory):
    """K1050 (every subset is a perp-set), 1,100 elements with one
    orthogonal pair, and the lattice MO500 (1,002 elements)."""
    d = tmp_path_factory.mktemp("large")
    with config.budgets(lattice_cap=2000):
        mo500 = corpus.mo_lattice(500).to_json()
    docs = {
        "k1050": corpus.generate("complete_graph", {"n": 1050}).to_json(),
        "pair1100": {"elements": [f"x{i}" for i in range(1100)], "orthogonal": [["x0", "x1"]]},
        "mo500": mo500,
    }
    for name, doc in docs.items():
        (d / f"{name}.json").write_text(json.dumps(doc))
    return d


LARGE_COMMANDS = {
    "check": ["check"],
    "sasaki": ["sasaki"],
    "reduced": ["sasaki", "--mode", "reduced"],
    "finch": ["finch"],
    "roundtrip": ["lattice", "--roundtrip"],
    "oml": ["oml"],
    "project": ["oml", "--project", "x1"],
    "induced": ["oml", "--induced", "x1"],
}
# case, input, extra flags, and the exit code of each command
LARGE_CASES = [
    ("k1050", "k1050", [],
     dict(check=3, sasaki=3, reduced=3, finch=3, roundtrip=3, oml=2, project=2, induced=2)),
    ("pair1100", "pair1100", [],
     dict(check=0, sasaki=0, reduced=0, finch=0, roundtrip=0, oml=2, project=2, induced=2)),
    ("mo500-cap2000", "mo500", ["--lattice-cap", "2000"],
     dict(check=2, sasaki=2, reduced=2, finch=2, roundtrip=0, oml=0, project=0, induced=0)),
    ("mo500", "mo500", [],
     dict(check=2, sasaki=2, reduced=2, finch=2, roundtrip=3, oml=3, project=3, induced=3)),
]


@pytest.mark.parametrize(
    "case, doc, extra, command, expected",
    [(case, doc, extra, command, code)
     for case, doc, extra, codes in LARGE_CASES for command, code in codes.items()],
    ids=[f"{case}-{command}" for case, _, _, codes in LARGE_CASES for command in codes],
)
def test_large_inputs_end_in_an_exit_code(capsys, large_inputs, case, doc, extra, command, expected):
    # inputs past the default recursion limit answer, or stop at a budget
    # or an input error, and never crash
    argv = [*LARGE_COMMANDS[command], str(large_inputs / f"{doc}.json"), *extra]
    if (case, command) == ("pair1100", "check"):
        argv += ["--automorphism-bound", "2000"]
    code, out, err = run(capsys, argv)
    assert code == expected and "Traceback" not in err
    if code:
        assert out == ""
    if (case, command) == ("k1050", "reduced"):
        # every subset of K1050 is a perp-set; the enumeration is 1,050
        # deep and must stop at the clique budget, not at the recursion limit
        assert "perp-set enumeration exceeds budget" in err
    if (case, command) == ("pair1100", "check"):
        assert 'transitive: no  [witness: ["x0", "x2"]]' in out.splitlines()


def test_sasaki_wipe_out_nodes_count_against_the_node_budget(capsys, tmp_path):
    # the target {x5, x6, x10} is refuted by a root wipe-out of x15: 3 nodes
    x = corpus.generate("random_orthoset", {"n": 18, "p": 0.2}, seed=0)
    path = tmp_path / "r18.json"
    path.write_text(json.dumps(x.to_json()))
    argv = ["sasaki", str(path), "--target", "x5,x6,x10", "--format", "json"]
    code, _, err = run(capsys, argv + ["--node-budget", "2"])
    assert code == 3 and "sasaki search exceeded 2 nodes" in err
    code, out, _ = run(capsys, argv + ["--node-budget", "3"])
    assert code == 0
    result = envelope_of(out)["result"]
    assert result["nodes"] == 3 and result["refutation_verified"] is True


def test_sasaki_count_zero_limit_is_an_input_error(capsys, tmp_path):
    path = write_payload(tmp_path, "two_edges", "two_edges.json")
    code, out, err = run(capsys, ["sasaki", path, "--target", "a", "--count", "--limit", "0"])
    assert code == 2 and "limit" in err and out == ""


def test_target_labels_take_comma_escapes(capsys, tmp_path):
    x = Orthoset.build(["a", "b", "a,b"], [("a", "b"), ("a", "a,b"), ("b", "a,b")])
    path = tmp_path / "comma.json"
    path.write_text(json.dumps(x.to_json("comma")))
    for target, named in (("a\\,b", ["a,b"]), ("a,b", ["a", "b"])):
        code, out, err = run(capsys, ["sasaki", str(path), "--target", target, "--format", "json"])
        assert code == 0, err
        assert envelope_of(out)["result"]["target"] == named
    code, out, err = run(capsys, ["sasaki", str(path), "--target", "a\\"])
    assert code == 2 and "backslash" in err and out == ""


def test_oml_projection_table_golden(capsys, tmp_path):
    path = write_payload(tmp_path, "mo2", "mo2.json")
    code, out, _ = run(
        capsys, ["oml", path, "--project", "a", "--format", "json"]
    )
    assert code == 0
    table = envelope_of(out)["result"]["table"]
    assert table == {"0": "0", "a": "a", "a'": "0", "b": "a", "b'": "a", "1": "a"}


def test_oml_default_report_includes_facts_and_wilce(capsys, tmp_path):
    path = write_payload(tmp_path, "mo2", "mo2.json")
    code, out, _ = run(capsys, ["oml", path, "--format", "json"])
    assert code == 0
    result = envelope_of(out)["result"]
    assert result["orthomodular"]["holds"] is True
    assert set(result["projection_facts"]) == {
        "a_fixed_points", "b_adjoint_bound", "c_kernel", "d_self_adjoint"
    }
    assert all(v["holds"] for v in result["projection_facts"].values())
    assert result["agree"] is True


def test_oml_on_benzene_reports_not_orthomodular(capsys, tmp_path):
    path = write_payload(tmp_path, "benzene", "benzene.json")
    code, out, _ = run(capsys, ["oml", path, "--format", "json"])
    assert code == 0
    result = envelope_of(out)["result"]
    assert result["orthomodular"]["holds"] is False
    assert result["orthomodular"]["witness"] == ["b", "bd"]
    assert "projection_facts" not in result


def test_oml_induced_map_golden(capsys, tmp_path):
    path = write_payload(tmp_path, "mo2", "mo2.json")
    code, out, _ = run(
        capsys, ["oml", path, "--induced", "a", "--format", "json"]
    )
    assert code == 0
    induced = envelope_of(out)["result"]["induced"]
    jsonschema.validate(induced, load_schema("witness.schema.json"))
    assert induced["map"] == {"a": "a", "b": "a", "b'": "a", "1": "a"}


def test_oml_scans_orthomodularity_once(capsys, tmp_path, count_calls):
    # once for the verdict, not again for projection_facts and wilce_check
    calls = count_calls(lattice, "_orthomodular_scan")
    path = write_payload(tmp_path, "mo2", "mo2.json")
    code, _, err = run(capsys, ["oml", path])
    assert code == 0, err
    assert len(calls) == 1


def test_oml_rejects_orthoset_document(capsys, tmp_path):
    path = write_payload(tmp_path, "path4", "path4.json")
    code, _, err = run(capsys, ["oml", path])
    assert code == 2 and "lattice" in err


# ----------------------------------------------------------------- lattice


def test_lattice_report_from_orthoset_and_dot_output(capsys, tmp_path):
    path = write_payload(tmp_path, "path4", "path4.json")
    code, out, _ = run(capsys, ["lattice", path, "--format", "json"])
    assert code == 0
    result = envelope_of(out)["result"]
    assert result["source"] == "orthoclosed-family"
    assert result["size"] == 6

    code, dot_out, _ = run(capsys, ["lattice", path, "--dot", "-"])
    assert code == 0 and "->" in dot_out

    target = tmp_path / "hasse.dot"
    code, _, _ = run(capsys, ["lattice", path, "--dot", str(target)])
    assert code == 0
    assert "->" in target.read_text()


def test_unwritable_dot_path_is_an_input_error(capsys, tmp_path):
    path = write_payload(tmp_path, "path4", "path4.json")
    target = tmp_path / "no_such_dir" / "hasse.dot"
    code, out, err = run(capsys, ["lattice", path, "--dot", str(target)])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_lattice_roundtrip_flag(capsys, tmp_path):
    path = write_payload(tmp_path, "mo2", "mo2_lat.json")
    code, out, _ = run(
        capsys, ["lattice", path, "--roundtrip", "--format", "json"]
    )
    assert code == 0
    result = envelope_of(out)["result"]
    assert result["roundtrip"]["ok"] is True


def test_lattice_roundtrip_scans_covering_once(capsys, tmp_path, count_calls):
    # the report and the atomistic hypothesis of the round trip share one scan
    calls = count_calls(lattice, "_covering_scan")
    path = write_payload(tmp_path, "mo2", "mo2_lat.json")
    code, _, err = run(capsys, ["lattice", path, "--roundtrip"])
    assert code == 0, err
    assert len(calls) == 1


def test_lattice_roundtrip_honours_lattice_cap(capsys, tmp_path):
    # MO32 has 66 elements, two above the default cap
    with config.budgets(lattice_cap=70):
        doc = corpus.mo_lattice(32).to_json("mo32")
    path = tmp_path / "mo32.json"
    path.write_text(json.dumps(doc))
    argv = ["lattice", str(path), "--lattice-cap", "70", "--format", "json"]
    code, _, err = run(capsys, argv)
    assert code == 0, err
    code, out, err = run(capsys, argv + ["--roundtrip"])
    assert code == 0, err
    assert envelope_of(out)["result"]["roundtrip"]["ok"] is True


def test_comma_in_label_keeps_set_labels_distinct(capsys, tmp_path):
    x = Orthoset.build(["a", "b", "a,b"], [("a", "b"), ("a", "a,b"), ("b", "a,b")])
    path = tmp_path / "comma.json"
    path.write_text(json.dumps(x.to_json("comma")))
    code, _, err = run(capsys, ["check", str(path)])
    assert code == 0, err
    code, out, err = run(capsys, ["lattice", str(path), "--format", "json"])
    assert code == 0, err
    assert envelope_of(out)["result"]["size"] == 8
    code, out, err = run(capsys, ["sasaki", str(path), "--witnesses", "--format", "json"])
    assert code == 0, err
    result = envelope_of(out)["result"]
    assert result["is_sasaki"] is True
    assert len(result["witnesses"]) == result["targets"] == 8


def test_check_reads_stdin(capsys, monkeypatch):
    doc = corpus.load("two_edges")["payload"]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, _ = run(capsys, ["check", "-", "--format", "json"])
    assert code == 0
    assert envelope_of(out)["result"]["rank"] == 2


# ------------------------------------------------------------------ corpus


def test_corpus_list_names_eleven_fixtures(capsys):
    code, out, _ = run(capsys, ["corpus", "list"])
    assert code == 0
    assert len(out.strip().splitlines()) == 11

    code, out, _ = run(capsys, ["corpus", "list", "--format", "json"])
    fixtures = envelope_of(out)["result"]["fixtures"]
    assert [f["name"] for f in fixtures] == corpus.list_names()


def test_corpus_show_round_trips_document(capsys):
    code, out, _ = run(capsys, ["corpus", "show", "benzene"])
    assert code == 0
    assert json.loads(out)["name"] == "benzene"


def test_corpus_run_golden_all_green(capsys):
    code, out, _ = run(capsys, ["corpus", "run-golden"])
    assert code == 0
    assert out.strip().splitlines()[-1] == "golden: 11/11 ok"


def test_corpus_run_golden_only_filter(capsys):
    code, out, _ = run(capsys, ["corpus", "run-golden", "--only", "benzene,mo2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "fixture benzene: ok"
    assert lines[-1] == "golden: 2/2 ok"


def test_corpus_generate_is_deterministic(capsys):
    cmd = ["corpus", "generate", "random_orthoset", "--params", '{"n": 4}',
           "--seed", "5", "--format", "json"]
    _, out1, _ = run(capsys, cmd)
    _, out2, _ = run(capsys, cmd)
    assert out1 == out2
    _, out3, _ = run(capsys, cmd[:-3] + ["9", "--format", "json"])
    assert json.loads(out1)["result"]["elements"] == json.loads(out3)["result"]["elements"]


def test_corpus_generate_rejects_bad_params(capsys):
    code, _, err = run(capsys, ["corpus", "generate", "boolean", "--params", "[1]"])
    assert code == 2 and "JSON object" in err
    code, _, err = run(capsys, ["corpus", "generate", "boolean", "--params", "{"])
    assert code == 2
    code, _, err = run(capsys, ["corpus", "generate", "nope", "--params", "{}"])
    assert code == 2


def test_corpus_generate_non_integer_param_is_an_input_error(capsys):
    argv = ["corpus", "generate", "complete_graph", "--params", '{"n": "abc"}']
    code, out, err = run(capsys, argv)
    assert code == 2 and "'n'" in err and out == ""


def test_corpus_generate_non_numeric_probability_is_an_input_error(capsys):
    argv = ["corpus", "generate", "random_orthoset", "--params", '{"n": 4, "p": "x"}']
    code, out, err = run(capsys, argv)
    assert code == 2 and "'p'" in err and out == ""


def test_corpus_generate_refuses_a_bool_parameter(capsys):
    argv = ["corpus", "generate", "random_orthoset", "--params", '{"n": true}']
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: generator parameter 'n' must be an integer, got True\n"


def test_corpus_generate_honours_lattice_cap(capsys):
    argv = ["corpus", "generate", "boolean", "--params", '{"n": 7}', "--format", "json"]
    code, _, err = run(capsys, argv)
    assert code == 3 and "cap of 64" in err
    code, out, err = run(capsys, argv + ["--lattice-cap", "200"])
    assert code == 0, err
    doc = envelope_of(out)
    assert doc["budgets"]["lattice_cap"] == 200
    assert len(doc["result"]["elements"]) == 128


# --------------------------------------------------------------- hermitian


HERMITIAN_DOC = {
    "field": "Qi",
    "gram": [["1", "0", "0"], ["0", "2", "i"], ["0", "-i", "2"]],
    "subspace": [["1", "0", "0"], ["0", "1", "0"]],
    "lines": [["1", "1", "1"], ["1", "0", "6"]],
}


def test_hermitian_check_document(capsys, tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(HERMITIAN_DOC))
    code, out, _ = run(capsys, ["hermitian", "check", str(path), "--format", "json"])
    assert code == 0
    result = envelope_of(out)["result"]
    assert result["dim"] == 3 and result["anisotropic"] is True
    assert result["perp_basis"] == [["0", "1", "-2i"]]
    assert result["images"] == [
        {"line": ["1", "1", "1"], "image": ["1", "1-1/2i", "0"]},
        {"line": ["1", "0", "6"], "image": ["1", "-3i", "0"]},
    ]


def test_hermitian_check_orthogonal_line_is_an_input_error(capsys, tmp_path):
    doc = {
        "field": "Qi",
        "gram": [["1", "0", "0"], ["0", "2", "i"], ["0", "-i", "2"]],
        "subspace": [["1", "0", "0"], ["0", "1", "0"]],
        "lines": [["1", "1", "1"], ["0", "1", "-2i"]],
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["hermitian", "check", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: line is orthogonal to the subspace: outside the Sasaki map domain\n"


def test_hermitian_check_rejects_anisotropy_failure(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": "Q", "gram": [["-1"]]}))
    code, _, err = run(capsys, ["hermitian", "check", str(path)])
    assert code == 2 and "minor" in err


@pytest.mark.parametrize("field", ["Q", "Qi"])
@pytest.mark.parametrize("doc, entry", [
    ({"gram": [[None, 0], [0, 1]]}, "None"),
    ({"gram": [[1, 0], [0, 1]], "subspace": [[None, 1]]}, "None"),
    ({"gram": [[1, 0], [0, 1]], "subspace": [[1, 0]], "lines": [[{"a": 1}, 1]]}, "{'a': 1}"),
    ({"gram": [[True, 0], [0, 1]], "subspace": [[1, False]]}, "True"),
    ({"gram": [[1, 0], [0, 1]], "subspace": [[1, False]]}, "False"),
])
def test_hermitian_check_non_numeric_entry_is_an_input_error(capsys, tmp_path, field, doc, entry):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"field": field, **doc}))
    code, out, err = run(capsys, ["hermitian", "check", str(path)])
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error: ") and entry in err


def test_hermitian_fuzz_smoke(capsys):
    code, out, _ = run(
        capsys,
        ["hermitian", "fuzz", "--field", "Q", "--count", "10", "--format", "json"],
    )
    assert code == 0
    result = envelope_of(out)["result"]
    assert result["ok"] is True and result["instances"] == 10
    assert envelope_of(out)["command"] == "hermitian.fuzz"


def test_hermitian_fuzz_non_integer_dims_is_an_input_error(capsys):
    code, out, err = run(capsys, ["hermitian", "fuzz", "--field", "Q", "--dims", "a"])
    assert code == 2 and "--dims" in err and out == ""


def test_hermitian_fuzz_negative_count_is_an_input_error(capsys):
    code, out, err = run(capsys, ["hermitian", "fuzz", "--field", "Q", "--count", "-3"])
    assert code == 2 and "count" in err and out == ""


# ------------------------------------------------------------ no traceback


def _with(doc, path, value):
    """A copy of doc with the value at path, a list of keys and indices,
    replaced."""
    doc = copy.deepcopy(doc)
    reduce(getitem, path[:-1], doc)[path[-1]] = value
    return doc


MO2 = corpus.load("mo2")["payload"]
RATIONAL_DOC = {"field": "Q", "gram": [["1", "0"], ["0", "2"]], "subspace": [["1", "1"]]}
HERMITIAN = ["hermitian", "check"]
HUGE = 2**70

# each of these documents ended in a traceback before it was refused:
# case, command, document (JSON text if a string, none for a generator)
# and a part of the one error line
CRASH_SITES = [
    ("ortho-list", ["oml"], _with(MO2, ["ortho", "a"], ["b"]), "is unknown element ['b']"),
    ("ortho-object", ["lattice"], _with(MO2, ["ortho", "a"], {"b": "b'"}), "is unknown element {"),
    ("gram-true", HERMITIAN, _with(HERMITIAN_DOC, ["gram"], True), "gram must be a list of rows"),
    ("gram-zero", HERMITIAN, _with(HERMITIAN_DOC, ["gram"], 0), "gram must be a list of rows"),
    ("gram-row-null", HERMITIAN, _with(HERMITIAN_DOC, ["gram", 1], None), "each gram row must"),
    ("gram-row-number", HERMITIAN, _with(HERMITIAN_DOC, ["gram", 0], 7), "each gram row must"),
    ("subspace-number", HERMITIAN, _with(HERMITIAN_DOC, ["subspace"], 5), "subspace must be"),
    ("subspace-row-number", HERMITIAN, _with(HERMITIAN_DOC, ["subspace", 1], 2), "a vector must be"),
    ("lines-true", HERMITIAN, _with(HERMITIAN_DOC, ["lines"], True), "'lines' must be"),
    ("line-number", HERMITIAN, _with(HERMITIAN_DOC, ["lines", 0], 3), "a vector must be"),
    ("complete-graph-huge-n", ["corpus", "generate", "complete_graph", "--params", json.dumps({"n": HUGE})],
     None, f"take n <= 2048, got {HUGE}"),
    ("random-orthoset-huge-n", ["corpus", "generate", "random_orthoset", "--params", json.dumps({"n": HUGE})],
     None, f"take n <= 2048, got {HUGE}"),
    # json reads a number of 5,000 digits, or refuses it where int limits digits
    ("json-huge-number", ["check"], '{"elements": ' + "1" * 5000 + ', "orthogonal": []}', ""),
] + [
    (f"zero-denominator-{field}-{where}-{text}", HERMITIAN, _with(doc, [where, 0, 0], text),
     f"zero denominator in scalar {text!r}")
    for field, doc, texts in (("Q", RATIONAL_DOC, ("1/0", "0/0")),
                              ("Qi", HERMITIAN_DOC, ("1/0", "0/0", "1/0+i", "1+1/0i", "1/0i")))
    for text in texts for where in ("gram", "subspace")
] + ([
    # only where int limits the digits it reads from a string
    ("scalar-huge-digits", HERMITIAN, _with(RATIONAL_DOC, ["gram", 0, 0], "1" * 5000), "Exceeds the limit"),
] if hasattr(sys, "get_int_max_str_digits") else [])


@pytest.mark.parametrize("command, doc, text", [case[1:] for case in CRASH_SITES],
                         ids=[case[0] for case in CRASH_SITES])
def test_documents_that_crashed_are_refused(capsys, tmp_path, command, doc, text):
    argv = list(command)
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv.append(str(path))
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and text in err


# a string or an object where a Hermitian document has a list is refused,
# not read as its characters or keys: case, path, value and the message
GRAM, ROW, SUBSPACE, VECTOR, LINES = (
    "gram must be a list of rows", "each gram row must be a list of scalars",
    "subspace must be a list of vectors", "a vector must be a list of scalars",
    "'lines' must be a list of vectors")
LIST_SITES = [
    ("gram-string", ["gram"], "1", GRAM),
    ("gram-object", ["gram"], {"1": 0}, GRAM),
    ("gram-row-string", ["gram", 0], "100", ROW),
    ("gram-row-object", ["gram", 0], {"1": 0, "0": 0, "00": 0}, ROW),
    ("subspace-string", ["subspace"], "100", SUBSPACE),
    ("subspace-object", ["subspace"], {"100": 0, "010": 0}, SUBSPACE),
    ("vector-string", ["subspace", 0], "100", VECTOR),
    ("vector-object", ["subspace", 0], {"1": 0, "0": 0, "00": 0}, VECTOR),
    ("lines-string", ["lines"], "1", LINES),
    ("lines-object", ["lines"], {"111": 0}, LINES),
    ("line-string", ["lines", 0], "111", VECTOR),
    ("line-object", ["lines", 0], {"1": 0, "11": 0, "111": 0}, VECTOR),
]


@pytest.mark.parametrize("path, value, message", [case[1:] for case in LIST_SITES],
                         ids=[case[0] for case in LIST_SITES])
def test_hermitian_strings_and_objects_for_lists_are_refused(capsys, tmp_path, path, value, message):
    doc = tmp_path / "space.json"
    doc.write_text(json.dumps(_with(HERMITIAN_DOC, path, value)))
    assert run(capsys, ["hermitian", "check", str(doc)]) == (2, "", f"error: {message}\n")


def test_a_one_dimensional_document_of_strings_and_objects_is_refused(capsys, tmp_path):
    # read as characters and keys, it would be the gram [[1]] with the subspace {1}
    doc = tmp_path / "space.json"
    doc.write_text(json.dumps({"field": "Q", "gram": "1", "subspace": {"1": 0}, "lines": ["1"]}))
    assert run(capsys, ["hermitian", "check", str(doc)]) == (2, "", f"error: {GRAM}\n")


def test_a_failed_cross_check_exits_1(capsys, tmp_path, monkeypatch):
    # a route 2 that loses its line: one error line, nothing on stdout
    from orthokit import hermitian
    monkeypatch.setattr(hermitian, "intersect_subspaces", lambda a, b: hermitian.zero_subspace(b.space))
    path = tmp_path / "space.json"
    path.write_text(json.dumps(HERMITIAN_DOC))
    code, out, err = run(capsys, ["hermitian", "check", str(path)])
    assert (code, out) == (1, "")
    assert err == "error: cross-check failed: route 2 produced dimension 0, expected 1\n"

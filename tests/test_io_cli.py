import copy
import functools
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toposlsc import cli, fixtures, io, reports
from toposlsc.certificates import Certificate
from toposlsc.cli import main
from toposlsc.errors import InputFormatError, UnknownObject
from toposlsc.fincat import DEFAULT_BUDGET, FiniteCategory
from toposlsc.lsc import build_lsc
from toposlsc.reports import lsc_report, render_machine, words_report
from toposlsc.words import Alt, Concat, Dfa, EmptyLang, EmptyWord, Star, parse_regex, \
    regex_to_min_dfa
from tests.test_words import _regex_trees

ROOT = Path(__file__).resolve().parents[1]


# --- file formats ------------------------------------------------------------

def test_category_roundtrip(tmp_path):
    site = fixtures.graph_site()
    path = tmp_path / "graph.cat"
    path.write_text(json.dumps(io.dump_category(site)))
    loaded = io.load_category(path)
    assert loaded.signature() == site.signature()


def test_category_unknown_field_rejected(tmp_path):
    data = io.dump_category(fixtures.graph_site())
    data["comment"] = "nope"
    with pytest.raises(InputFormatError) as err:
        io.load_category(data)
    assert any("comment" in d for d in err.value.details)


def test_category_missing_field_rejected():
    with pytest.raises(InputFormatError):
        io.load_category({"objects": ["*"]})


def test_category_duplicate_composite_rejected():
    data = io.dump_category(fixtures.graph_site())
    data["composition"].append(dict(data["composition"][0]))
    with pytest.raises(InputFormatError) as err:
        io.load_category(data)
    assert "duplicate composition" in str(err.value)


def test_group_roundtrip(tmp_path):
    G = fixtures.dihedral_4()
    path = tmp_path / "d4.group"
    path.write_text(json.dumps(io.dump_group(G)))
    loaded = io.load_group(path)
    assert loaded.elements == G.elements
    assert all(loaded.mult(a, b) == G.mult(a, b)
               for a in G.elements for b in G.elements)


def test_group_unknown_field_rejected():
    data = io.dump_group(fixtures.cyclic_group(3))
    data["generators"] = ["1"]
    with pytest.raises(InputFormatError):
        io.load_group(data)


def test_dfa_roundtrip(tmp_path):
    d = regex_to_min_dfa("(ab)*", "ab")
    path = tmp_path / "abstar.dfa"
    path.write_text(json.dumps(io.dump_dfa(d)))
    assert io.load_dfa(path) == d


def test_dfa_partial_transition_table_rejected():
    data = io.dump_dfa(regex_to_min_dfa("a*", "ab"))
    data["transitions"] = data["transitions"][:-1]
    with pytest.raises(InputFormatError) as err:
        io.load_dfa(data)
    assert "not total" in str(err.value)


def test_dfa_duplicate_transition_rejected():
    data = io.dump_dfa(regex_to_min_dfa("a*", "ab"))
    data["transitions"].append(data["transitions"][0])
    with pytest.raises(InputFormatError):
        io.load_dfa(data)


def test_dfa_unknown_state_rejected():
    data = io.dump_dfa(regex_to_min_dfa("a*", "ab"))
    data["initial"] = "nowhere"
    with pytest.raises(InputFormatError):
        io.load_dfa(data)


def test_filter_selection_load():
    L = build_lsc(fixtures.graph_site())
    selection = io.load_filter_selection(L, {"E": [0, 1], "V": [0]})
    assert selection["E"] == set(L.elements("E"))
    with pytest.raises(InputFormatError):
        io.load_filter_selection(L, {"E": [99]})
    with pytest.raises(InputFormatError):
        io.load_filter_selection(L, {"W": [0]})


@pytest.mark.parametrize("data", [{"E": 3}, {"E": [True]}])
def test_library_loaders_reject_wrongly_typed_fields(data):
    L = build_lsc(fixtures.graph_site())
    with pytest.raises(InputFormatError):
        io.load_filter_selection(L, data)


def test_bad_json_reports_details(tmp_path):
    path = tmp_path / "broken.cat"
    path.write_text("{not json")
    with pytest.raises(InputFormatError):
        io.load_category(path)


# --- reports ---------------------------------------------------------------------

def test_lsc_report_shape():
    L = build_lsc(fixtures.graph_site())
    report = lsc_report(L)
    assert report["schema_version"] == 1
    assert report["payload"]["objects"] == ["V", "E"]
    assert len(report["payload"]["xi"]["E"]) == 2
    assert report["payload"]["normalization"]["E"] == [1, 1]  # both to the loop
    assert all(v["pass"] for v in report["verdicts"])


def test_words_report_is_byte_stable():
    d = regex_to_min_dfa("(ab)*", "ab")
    a = render_machine(words_report(d, source={"regex": "(ab)*"}))
    b = render_machine(words_report(d, source={"regex": "(ab)*"}))
    assert a == b
    parsed = json.loads(a)
    assert parsed["payload"]["nerode_index"] == 3
    assert parsed["payload"]["syntactic_monoid"]["order"] == 6
    assert parsed["payload"]["orbit_size"] == 3


# --- CLI ----------------------------------------------------------------------------

def test_cli_words_regex(capsys):
    code = main(["words", "--regex", "(ab)*", "--alphabet", "ab"])
    out = capsys.readouterr().out
    assert code == 0
    assert "nerode_index: 3" in out
    assert "order: 6" in out


def test_cli_words_requires_alphabet(capsys):
    code = main(["words", "--regex", "(ab)*"])
    assert code == 2


def test_cli_words_regex_over_the_empty_alphabet(capsys):
    # an empty --alphabet is given, not missing: '#e' over no letters passes
    code = main(["--format", "machine", "words", "--regex", "#e", "--alphabet", ""])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["payload"]["alphabet"] == []


def test_cli_words_dfa_rejects_an_empty_alphabet_that_does_not_match(capsys):
    path = str(ROOT / "demos" / "data" / "abstar.dfa")
    code = main(["words", "--dfa", path, "--alphabet", ""])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("malformed input: --alphabet '' does not match the DFA file's")


def test_cli_words_machine_format_is_json(capsys):
    code = main(["--format", "machine", "words", "--regex", "a*", "--alphabet", "ab"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["kind"] == "words"


def test_cli_global_flags_accepted_after_subcommand(capsys):
    code = main(["words", "--regex", "a*", "--alphabet", "ab",
                 "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["kind"] == "words"


def test_cli_words_determinism(capsys):
    main(["--format", "machine", "words", "--regex", "(a|b)*a", "--alphabet", "ab"])
    first = capsys.readouterr().out
    main(["--format", "machine", "words", "--regex", "(a|b)*a", "--alphabet", "ab"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_group_report(tmp_path, capsys):
    path = tmp_path / "d4.group"
    path.write_text(json.dumps(io.dump_group(fixtures.dihedral_4())))
    code = main(["group", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "{e,τ}" in out  # pretty names from the file's `names` map
    assert "dedekind: False" in out


def test_cli_group_report_contains_the_tau_arrow(tmp_path, capsys):
    path = tmp_path / "d4.group"
    path.write_text(json.dumps(io.dump_group(fixtures.dihedral_4())))
    assert main(["--format", "machine", "group", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    payload = report["payload"]
    assert len(payload["subgroups"]) == 10
    assert ["{e,τ}", "{e,σ²,τ,σ²τ}"] in payload["normalization_arrows"]
    assert all(v["pass"] for v in report["verdicts"])


def test_group_names_field_roundtrip_and_validation(tmp_path):
    data = io.dump_group(fixtures.dihedral_4())
    assert data["names"]["t"] == "τ"
    loaded = io.load_group(data)
    assert loaded.display["s2"] == "σ²"
    data["names"]["zz"] = "nope"
    with pytest.raises(InputFormatError):
        io.load_group(data)


def test_cli_boolean_group_table_entry_exits_2(tmp_path, capsys):
    data = io.dump_group(fixtures.dihedral_4())
    row = next(r for r in data["table"] if 1 in r)
    row[row.index(1)] = True  # isinstance(True, int) holds, but no index is a boolean
    path = tmp_path / "d4.group"
    path.write_text(json.dumps(data))
    assert main(["group", str(path)]) == 2
    assert "malformed input" in capsys.readouterr().err


def test_cli_non_associative_group_table_exits_2(tmp_path, capsys):
    # an order-5 loop: e is a unit and every element is its own unique
    # inverse, so only the site's associativity check can reject it
    data = {"elements": ["e", "a", "b", "c", "d"],
            "table": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                      [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]}
    path = tmp_path / "loop5.group"
    path.write_text(json.dumps(data))
    assert main(["group", str(path)]) == 2
    assert "(a,a,b)" in capsys.readouterr().err


def test_cli_duplicate_names_exit_2(tmp_path, capsys):
    group = tmp_path / "dup.group"
    group.write_text(json.dumps({"elements": ["e", "e"], "table": [[0, 1], [1, 0]]}))
    dfa = tmp_path / "dup.dfa"
    dfa.write_text(json.dumps({"alphabet": ["a", "a"], "states": [0], "initial": 0,
                               "accepting": [0], "transitions": [[0, "a", 0]]}))
    for argv in (["group", str(group)], ["words", "--dfa", str(dfa)]):
        assert main(argv) == 2
        assert "duplicate" in capsys.readouterr().err


@pytest.mark.parametrize("states, initial, accepting", [
    ([0, 1], True, [1]),
    (["p", 1], "p", [True]),
], ids=["initial", "accepting"])
def test_cli_boolean_dfa_state_exits_2(tmp_path, capsys, states, initial, accepting):
    # isinstance(True, int) holds, but no state is named by a boolean
    data = {"alphabet": "a", "states": states, "initial": initial, "accepting": accepting,
            "transitions": [[states[0], "a", 1], [1, "a", 1]]}
    path = tmp_path / "bool.dfa"
    path.write_text(json.dumps(data))
    assert main(["words", "--dfa", str(path)]) == 2
    assert "malformed input" in capsys.readouterr().err


@pytest.mark.parametrize("alphabet", [[0, 1], ["ab"]], ids=["integers", "two-characters"])
def test_cli_dfa_symbol_that_is_no_character_exits_2(tmp_path, capsys, alphabet):
    # the loader holds symbols to the rule Dfa enforces: one-character strings
    data = {"alphabet": alphabet, "states": [0], "initial": 0, "accepting": [0],
            "transitions": [[0, a, 0] for a in alphabet]}
    path = tmp_path / "symbols.dfa"
    path.write_text(json.dumps(data))
    assert main(["words", "--dfa", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("malformed input:") and repr(alphabet[0]) in err


def test_cli_lsc_report(tmp_path, capsys):
    path = tmp_path / "graph.cat"
    path.write_text(json.dumps(io.dump_category(fixtures.graph_site())))
    code = main(["lsc", str(path)])
    assert code == 0
    assert "xi" in capsys.readouterr().out


def test_cli_missing_file_exits_2(capsys):
    assert main(["lsc", "definitely-not-a-file"]) == 2
    assert "malformed input" in capsys.readouterr().err


def test_cli_invalid_category_exits_2(tmp_path, capsys):
    data = io.dump_category(fixtures.graph_site())
    del data["composition"][0]
    path = tmp_path / "broken.cat"
    path.write_text(json.dumps(data))
    assert main(["lsc", str(path)]) == 2


def test_identity_keyed_by_a_non_object_exits_2(tmp_path, capsys):
    with pytest.raises(UnknownObject):
        FiniteCategory(["V"], [("i", "V", "V")], {"V": "i", "W": "i"}, {("i", "i"): "i"})
    data = io.dump_category(fixtures.graph_site())
    data["identities"]["X"] = "id_V"
    path = tmp_path / "stray.cat"
    path.write_text(json.dumps(data))
    assert main(["lsc", str(path)]) == 2
    captured = capsys.readouterr()
    assert "UnknownObject" in captured.err and captured.out == ""


def _renamed(data, old, new):
    """The category file with the object or morphism ``old`` named ``new``."""
    def rename(x):
        return new if x == old else x
    data["objects"] = [rename(c) for c in data["objects"]]
    data["identities"] = {rename(c): rename(i) for c, i in data["identities"].items()}
    for entry in data["morphisms"] + data["composition"]:
        entry.update({k: rename(v) for k, v in entry.items()})
    return data


@pytest.mark.parametrize("old,new", [("V", 7), ("s", 5)], ids=["object", "morphism"])
def test_cli_integer_category_name_exits_2(tmp_path, capsys, old, new):
    # identities keys are JSON strings, so an integer name could never validate
    path = tmp_path / "int.cat"
    path.write_text(json.dumps(_renamed(io.dump_category(fixtures.graph_site()), old, new)))
    assert main(["lsc", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == ("malformed input: category objects and morphisms must be named "
                   f"by strings, not {new}\n")


def test_cli_budget_exits_3(tmp_path, capsys):
    path = tmp_path / "d4.group"
    path.write_text(json.dumps(io.dump_group(fixtures.dihedral_4())))
    assert main(["--budget", "3", "group", str(path)]) == 3


def test_cli_budget_env_variable(tmp_path, capsys, monkeypatch):
    path = tmp_path / "d4.group"
    path.write_text(json.dumps(io.dump_group(fixtures.dihedral_4())))
    monkeypatch.setenv("TOPOS_LSC_BUDGET", "3")
    assert main(["group", str(path)]) == 3
    monkeypatch.setenv("TOPOS_LSC_BUDGET", "5000")
    assert main(["group", str(path)]) == 0


def _full_transformation_dfa(n):
    """States 0..n-1 over abc: a cycles them, b swaps 0 and 1, c sends 0 to
    1; 0 is initial and the only accepting state.  Its letters generate all
    n**n maps, so its transition monoid has n**n elements."""
    delta = [[(s + 1) % n, {0: 1, 1: 0}.get(s, s), 1 if s == 0 else s] for s in range(n)]
    return io.dump_dfa(Dfa("abc", n, 0, {0}, delta))


def _budget_message(stage, cap):
    return f"budget exceeded: {stage} has size {cap + 1}, exceeding the budget {cap}\n"


@pytest.mark.parametrize("source,stage", [
    ("t7", "transition monoid"),  # 7**7 elements
    ("(a|b)*a" + "(a|b)" * 9, "subset construction"),  # 1024 subsets
])
def test_cli_words_budget_exits_3(tmp_path, capsys, monkeypatch, source, stage):
    monkeypatch.delenv("TOPOS_LSC_BUDGET", raising=False)
    if source == "t7":
        path = tmp_path / "t7.dfa"
        path.write_text(json.dumps(_full_transformation_dfa(7)))
        argv = ["--dfa", str(path)]
    else:
        argv = ["--regex", source, "--alphabet", "ab"]
    assert main(["--budget", "10", "words", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _budget_message(stage, cli.WORDS_SCALE * 10)


def test_cli_verify_words_fixtures_are_under_the_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("TOPOS_LSC_BUDGET", raising=False)
    (tmp_path / "t7.dfa").write_text(json.dumps(_full_transformation_dfa(7)))
    argv = ["--budget", "10", "verify", "--suite", "words", "--fixtures", str(tmp_path)]
    assert main(argv) == 3
    assert capsys.readouterr().err == _budget_message("transition monoid", cli.WORDS_SCALE * 10)


def test_cli_words_default_budget_stops_a_monoid_too_large_for_memory(tmp_path):
    # T8's 8**8 elements do not fit in the address-space limit, so a run
    # that ignored the budget would end in a MemoryError (exit 4), not 3
    path = tmp_path / "t8.dfa"
    path.write_text(json.dumps(_full_transformation_dfa(8)))
    env = {k: v for k, v in os.environ.items() if k != "TOPOS_LSC_BUDGET"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def cap_address_space():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (1024 ** 3, hard))

    result = subprocess.run([sys.executable, "-m", "toposlsc.cli", "words", "--dfa", str(path)],
                            env=env, capture_output=True, text=True, timeout=300,
                            preexec_fn=cap_address_space)
    assert (result.returncode, result.stdout) == (3, ""), result.stderr
    assert result.stderr == _budget_message("transition monoid",
                                            cli.WORDS_SCALE * DEFAULT_BUDGET)


def test_cli_verify_filters_suite(capsys):
    assert main(["verify", "--suite", "filters"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_cli_verify_with_corrupted_fixture_exits_2(tmp_path, capsys):
    (tmp_path / "bad.dfa").write_text("{broken")
    assert main(["verify", "--suite", "words", "--fixtures", str(tmp_path)]) == 2


def test_cli_verify_with_lawbreaking_category_fixture_exits_2(tmp_path, capsys):
    data = io.dump_category(fixtures.graph_site())
    for entry in data["composition"]:
        if entry["g"] == "id_E" and entry["f"] == "s":
            entry["result"] = "t"  # breaks the identity law
    (tmp_path / "broken.cat").write_text(json.dumps(data))
    assert main(["verify", "--suite", "lsc", "--fixtures", str(tmp_path)]) == 2
    assert "IdentityViolation" in capsys.readouterr().err


def test_cli_verify_with_good_fixture(tmp_path, capsys):
    d = regex_to_min_dfa("a*b*", "ab")
    (tmp_path / "good.dfa").write_text(json.dumps(io.dump_dfa(d)))
    (tmp_path / "extra.regex").write_text(
        json.dumps({"regex": "(aa)*", "alphabet": "ab"}))
    assert main(["verify", "--suite", "words", "--fixtures", str(tmp_path)]) == 0
    assert "good.dfa" in capsys.readouterr().out


@pytest.mark.parametrize("alphabet,frozen", [("abc", False), (["a", "b"], True)])
def test_cli_verify_holds_frozen_regex_facts_to_their_alphabet(tmp_path, capsys,
                                                               alphabet, frozen):
    # over abc the letter c needs a sink: (a|b)*a has 3 states and a syntactic
    # monoid of order 4 there, not the 2 and 3 frozen for it over ab
    (tmp_path / "ends.regex").write_text(
        json.dumps({"regex": "(a|b)*a", "alphabet": alphabet}))
    assert main(["verify", "--suite", "words", "--fixtures", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("(a|b)*a: frozen minimal-state count 2") == 1 + frozen


def test_cli_no_command_prints_help(capsys):
    assert main([]) == 2


def _wrongly_typed(kind, field, value):
    data = {"cat": lambda: io.dump_category(fixtures.graph_site()),
            "group": lambda: io.dump_group(fixtures.dihedral_4()),
            "dfa": lambda: io.dump_dfa(regex_to_min_dfa("(ab)*", "ab")),
            "regex": lambda: {"regex": "(ab)*", "alphabet": "ab"}}[kind]()
    data[field] = value
    return data


@pytest.mark.parametrize("kind,field,value", [
    ("cat", "objects", "VE"),
    ("cat", "morphisms", 3),
    ("cat", "identities", ["x"]),
    ("cat", "composition", {"g": "s"}),
    ("group", "names", 5),
    ("group", "table", [1, 2]),
    ("dfa", "states", 3),
    ("dfa", "accepting", "q0"),
    ("dfa", "transitions", None),
    ("dfa", "alphabet", 5),
    ("dfa", "initial", ["q0"]),
    ("regex", "regex", 5),
    ("regex", "alphabet", 7),
])
def test_cli_wrongly_typed_field_exits_2(tmp_path, capsys, kind, field, value):
    path = tmp_path / f"input.{kind}"
    path.write_text(json.dumps(_wrongly_typed(kind, field, value)))
    command = {"cat": ["lsc", str(path)], "group": ["group", str(path)],
               "dfa": ["words", "--dfa", str(path)],
               "regex": ["verify", "--suite", "words", "--fixtures", str(tmp_path)]}[kind]
    assert main(command) == 2
    assert "malformed input" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_cli_budget_below_one_exits_2(tmp_path, capsys, monkeypatch, budget):
    path = tmp_path / "d4.group"
    path.write_text(json.dumps(io.dump_group(fixtures.dihedral_4())))
    assert main(["--budget", budget, "group", str(path)]) == 2
    assert "below 1" in capsys.readouterr().err
    monkeypatch.setenv("TOPOS_LSC_BUDGET", budget)
    assert main(["group", str(path)]) == 2
    assert "below 1" in capsys.readouterr().err


def test_cli_long_flat_regex_compiles(capsys):
    assert main(["words", "--regex", "a*" * 1500, "--alphabet", "ab"]) == 0


def test_cli_deeply_nested_regex_exits_2(capsys):
    regex = "(" * 1200 + "a" + ")" * 1200
    assert main(["words", "--regex", regex, "--alphabet", "a"]) == 2
    assert "nested deeper" in capsys.readouterr().err


# sha256 of `--format machine` reports on demos/data, run from the repository
# root with relative paths (the words payload records the path it was given)
DEMO_REPORT_DIGESTS = {
    ("lsc", "chain3.cat"): "51a5a0b692181cf1233cdd007b2a76292bf7d82e6cba7fe0b6869b4771907f18",
    ("lsc", "graph.cat"): "db75c0c0e365d48ace0e5d157ca71f2b59d0af0e941c2bb43aee8b28fd9300d1",
    ("lsc", "idempotent.cat"): "750d3d7260705f7422fda1cd289ec3face3947bb0f128364da2320e8c7e7afa9",
    ("group", "d4.group"): "64ed7ac02b058dd3dc07e195e33e1dbe11e3d55e92556d645185b8dfc6258b0e",
    ("group", "q8.group"): "8d9ab3d972617a2d3c03d4680b9135ab6cf79bd5a21cd6f2d28df910c27d2aed",
    ("group", "s3.group"): "2da75423cdd3c0f20b5f6c9bc6344066bf870f612a88be3ae8089024d348bd3c",
    ("group", "z4.group"): "da30075e64b2fef0679f4de7c5149fea4722889d595c69edd2562fc8a7bd4ab3",
    ("words", "abstar.dfa"): "a38fe9eb994e5e0537fbb25711140353cdfeb1b77dd8db153c8f54a6beff6101",
    ("words", "ends_in_a.dfa"): "034ee4aa71a0cb401aae714615de7b4eb8350178107ab8870568c96c3198c47b",
}


def test_demo_report_digests_cover_demos_data():
    suffixes = {".cat": "lsc", ".group": "group", ".dfa": "words"}
    files = {(suffixes[p.suffix], p.name) for p in (ROOT / "demos" / "data").iterdir()
             if p.suffix in suffixes}
    assert files == set(DEMO_REPORT_DIGESTS)


@pytest.mark.parametrize("command,name", sorted(DEMO_REPORT_DIGESTS))
def test_cli_machine_report_on_demo_data_is_pinned(capsys, monkeypatch, command, name):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("TOPOS_LSC_BUDGET", raising=False)
    path = f"demos/data/{name}"
    argv = ["words", "--dfa", path] if command == "words" else [command, path]
    assert main(["--format", "machine", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DEMO_REPORT_DIGESTS[command, name]


# sha256 of the `--format machine` words reports on the regex of 1500 a's,
# pinned when its residual oracle took seconds; now it takes well under one
LONG_CHAIN_REPORT_DIGESTS = {
    "a": "4e52dd943fb46a66d741f023d45a310b177a74e8f00cb18eafb3624e0afb7d3f",
    "ab": "a226e40af971ba4c043d23bcecd0c0dd28747fa243465148a7e15d72a27c0fec",
}


@pytest.mark.parametrize("alphabet", sorted(LONG_CHAIN_REPORT_DIGESTS))
def test_cli_machine_report_on_a_1500_letter_chain_is_pinned(capsys, alphabet):
    argv = ["words", "--regex", "a" * 1500, "--alphabet", alphabet, "--format", "machine"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LONG_CHAIN_REPORT_DIGESTS[alphabet]


def test_cli_internal_error_exits_4_without_traceback(capsys, monkeypatch):
    # exit 1 means a failed verdict and nothing else, so a defect gets its own code
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "regex_to_min_dfa", broken)
    assert main(["words", "--regex", "a", "--alphabet", "a"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"


EXIT_RULE_ARGV = {"lsc": ["lsc", "demos/data/graph.cat"],
                  "group": ["group", "demos/data/s3.group"],
                  "words": ["words", "--dfa", "demos/data/ends_in_a.dfa"],
                  "verify": ["verify", "--suite", "lsc"]}


@pytest.mark.parametrize("command", sorted(EXIT_RULE_ARGV))
def test_cli_one_failing_verdict_prints_the_report_and_exits_1(capsys, monkeypatch, command):
    # every command has the one exit rule: 1 exactly when a verdict failed
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("TOPOS_LSC_BUDGET", raising=False)
    failing = {"check": "forced", "pass": False, "witness": "w"}
    if command == "verify":
        cert = Certificate("lsc")
        cert.record("forced", False, "w")
        monkeypatch.setattr(cli, "run_suite", lambda *args: cert)
    else:
        build = getattr(reports, f"{command}_report")

        def with_a_failure(*args, **kwargs):
            report = build(*args, **kwargs)
            report["verdicts"].append(failing)
            return report

        monkeypatch.setattr(reports, f"{command}_report", with_a_failure)
    assert main(["--format", "machine", *EXIT_RULE_ARGV[command]]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    verdicts = json.loads(captured.out)["verdicts"]
    assert [v for v in verdicts if not v["pass"]] == [failing]


# --- the exit-code contract under fuzzed argv and files ----------------------------

DATA = ROOT / "demos" / "data"
_BASE_FILES = {"cat": ["chain3.cat", "graph.cat", "idempotent.cat"],
               "group": ["z4.group", "s3.group"],
               "dfa": ["abstar.dfa", "ends_in_a.dfa"]}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.text("abq0s", max_size=3),
    lambda sub: st.lists(sub, max_size=3) | st.dictionaries(st.text("ab", max_size=2), sub,
                                                            max_size=2),
    max_leaves=5)


def _paths(doc, path=()):
    """Every position in a JSON document, the root first."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    return [path] + [p for key, value in items for p in _paths(value, path + (key,))]


@st.composite
def _file_text(draw, kind):
    """A bundled file of the kind, kept, or with one position replaced (by a
    value found elsewhere in it or by any JSON value), dropped or added, or
    truncated, or replaced by text."""
    doc = json.loads((DATA / draw(st.sampled_from(_BASE_FILES[kind]))).read_text())
    how = draw(st.sampled_from(["keep", "replace", "replace", "drop", "add", "truncate",
                                "text"]))
    if how == "text":
        return draw(st.text(max_size=12))
    if how in ("replace", "drop"):
        *where, last = draw(st.sampled_from(_paths(doc)[1:]))
        parent = doc
        for key in where:
            parent = parent[key]
        if how == "drop":
            del parent[last]
        else:
            found = [p for p in _paths(doc) if p]
            elsewhere = st.sampled_from(found).map(
                lambda p: copy.deepcopy(functools.reduce(lambda d, k: d[k], p, doc)))
            parent[last] = draw(elsewhere | _JSON_VALUES)
    if how == "add":
        doc[draw(st.sampled_from(["x", "names", "table", "states"]))] = draw(_JSON_VALUES)
    text = json.dumps(doc)
    return text[:draw(st.integers(0, len(text) - 1))] if how == "truncate" else text


def _regex_source(node):
    """Regex source with every binary node in parentheses: it parses back to
    the same tree."""
    if isinstance(node, Star):
        return _regex_source(node.inner) + "*"
    if isinstance(node, (Concat, Alt)):
        middle = "|" if isinstance(node, Alt) else ""
        return f"({_regex_source(node.left)}{middle}{_regex_source(node.right)})"
    return {EmptyLang: "#0", EmptyWord: "#e"}.get(type(node)) or node.ch


@st.composite
def _argv(draw, folder):
    """Returns (argv, well_formed): a well-formed command must exit 0."""
    def written(kind, name):
        path = folder / name
        path.write_text(draw(_file_text(kind)))
        return str(path)

    command = draw(st.sampled_from(["lsc", "group", "dfa", "regex", "tree", "verify",
                                    "tokens"]))
    if command == "lsc":
        argv = ["lsc", written("cat", "input.cat")]
    elif command == "group":
        argv = ["group", written("group", "input.group")]
    elif command == "dfa":
        argv = ["words", "--dfa", written("dfa", "input.dfa")]
        argv += draw(st.sampled_from([[], ["--alphabet", "ab"], ["--alphabet", "ba"]]))
    elif command == "regex":
        argv = ["words", "--regex", draw(st.text("ab()|*#e0c", min_size=1, max_size=8))]
        argv += draw(st.sampled_from([[], ["--alphabet", "ab"], ["--alphabet", "abc"],
                                      ["--alphabet", "aa"], ["--alphabet", "a*"]]))
    elif command == "tree":
        alphabet = draw(st.sampled_from(["ab", "abc"]))
        tree = draw(_regex_trees(alphabet))
        source = _regex_source(tree)
        assert parse_regex(source, alphabet) == tree
        argv = ["words", "--regex", source, "--alphabet", alphabet]
    elif command == "verify":
        (folder / "fixtures").mkdir()
        written("cat", "fixtures/input.cat")
        argv = ["verify", "--suite", draw(st.sampled_from(["filters", "everything"])),
                "--fixtures", str(folder / draw(st.sampled_from(["fixtures", "missing"])))]
    else:
        argv = draw(st.lists(st.sampled_from(
            ["lsc", "group", "words", "--regex", "--dfa", "--alphabet", "--suite", "ab",
             "(ab)*", "a(", str(DATA / "z4.group"), "--frobnicate", "--help"]), max_size=5))
    choices = [["--format", "machine"], ["--format", "human"], ["--budget", "5000"]]
    if command != "tree":  # a generated regex keeps to flags that cannot fail
        choices = (choices + [["--budget", "3"]]) * 3 + [
            ["--format", "xml"], ["--budget", "0"], ["--budget", "many"], ["--budget"]]
    flags = draw(st.lists(st.sampled_from(choices), max_size=2))
    flags = [token for flag in flags for token in flag]
    return (flags + argv if draw(st.booleans()) else argv + flags), command == "tree"


def _has_failed_verdict(out):
    if out.startswith("{"):
        return any(not v["pass"] for v in json.loads(out)["verdicts"])
    return any(line.lstrip().startswith("FAIL ") for line in out.splitlines())


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_fuzz_keeps_the_exit_code_contract(monkeypatch, data):
    monkeypatch.delenv("TOPOS_LSC_BUDGET", raising=False)
    out, err = StringIO(), StringIO()
    with tempfile.TemporaryDirectory() as folder:
        argv, well_formed = data.draw(_argv(Path(folder)), label="argv")
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: 2 on a usage error, 0 after --help
                code = exc.code
    assert code in (0, 1, 2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert (code == 1) == _has_failed_verdict(out.getvalue()), (argv, code)
    assert code == 0 or not well_formed, (argv, code, err.getvalue())

"""CLI golden tests: every verb, canonical byte-stable JSON, exit codes."""
import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from measpace import SigmaAlgebra
from measpace.cli import run
from measpace.jsonio import canonical_dumps, space_to_obj

from support import random_space, spaces_and_subsets_up_to, thick_witness_oracle

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"


def fx(name: str) -> str:
    return str(FIXTURES / name)


CASES = [
    ("generate", ["generate", "--space", fx("generators.json")], 0),
    ("atoms", ["atoms", "--space", fx("space1.json")], 0),
    ("measure", ["measure", "--space", fx("space1.json"), "--set", '["b","c"]'], 0),
    ("inner", ["inner", "--space", fx("space1.json"), "--set", '["a","b"]'], 0),
    ("outer", ["outer", "--space", fx("space1.json"), "--set", '["b"]'], 0),
    ("thick", ["thick", "--space", fx("big_y.json"), "--set", '["a"]'], 0),
    ("thick_false", ["thick", "--space", fx("space1.json"), "--set", '["a"]'], 1),
    ("ultrafilters", ["ultrafilters", "--space", fx("space1.json")], 0),
    ("classify-family", ["classify-family", "--space", fx("family_abc.json")], 0),
    ("extend-uf", ["extend-uf", "--space", fx("base_ab.json")], 0),
    ("uf-to-measure", ["uf-to-measure", "--space", fx("uf_b.json")], 0),
    ("measure-to-uf", ["measure-to-uf", "--space", fx("m01.json")], 0),
    (
        "check-embed",
        ["check-embed", "--small", fx("small_x.json"), "--big", fx("big_y.json")],
        0,
    ),
    (
        "check-embed_false",
        ["check-embed", "--small", fx("small_x.json"), "--big", fx("big_bad.json")],
        1,
    ),
    ("decompose", ["decompose", "--big", fx("big_split.json"), "--set", '["a"]'], 0),
    ("construct", ["construct", "--kit", fx("kit_identity.json")], 0),
    ("construct_fiber", ["construct", "--kit", fx("kit_fiber.json")], 0),
    ("construct_pasted", ["construct", "--kit", fx("kit_pasted.json")], 0),
    ("validate-kit", ["validate-kit", "--kit", fx("kit_identity.json")], 0),
    ("validate-kit_false", ["validate-kit", "--kit", fx("kit_bad.json")], 1),
    (
        "enumerate-extensions",
        ["enumerate-extensions", "--space", fx("small_x.json"), "--extra", "p,q"],
        0,
    ),
    (
        "classify-points",
        ["classify-points", "--big", fx("big_split.json"), "--set", '["a"]'],
        0,
    ),
    ("product", ["product", "--small", fx("left.json"), "--big", fx("right.json")], 0),
    (
        "section",
        ["section", "--space", fx("product.json"), "--set", '["(a|1)","(b|1)"]', "--point", "1"],
        0,
    ),
    (
        "lift-uf",
        ["lift-uf", "--space", fx("left_uf.json"), "--big", fx("right.json"), "--point", "1"],
        0,
    ),
    ("project-uf", ["project-uf", "--space", fx("product_uf.json")], 0),
]


@pytest.mark.parametrize("name,argv,expected_code", CASES, ids=[c[0] for c in CASES])
def test_verb_golden_and_byte_stable(name, argv, expected_code, capsys):
    golden = (GOLDEN / f"{name}.json").read_text()

    code = run(argv)
    first = capsys.readouterr().out
    assert code == expected_code
    assert first == golden

    code2 = run(argv)
    second = capsys.readouterr().out
    assert code2 == expected_code and second == first

    # emitted JSON re-parses to an identical value, byte-identically
    assert canonical_dumps(json.loads(first)) == first


def test_every_verb_is_covered():
    from measpace.cli import _VERBS

    exercised = {argv[0] for _, argv, _ in CASES}
    assert exercised == set(_VERBS)


def test_out_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = run(["measure", "--space", fx("space1.json"), "--set", '["b","c"]', "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == (GOLDEN / "measure.json").read_text()


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(Path(fx("space1.json")).read_text()))
    code = run(["atoms", "--space", "-"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "atoms.json").read_text()


def _thick_answer(ms, x, capsys, monkeypatch):
    """The thick verb's exit code and output for ``x`` in ``ms``, read from stdin."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(space_to_obj(ms))))
    code = run(["thick", "--space", "-", "--set", json.dumps(list(x.labels()))])
    return code, json.loads(capsys.readouterr().out)


def _expected_thick_answer(witness):
    if witness is None:
        return 0, {"ok": True}
    return 1, {"ok": False, "witness": list(witness.labels())}


def test_thick_witness_matches_the_scan_oracle(capsys, monkeypatch):
    # every set in every space up to 4 points with values in {0, 1, inf}:
    # the verb names the oracle's witness, or answers ok when there is
    # none, and never lists the measurable sets; the oracle lists them,
    # so it runs before the patch
    cases = [(ms, x, thick_witness_oracle(ms, x)) for ms, x in spaces_and_subsets_up_to(4)]

    def refuse(*args, **kwargs):
        raise AssertionError("the thick verb walked an algebra")

    monkeypatch.setattr(SigmaAlgebra, "sets", refuse)
    refused = 0
    for ms, x, witness in cases:
        assert _thick_answer(ms, x, capsys, monkeypatch) == _expected_thick_answer(witness)
        refused += witness is not None
    assert refused > 1000 and len(cases) - refused > 1000


def test_thick_witness_matches_the_scan_oracle_at_9_to_12_points(capsys, monkeypatch):
    rng = random.Random(24)
    refused = 0
    for n in (9, 10, 11, 12) * 10:
        ms = random_space(rng, [f"p{i}" for i in range(n)])
        x = ms.ground.mask(label for label in ms.ground.labels if rng.random() < 0.7)
        witness = thick_witness_oracle(ms, x)
        assert _thick_answer(ms, x, capsys, monkeypatch) == _expected_thick_answer(witness)
        refused += witness is not None
    assert 0 < refused < 40


def test_error_objects(capsys, tmp_path):
    code = run(["measure", "--space", fx("space1.json"), "--set", '["b"]'])
    out = capsys.readouterr().out
    assert code == 2
    assert out == (GOLDEN / "error_case.json").read_text()

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code = run(["atoms", "--space", str(bad)])
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert err["code"] == "bad-input" and err["path"] == str(bad)

    code = run(["atoms", "--space", str(tmp_path / "missing.json")])
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 2 and err["code"] == "bad-input"

    code = run(["no-such-verb"])
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 2 and err["code"] == "bad-input"

    code = run(["measure", "--space", fx("space1.json"), "--set", "not json"])
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 2 and err["code"] == "bad-input"

    code = run(["measure", "--space", fx("space1.json"), "--set", "[" * 100000])
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 2 and err["code"] == "bad-input"

    code = run(["measure", "--space", fx("space1.json"), "--set", "[" + "1" * 5000 + "]"])
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 2 and err["code"] == "bad-input"

    # an --out path that cannot be written is named in the error object
    out = str(tmp_path / "no-such-dir" / "x.json")
    code = run(["atoms", "--space", fx("space1.json"), "--out", out])
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 2 and err["code"] == "bad-input" and err["path"] == out

    # input that is not UTF-8, and JSON nested past the parser's limit
    for name, data in (("latin.json", b"\xff\xfe{}"), ("deep.json", b"[" * 100000)):
        path = tmp_path / name
        path.write_bytes(data)
        code = run(["atoms", "--space", str(path)])
        err = json.loads(capsys.readouterr().out)["error"]
        assert code == 2 and err["code"] == "bad-input" and err["path"] == str(path)

    # a non-list stored kernel, and two kit keys naming one set
    uf = json.loads(Path(fx("uf_b.json")).read_text())
    bad_kernel = tmp_path / "uf_kernel.json"
    bad_kernel.write_text(json.dumps({**uf, "kernel": 5}))
    kit = json.loads(Path(fx("kit_identity.json")).read_text())
    kit["base"] = {"points": ["a", "b"], "atoms": [["a"], ["b"]], "values": ["1", "1"]}
    kit["dfamily"] = {"": [[]], "a": [[]], "b": [[]], "a,b": [[]], "b,a": [[]]}
    twice = tmp_path / "kit_twice.json"
    twice.write_text(json.dumps(kit))
    for argv in (
        ["uf-to-measure", "--space", str(bad_kernel)],
        ["validate-kit", "--kit", str(twice)],
    ):
        code = run(argv)
        err = json.loads(capsys.readouterr().out)["error"]
        assert code == 2 and err["code"] == "bad-input" and err["path"] == argv[2]

    # input errors of the two verbs that parse their own input name the file
    for name, verb, raw, message in (
        ("dup.json", "generate", {"points": ["a", "a"]}, "duplicate point label 'a'"),
        (
            "unknown.json",
            "generate",
            {"points": ["a"], "generators": [["b"]]},
            "unknown point label 'b'",
        ),
        ("gen_list.json", "generate", [], "generate input must be a JSON object"),
        ("proj_list.json", "project-uf", [], "project-uf input must be a JSON object"),
    ):
        path = tmp_path / name
        path.write_text(json.dumps(raw))
        code = run([verb, "--space", str(path)])
        err = json.loads(capsys.readouterr().out)["error"]
        assert code == 2
        assert err == {"code": "bad-input", "message": message, "path": str(path)}

    # a fiber label that no ground set can hold is refused on load, by both
    # kit verbs, with the kit's path
    kit = json.loads(Path(fx("kit_fiber.json")).read_text())
    for label, message in (
        ("", "point labels must be nonempty strings, got ''"),
        ("p,q", "point label 'p,q' may not contain ','"),
    ):
        path = tmp_path / "kit_label.json"
        path.write_text(json.dumps({**kit, "fibers": {"a": [label]}}))
        for verb in ("validate-kit", "construct"):
            code = run([verb, "--kit", str(path)])
            err = json.loads(capsys.readouterr().out)["error"]
            assert code == 2
            assert err == {"code": "bad-input", "message": message, "path": str(path)}

    # numbers too long to parse, build or print: a JSON integer past the
    # interpreter's 4300-digit conversion cap, exponents past that cap,
    # and a product of two 3000-digit values; and a value with a PEP 515
    # underscore or non-ASCII digits, which is not a decimal or fraction
    # string on any version
    point = {"points": ["a"], "atoms": [["a"]]}
    huge_int = tmp_path / "huge_int.json"
    huge_int.write_text(json.dumps(point)[:-1] + ', "values": [' + "1" * 5000 + "]}")
    inputs = [huge_int]
    for name, value in (
        ("exp.json", "1e400000"),
        ("negexp.json", "1e-400000"),
        ("underscore.json", "1_000"),
        ("arabic_indic.json", "١٢"),
        ("arabic_indic_fraction.json", "١/٣"),
        ("full_width.json", "１"),
    ):
        path = tmp_path / name
        path.write_text(json.dumps({**point, "values": [value]}))
        inputs.append(path)
    for path in inputs:
        code = run(["atoms", "--space", str(path)])
        out, stderr = capsys.readouterr()
        err = json.loads(out)["error"]
        assert code == 2 and err["code"] == "bad-input" and err["path"] == str(path)
        assert stderr == ""
    left, right = tmp_path / "long_left.json", tmp_path / "long_right.json"
    left.write_text(json.dumps({**point, "values": ["7" * 3000]}))
    right.write_text(json.dumps({"points": ["1"], "atoms": [["1"]], "values": ["3" * 3000]}))
    code = run(["product", "--small", str(left), "--big", str(right)])
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 2 and err["code"] == "bad-input"


# (case, argv index) for every fixture file a CASES entry reads
FIXTURE_ARGS = [
    (case, i)
    for case in CASES
    for i, arg in enumerate(case[1])
    if arg.startswith(str(FIXTURES))
]

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 10**6),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(["inf", "-1", "1/0", "0.5", "", "a", ",", "a,b", "(a|1)"]),
    st.lists(st.sampled_from(["a", "b", "c", "p", "z", "1"]), max_size=3),
    st.dictionaries(st.sampled_from(["points", "atoms", "values", "a"]), st.none(), max_size=2),
)


def _mutated(data, value):
    """``value`` with one key deleted, one value replaced, one list item
    duplicated, or one of these applied inside a value."""
    if isinstance(value, dict) and value:
        key = data.draw(st.sampled_from(sorted(value)))
        kind = data.draw(st.sampled_from(["delete", "replace", "recurse"]))
        if kind == "delete":
            return {k: v for k, v in value.items() if k != key}
        new = data.draw(JUNK) if kind == "replace" else _mutated(data, value[key])
        return {**value, key: new}
    if isinstance(value, list) and value:
        i = data.draw(st.integers(0, len(value) - 1))
        kind = data.draw(st.sampled_from(["delete", "replace", "duplicate", "recurse"]))
        if kind == "delete":
            return value[:i] + value[i + 1 :]
        if kind == "duplicate":
            return value[: i + 1] + value[i:]
        new = data.draw(JUNK) if kind == "replace" else _mutated(data, value[i])
        return value[:i] + [new] + value[i + 1 :]
    return data.draw(JUNK)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_mutated_fixtures_keep_the_error_contract(data):
    (_, argv, _), i = data.draw(st.sampled_from(FIXTURE_ARGS))
    raw = json.loads(Path(argv[i]).read_text())
    text = json.dumps(_mutated(data, raw))
    argv = argv[:i] + ["-"] + argv[i + 1 :]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2)
    assert err.getvalue() == ""
    payload = json.loads(out.getvalue())
    if code == 2:
        assert list(payload) == ["error"]
        assert sorted(payload["error"]) == ["code", "message", "path"]


def _byte_mutated(data, raw: bytes) -> bytes:
    """``raw`` truncated, with one bit flipped, one byte inserted or
    deleted, or a UTF-8 byte order mark in front."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "insert", "delete", "bom"]))
    if kind == "bom":
        return b"\xef\xbb\xbf" + raw
    at = data.draw(st.integers(0, len(raw) - 1))
    if kind == "truncate":
        return raw[:at]
    if kind == "flip":
        return raw[:at] + bytes([raw[at] ^ 1 << data.draw(st.integers(0, 7))]) + raw[at + 1 :]
    if kind == "insert":
        return raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at:]
    return raw[:at] + raw[at + 1 :]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_byte_mutated_fixtures_keep_the_error_contract(tmp_path_factory, data):
    # the mutated bytes go through a file, so the UTF-8 decode runs on them
    (_, argv, _), i = data.draw(st.sampled_from(FIXTURE_ARGS))
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_bytes(_byte_mutated(data, Path(argv[i]).read_bytes()))
    argv = argv[:i] + [str(path)] + argv[i + 1 :]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    assert err.getvalue() == ""
    payload = json.loads(out.getvalue())
    if code == 2:
        assert list(payload) == ["error"]
        assert sorted(payload["error"]) == ["code", "message", "path"]


def test_invalid_kit_is_input_error_for_construct(capsys, tmp_path):
    code = run(["construct", "--kit", fx("kit_bad.json")])
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 2 and err["code"] == "invalid-kit"
    assert err["path"] == fx("kit_bad.json")

    # a valid kit whose extension would have 17 points
    pasted = [f"z{i}" for i in range(16)]
    kit = tmp_path / "kit17.json"
    kit.write_text(json.dumps({
        "base": {"points": ["a"], "atoms": [["a"]], "values": ["1"]},
        "pasted": {"points": pasted, "atoms": [pasted]},
        "dfamily": {"": [[], pasted], "a": [[], pasted]},
        "fibers": {},
    }))
    assert run(["validate-kit", "--kit", str(kit)]) == 0
    capsys.readouterr()
    code = run(["construct", "--kit", str(kit)])
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 2 and err["code"] == "size-cap"
    assert err["path"] == str(kit)


# The parser builds only the subparser of a known verb; these texts were
# produced with all 21 subparsers built, and must not change.
REQUIRED_FLAGS = {
    "generate": "--space",
    "atoms": "--space",
    "measure": "--space, --set",
    "inner": "--space, --set",
    "outer": "--space, --set",
    "thick": "--space, --set",
    "ultrafilters": "--space",
    "classify-family": "--space",
    "extend-uf": "--space",
    "uf-to-measure": "--space",
    "measure-to-uf": "--space",
    "check-embed": "--small, --big",
    "decompose": "--big, --set",
    "construct": "--kit",
    "validate-kit": "--kit",
    "enumerate-extensions": "--space",
    "classify-points": "--big, --set",
    "product": "--small, --big",
    "section": "--space, --set, --point",
    "lift-uf": "--space, --big, --point",
    "project-uf": "--space",
}
VERB_LIST = (
    "generate,atoms,measure,inner,outer,thick,ultrafilters,classify-family,extend-uf,"
    "uf-to-measure,measure-to-uf,check-embed,decompose,construct,validate-kit,"
    "enumerate-extensions,classify-points,product,section,lift-uf,project-uf"
)
TOP_HELP = f"""usage: measpace [-h]
                {{{VERB_LIST}}}
                ...

Command-line surface: every library operation over JSON files. Exit codes: 0
success (or a check that came back true), 1 a check that came back false, 2
malformed input or violated precondition. Output is always canonical JSON on
stdout (or ``--out``); errors are emitted as {{"error": {{"code", "message",
"path"}}}}. Each handler imports the filters, embeddings and products functions
it calls, so a call loads only the modules its verb uses.

positional arguments:
  {{{VERB_LIST}}}

options:
  -h, --help            show this help message and exit
"""
ATOMS_HELP = """usage: measpace atoms [-h] --space SPACE [--out OUT]

options:
  -h, --help     show this help message and exit
  --space SPACE  path to the verb's primary JSON input ('-' for stdin)
  --out OUT      write output to this path instead of stdout
"""


def _error_message(argv, capsys):
    assert run(argv) == 2
    return json.loads(capsys.readouterr().out)["error"]["message"]


def test_parser_error_messages_are_unchanged(capsys):
    from measpace.cli import _VERBS

    assert set(REQUIRED_FLAGS) == set(_VERBS)
    for verb, flags in REQUIRED_FLAGS.items():
        message = _error_message([verb], capsys)
        assert message == f"the following arguments are required: {flags}"
    quoted = ", ".join(f"'{verb}'" for verb in VERB_LIST.split(","))
    assert _error_message(["nope"], capsys) == (
        f"argument verb: invalid choice: 'nope' (choose from {quoted})"
    )
    assert _error_message([], capsys) == "the following arguments are required: verb"


def _help(parse, argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        parse(argv)
    assert exit_.value.code == 0
    return capsys.readouterr().out


def test_help_is_unchanged(capsys, monkeypatch):
    from measpace.cli import _VERBS, _parser

    monkeypatch.setenv("COLUMNS", "80")
    assert _help(run, ["-h"], capsys) == TOP_HELP
    assert _help(run, ["atoms", "-h"], capsys) == ATOMS_HELP
    # every verb's help from its own subparser matches the full parser's
    full = _parser([])
    for verb in _VERBS:
        assert _help(run, [verb, "-h"], capsys) == _help(full.parse_args, [verb, "-h"], capsys)


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "measpace.cli", "measure", "--space", fx("space1.json"), "--set", '["b","c"]'],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"value": "2/3"}

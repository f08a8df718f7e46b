"""`cli.main` in one process: the parser it shares across calls, and a fuzz
over argv."""

import copy
import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from bihomalg import (BiHomAssociativeAlgebra, BiHomBimodule, FieldSpec, GRBOperator,
                      LinearMap, RBOperator, StructureTable, WeakPseudotwistor, cli,
                      parse_scalar, rb_derive, tensor2, tensor_quadri, tridend_to_dend)
from bihomalg.errors import SpecFileError
from bihomalg.specfile import parse_spec, serialize
from conftest import integration_rb, truncated_poly_algebra

Q = FieldSpec.rational()


def run(argv):
    """cli.main(argv) with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_spec(path, field, n=2):
    """k[x]/(x^n) over field with every optional spec block."""
    A, R = truncated_poly_algebra(field, n), integration_rb(field, n)
    return write_parts(path, {
        "structure": A, "rota_baxter": R, "bimodule": BiHomBimodule.regular(A),
        "grb": GRBOperator(R.map),
        "twistor": WeakPseudotwistor(tensor2(R.map, R.map),
                                     LinearMap.identity(field, n ** 3),
                                     A.alpha, A.beta)})


def write_parts(path, parts):
    path.write_text(serialize(parts) + "\n")
    return str(path)


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def dend_and_quadri(field):
    """The dendriform algebra derived from k[x]/(x^2) and its Rota-Baxter
    operator, and the quadri-algebra of k (x) k built from k itself."""
    def dend(n):
        return tridend_to_dend(rb_derive(truncated_poly_algebra(field, n),
                                         integration_rb(field, n)))
    return dend(2), tensor_quadri(dend(1), dend(1))


@pytest.mark.parametrize("argv, message", [
    (["derive", "DEND", "--via", "rb-tridend"],
     "DEND: --via rb-tridend needs a spec file of kind assoc, not dend"),
    (["derive", "ASSOC", "--via", "quadri-h"],
     "ASSOC: --via quadri-h needs a spec file of kind quadri, not assoc"),
    (["derive", "DEND", "QUADRI", "--via", "tensor-quadri"],
     "QUADRI: --via tensor-quadri needs a spec file of kind dend, not quadri"),
    (["derive", "QUADRI", "ASSOC", "--via", "pair-quadri"],
     "QUADRI: --via pair-quadri needs a spec file of kind assoc, not quadri"),
    (["search", "rb", "DEND"], "DEND: search needs a spec file of kind assoc, not dend"),
    (["trees", "act", "(L[0,0] L[0,0])", "QUADRI", '[["1"], ["1"]]'],
     "QUADRI: trees act needs a spec file of kind assoc, not quadri"),
], ids=["rb-tridend-dend", "quadri-h-assoc", "tensor-quadri-quadri",
        "pair-quadri-quadri", "search-dend", "trees-act-quadri"])
def test_a_spec_file_of_the_wrong_kind_exits_2_naming_it(argv, message, tmp_path):
    """Before these were refused, each ended in an AttributeError."""
    F3 = FieldSpec.prime(3)
    D, Qd = dend_and_quadri(F3)
    paths = {"ASSOC": write_spec(tmp_path / "assoc.json", F3),
             "DEND": write_parts(tmp_path / "dend.json", {"structure": D}),
             "QUADRI": write_parts(tmp_path / "quadri.json", {"structure": Qd})}
    code, out, err = run([paths.get(a, a) for a in argv])
    for name, path in paths.items():
        message = message.replace(name, path)
    assert (code, out, err) == (2, "", f"error: {message}\n")


F3_BLOCK, Q_BLOCK = '{"kind": "prime", "p": 3}', '{"kind": "rational"}'


@pytest.mark.parametrize("argv, message", [
    (["derive", "ASSOC", "DEND", "--via", "pair-quadri"],
     "DEND: --via pair-quadri needs a spec file of kind assoc, not dend"),
    (["derive", "ASSOC", "DEND", "--via", "compose-twistor"],
     "DEND: --via compose-twistor needs a spec file of kind assoc, not dend"),
    (["derive", "ASSOC", "ASSOC_DIM1", "--via", "pair-quadri"],
     "ASSOC_DIM1: --via pair-quadri needs a spec file of the dim of ASSOC, 2, not 1"),
    (["derive", "ASSOC", "ASSOC_DIM1", "--via", "compose-twistor"],
     "ASSOC_DIM1: --via compose-twistor needs a spec file of the dim of ASSOC, 2, not 1"),
    (["derive", "ASSOC", "ASSOC_Q", "--via", "pair-quadri"],
     f"ASSOC_Q: --via pair-quadri needs a spec file over the field of ASSOC, "
     f"{F3_BLOCK}, not {Q_BLOCK}"),
    (["derive", "ASSOC", "ASSOC_Q", "--via", "compose-twistor"],
     f"ASSOC_Q: --via compose-twistor needs a spec file over the field of ASSOC, "
     f"{F3_BLOCK}, not {Q_BLOCK}"),
    (["derive", "DEND", "DEND_Q", "--via", "tensor-quadri"],
     f"DEND_Q: --via tensor-quadri needs a spec file over the field of DEND, "
     f"{F3_BLOCK}, not {Q_BLOCK}"),
], ids=["pair-quadri-kind", "compose-twistor-kind", "pair-quadri-dim",
        "compose-twistor-dim", "pair-quadri-field", "compose-twistor-field",
        "tensor-quadri-field"])
def test_a_second_spec_file_unlike_the_first_exits_2_naming_it(argv, message, tmp_path):
    """Before these were refused, the dims and fields ended in an unqualified
    error with exit code 1, and the kinds went unchecked."""
    F3 = FieldSpec.prime(3)
    paths = {"ASSOC_DIM1": write_spec(tmp_path / "assoc1.json", F3, n=1),
             "ASSOC_Q": write_spec(tmp_path / "assoc_q.json", Q),
             "ASSOC": write_spec(tmp_path / "assoc.json", F3),
             "DEND_Q": write_parts(tmp_path / "dend_q.json",
                                   {"structure": dend_and_quadri(Q)[0]}),
             "DEND": write_parts(tmp_path / "dend.json",
                                 {"structure": dend_and_quadri(F3)[0]})}
    code, out, err = run([paths.get(a, a) for a in argv])
    for name, path in paths.items():
        message = message.replace(name, path)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("via", ["tensor-quadri", "pair-quadri", "compose-twistor"])
def test_derive_takes_the_second_spec_file_before_or_after_via(via, tmp_path):
    """`derive A B --via V` and `derive A --via V B` give the same bytes;
    the second order used to exit 2 with `unrecognized arguments: B`.  A
    third positional is still refused, in either order."""
    F3 = FieldSpec.prime(3)
    if via == "tensor-quadri":
        first = write_parts(tmp_path / "a.json", {"structure": dend_and_quadri(F3)[0]})
        second = write_parts(tmp_path / "b.json", {"structure": dend_and_quadri(F3)[0]})
    else:
        first, second = (write_spec(tmp_path / name, F3) for name in ("a.json", "b.json"))
    before = run(["derive", first, second, "--via", via])
    assert before[0] == (1 if via == "compose-twistor" else 0) and before[1]
    assert run(["derive", first, "--via", via, second]) == before
    assert run(["derive", "--via", via, first, second]) == before
    stray = run(["derive", first, second, "--via", via, "c.json"])
    assert stray[0] == 2 and stray[2].endswith("error: unrecognized arguments: c.json\n")
    assert run(["derive", first, "--via", via, second, "c.json"]) == stray


@pytest.mark.parametrize("argv, message", [
    (["derive", "SPEC", "--via", "rb-tridend", "--atilde", "garbage"],
     "--via rb-tridend takes no --atilde"),
    (["derive", "SPEC", "--via", "split-null", "--btilde", '[["1"]]'],
     "--via split-null takes no --btilde"),
    (["derive", "SPEC", "--via", "rb-double", "--btilde", "x", "--atilde", "y"],
     "--via rb-double takes no --atilde"),
    (["verify-family", "w1f3", "--samples", "notjson"],
     "--mode symbolic takes no --samples"),
    (["verify-family", "w0f1", "--mode", "symbolic", "--samples", '[{"a": 2}]'],
     "--mode symbolic takes no --samples"),
], ids=["atilde-rb-tridend", "btilde-split-null", "both-rb-double",
        "samples-default-mode", "samples-symbolic"])
def test_a_json_flag_that_does_not_apply_exits_2_naming_it(argv, message, tmp_path):
    """Malformed or not, such a flag is refused before any file is opened:
    SPEC names a file that does not exist."""
    argv = [str(tmp_path / "missing.json") if a == "SPEC" else a for a in argv]
    assert run(argv) == (2, "", f"{message}\n")


# every --via but yau, which alone takes --atilde and --btilde; every --via
# but compose-twistor, which alone takes --mode; and the three that take a
# second spec file
NO_TILDES = ["rb-tridend", "rb-double", "tensor-quadri", "quadri-h", "quadri-v",
             "split-null", "grb-dend", "rb-twistor", "compose-twistor", "pair-quadri"]
NO_MODE = ["rb-tridend", "rb-double", "yau", "tensor-quadri", "quadri-h", "quadri-v",
           "split-null", "grb-dend", "rb-twistor", "pair-quadri"]
TWO_FILES = ["tensor-quadri", "compose-twistor", "pair-quadri"]


def _derive_with(via, flag, value):
    files = ["SPEC", "SECOND"] if via in TWO_FILES else ["SPEC"]
    return (["derive", *files, "--via", via, flag, value], f"--via {via} takes no {flag}")


@pytest.mark.parametrize("argv, message", [
    *(_derive_with(via, flag, '[["1"]]') for via in NO_TILDES
      for flag in ("--atilde", "--btilde")),
    # --mode is refused even at its default, as it was given
    *(_derive_with(via, "--mode", mode) for via in NO_MODE
      for mode in ("general", "commuting")),
    (["search", "baxter", "SPEC", "--weight", "garbage"], "search baxter takes no --weight"),
    (["search", "baxter", "SPEC", "--weight", "0"], "search baxter takes no --weight"),
    (["search", "rb", "SPEC", "--side", "left"], "search rb takes no --side"),
    (["search", "rb", "SPEC", "--side", "right", "--weight", "1"],
     "search rb takes no --side"),
    (["verify-family", "w0f2", "--mode", "symbolic", "--samples", "[]"],
     "--mode symbolic takes no --samples"),
])
def test_a_flag_its_mode_does_not_take_exits_2_before_opening_a_file(argv, message,
                                                                    tmp_path):
    """Each was ignored, and exited 0 on a good spec file, before the
    --mode, --weight and --side refusals; SPEC and SECOND do not exist."""
    paths = {name: str(tmp_path / f"{name}.json") for name in ("SPEC", "SECOND")}
    assert run([paths.get(a, a) for a in argv]) == (2, "", f"{message}\n")


def test_a_mode_flag_left_out_takes_its_default(tmp_path):
    """Leaving out derive's --mode, or search's --weight or --side, prints the
    bytes of general, 0 or right; the other value prints other bytes."""
    F3 = FieldSpec.prime(3)
    spec, q3 = write_spec(tmp_path / "a.json", F3), write_spec(tmp_path / "q.json", Q, 3)
    o, z = F3.one(), F3.zero()
    # e0 e0 = e0, e0 e1 = e1 and the other products 0: left and right
    # Baxter operators differ
    mu = StructureTable(F3, (((o, z), (z, o)), ((z, z), (z, z))))
    ident = LinearMap.identity(F3, 2)
    noncommutative = write_parts(tmp_path / "nc.json", {
        "structure": BiHomAssociativeAlgebra(F3, mu, ident, ident)})

    def bytes_of(argv):
        code, out, err = run(argv)
        return code, out, re.sub(r"elapsed [0-9.]+s", "elapsed", err)

    for argv, flag, default, other in [
            (["derive", q3, q3, "--via", "compose-twistor"], "--mode", "general",
             "commuting"),
            (["search", "rb", spec], "--weight", "0", "1"),
            (["search", "baxter", noncommutative], "--side", "right", "left")]:
        left_out = bytes_of(argv)
        assert left_out == bytes_of(argv + [flag, default])
        assert left_out != bytes_of(argv + [flag, other])


@pytest.mark.parametrize("word, message", [
    ([0, 0], "length must equal the leaf count, 1"),
    ([], "length must equal the leaf count, 1"),
    ([1], "letter outside the basis range of rank 1"),
    ([-1], "letter outside the basis range of rank 1"),
], ids=["long", "empty", "letter-past-rank", "letter-negative"])
def test_an_element_term_with_a_bad_word_exits_2_naming_it(word, message, tmp_path):
    element = tmp_path / "elt.json"
    element.write_text(json.dumps({"field": {"kind": "rational"}, "rank": 1, "terms": [
        {"tree": "L[0,0;0]", "word": [0], "coeff": "1"},
        {"tree": "L[0,1;0]", "word": word, "coeff": "2"}]}))
    code, out, err = run(["trees", "reduce", str(element), "--max-leaves", "2",
                          "--max-ab", "1", "--max-r", "1"])
    assert (code, out, err) == (2, "", f"error: {element}: terms[1].word: {message}\n")


def full_spec_doc(tmp_path, field):
    """The document of write_spec's dim-2 spec file, with a baxter block."""
    path = tmp_path / "full.json"
    write_spec(path, field)
    doc = json.loads(path.read_text())
    doc["baxter"] = {"matrix": doc["alpha"], "side": "left"}
    return doc


DROP = object()


def edited(doc, edits):
    """A copy of doc with each (block, key, value) edit made in turn: block
    None for a top-level key, value DROP to delete the key.  An edit inside
    a block that an earlier edit replaced by a non-object is skipped.  Each
    value is copied: a strategy may hand out one object in every example,
    and storing it by reference would let a later edit change it, or make
    the document contain itself."""
    doc = json.loads(json.dumps(doc))
    for block, key, value in edits:
        target = doc if block is None else doc[block]
        if isinstance(target, dict):
            if value is DROP:
                del target[key]
            else:
                target[key] = copy.deepcopy(value)
    return doc


def test_edited_copies_each_value():
    """One object given to two edits, the second inside the block the first
    set, is stored twice as a copy: the document does not contain itself
    and the object keeps its keys for the next example."""
    shared = {"kind": "rational"}
    doc = edited({"dim": 1}, [(None, "rota_baxter", shared),
                              ("rota_baxter", "matrix", shared)])
    assert json.loads(json.dumps(doc)) == {
        "dim": 1, "rota_baxter": {"kind": "rational", "matrix": {"kind": "rational"}}}
    assert shared == {"kind": "rational"}


ZERO_TABLE = [[["0", "0"], ["0", "0"]]] * 2
KINDS = "kind: must be one of ['assoc', 'dend', 'quadri', 'tridend']"
# edits of full_spec_doc and the refusal that follows "error: <path>: "; a
# list or object kind was looked up in a dict and ended in a TypeError
# traceback
SPEC_VALUE_REFUSALS = {
    "kind-list": ([(None, "kind", [])], KINDS),
    "kind-object": ([(None, "kind", {})], KINDS),
    "rota_baxter": ([(None, "rota_baxter", [])], "rota_baxter: must be an object"),
    "rota_baxter.matrix": ([("rota_baxter", "matrix", [["1", "0"]])],
                           "rota_baxter.matrix: expected a matrix with 2 rows"),
    "rota_baxter.weight": ([("rota_baxter", "weight", 1)], "rota_baxter.weight: "
                           "scalars must be literal strings, got int"),
    "baxter.side": ([("baxter", "side", "up")],
                    "baxter.side: must be 'left' or 'right'"),
    "baxter.side-and-matrix": ([("baxter", "side", DROP), ("baxter", "matrix", DROP)],
                               "baxter.side: must be 'left' or 'right'"),
    "baxter.matrix": ([("baxter", "matrix", [])],
                      "baxter.matrix: expected a matrix with 2 rows"),
    "bimodule-on-dend": ([(None, "kind", "dend"), ("tables", "prec", ZERO_TABLE),
                          ("tables", "succ", ZERO_TABLE)],
                         "bimodule: bimodules attach to an associative structure"),
    "bimodule.alpha_M": ([("bimodule", "dim", 1)],
                         "bimodule.alpha_M: expected a matrix with 1 rows"),
    "bimodule.left_action": ([("bimodule", "left_action", [])], "bimodule.left_action: "
                             "expected 2 rows of structure constants"),
    "bimodule.grb": ([("bimodule", "grb", [])],
                     "bimodule.grb: expected a matrix with 2 rows"),
    "twistor.T": ([("twistor", "T", [])], "twistor.T: expected a matrix with 4 rows"),
    "twistor.companion": ([("twistor", "companion", [])],
                          "twistor.companion: expected a matrix with 8 rows"),
}


@pytest.mark.parametrize("case", list(SPEC_VALUE_REFUSALS))
def test_a_malformed_spec_value_exits_2_naming_it(case, tmp_path):
    edits, message = SPEC_VALUE_REFUSALS[case]
    path = write_doc(tmp_path / "bad.json", edited(full_spec_doc(tmp_path, Q), edits))
    assert run(["check", path]) == (2, "", f"error: {path}: {message}\n")


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()
    assert cli._parser() is cli._parser()


def test_the_shared_parser_keeps_no_state(tmp_path, monkeypatch):
    """The same calls through the one shared parser and through a fresh
    parser per call print the same bytes, the help at either width too."""
    spec = write_spec(tmp_path / "a.json", Q)
    calls = [["check"], ["--help"], ["frobnicate"], ["verify-family", "w1f3"],
             ["check", spec], ["check"],
             ["derive", "--help"], ["trees", "reduce", "-h"]]

    def session():
        results = []
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            results += [run(argv) for argv in calls]
        return results

    cli._parser.cache_clear()
    shared = session()
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        fresh = session()
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 2, 0, 0, 2, 0, 0] * 2
    assert shared[0] == shared[5]
    # the help is formatted at the width of the call, not of the build
    narrow, wide = shared[6][1], shared[len(calls) + 6][1]
    assert len(narrow.splitlines()) > len(wide.splitlines())


# -- fuzz over argv --------------------------------------------------------------
#
# Placeholders stand for files written once per module.  No value can ask
# for a large window or tree count: the numbers are 0, 1 and
# -2, and texts that int() reads as small numbers but a count flag refuses
# ('٣', '+1', ' 1 ', '1_0'); the junk holds no digits, and every spec file
# is of dim 2 or 1.

FILES = ["SPEC_F3", "SPEC_Q", "SPEC_DEND", "SPEC_QUADRI", "BAD_JSON",
         "WRONG_SHAPE", "ELEMENT", "ELEMENT_BAD", "MISSING", "DIR"]
NUMBERS = ["0", "1", "-2", "٣", "+1", " 1 ", "1_0"]
VIAS = ["rb-tridend", "rb-double", "yau", "tensor-quadri", "quadri-h",
        "quadri-v", "split-null", "grb-dend", "rb-twistor", "compose-twistor",
        "pair-quadri"]
TREES = ["L[0,0]", "L[0,0;0]", "(L[0,0] L[0,0])", "(L[0,0;0] L[0,1;0]){1}",
         "(L L)", "L[0,0"]
JUNK = st.one_of(
    st.sampled_from(["", "-", "--", "-x", "--kind=", "1/0", "((", "a+", "é",
                     "--help", "-h", "none"]),
    st.text(alphabet="abrxyz-_[](){};,/ '\"é", max_size=8))


def _maybe(draw, *tokens):
    return list(tokens) if draw(st.booleans()) else []


# The JSON arguments (--samples, --atilde, --btilde and the elements of
# `trees act`) start from a valid value, and zero to three of its values,
# the whole argument included, are replaced by random JSON, as the
# element-file fuzz below replaces values; its integers stay in [-3, 3].
# Some texts are cut short, as the fixed lists these replace held "[[".
IDENTITY = [["1", "0"], ["0", "1"]]
SAMPLE = [{"a": 2, "b": 3, "r": 5}]
ARG_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
              st.sampled_from(["0", "1", "a", "b", "r", "x", "1/0", "2/3", [], [[]],
                               [["1"]], IDENTITY, {"a": 1}, {"q": 1}]),
              st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def json_paths(value, path=()):
    """The path of value itself and of every value inside it."""
    yield path
    items = (enumerate(value) if isinstance(value, list)
             else value.items() if isinstance(value, dict) else ())
    for step, inner in items:
        yield from json_paths(inner, path + (step,))


def replaced(value, path, new):
    """A copy of value with the value at path replaced by new."""
    if not path:
        return new
    out = list(value) if isinstance(value, list) else dict(value)
    out[path[0]] = replaced(value[path[0]], path[1:], new)
    return out


@st.composite
def json_args(draw, valid):
    """The JSON text of valid with zero to three values replaced, and one
    time in four cut short, which is mostly no JSON at all."""
    value = valid
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(json_paths(value))))
        value = replaced(value, path, draw(ARG_VALUES))
    text = json.dumps(value)
    if draw(st.integers(0, 3)) == 0:
        text = text[:draw(st.integers(1, len(text)))]
    return text


@st.composite
def commands(draw):
    """argv of one subcommand, mostly well formed."""
    sub = draw(st.sampled_from(["check", "derive", "enumerate", "act",
                                "reduce", "search", "verify-family"]))
    pick = lambda values: draw(st.sampled_from(values))  # noqa: E731
    spec = pick(FILES)
    if sub == "check":
        return ["check", spec, *_maybe(draw, "--kind",
                                       pick(["assoc", "dend", "quadri", "x"]))]
    if sub == "derive":
        return ["derive", spec, "--via", pick(VIAS), *_maybe(draw, pick(FILES)),
                *_maybe(draw, "--atilde", draw(json_args(IDENTITY))),
                *_maybe(draw, "--btilde", draw(json_args(IDENTITY))),
                *_maybe(draw, "--mode", pick(["general", "commuting"])),
                *_maybe(draw, "-o", pick(["out.json", "DIR", "no/such/dir/x"]))]
    if sub == "enumerate":
        return ["trees", "enumerate", "-n", pick(NUMBERS)]
    if sub == "act":
        return ["trees", "act", pick(TREES), spec, draw(json_args(IDENTITY))]
    if sub == "reduce":
        return ["trees", "reduce", pick(FILES), "--max-leaves", pick(NUMBERS),
                "--max-ab", pick(NUMBERS), "--max-r", pick(NUMBERS)]
    if sub == "search":
        return ["search", pick(["rb", "baxter"]), spec,
                *_maybe(draw, "--weight", pick(["0", "1", "2", "a", "1/0"])),
                *_maybe(draw, "--side", pick(["left", "right"])),
                *_maybe(draw, "--jobs", pick(NUMBERS))]
    return ["verify-family", pick(["w1f3", "w0f1", "w9"]),
            *_maybe(draw, "--mode", pick(["symbolic", "sampled"])),
            *_maybe(draw, "--samples", draw(json_args(SAMPLE)))]


@st.composite
def argvs(draw):
    """A command, with tokens dropped, replaced by junk or added."""
    argv = draw(commands())
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv)))
        action = draw(st.sampled_from(["drop", "junk", "insert"]))
        if action == "drop" and i < len(argv):
            del argv[i]
        elif action == "junk" and i < len(argv):
            argv[i] = draw(JUNK)
        else:
            argv.insert(i, draw(st.one_of(JUNK, st.sampled_from(FILES))))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    D, Qd = dend_and_quadri(FieldSpec.prime(3))
    files = {"SPEC_F3": write_spec(root / "f3.json", FieldSpec.prime(3)),
             "SPEC_Q": write_spec(root / "q.json", Q),
             "SPEC_DEND": write_parts(root / "dend.json", {"structure": D}),
             "SPEC_QUADRI": write_parts(root / "quadri.json", {"structure": Qd}),
             "MISSING": str(root / "missing.json"), "DIR": str(root)}
    for name, text in {
            "BAD_JSON": '{"field": ',
            "WRONG_SHAPE": '[{"dim": 2}]',
            "ELEMENT": json.dumps({"field": {"kind": "rational"}, "rank": 1, "terms": [
                {"tree": "L[0,0;0]", "word": [0], "coeff": "2"}]}),
            "ELEMENT_BAD": json.dumps({"field": {"kind": "rational"}, "rank": 1,
                                       "terms": [{"tree": "L[0,0;0]", "word": "0"}]}),
    }.items():
        (root / f"{name}.json").write_text(text)
        files[name] = str(root / f"{name}.json")
    return root, files


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
def test_cli_fuzz_exits_0_1_or_2_without_a_traceback(fuzz_dir, argv):
    root, files = fuzz_dir
    argv = [files.get(a, a) for a in argv]
    cwd = os.getcwd()
    os.chdir(root)  # anything -o writes lands here
    try:
        first, second = run(argv), run(argv)
    finally:
        os.chdir(cwd)
    code, _, err = first
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    # the search's elapsed time is the one figure that may differ
    untimed = [(c, o, re.sub(r"elapsed \d+\.\d+s", "elapsed", e))
               for c, o, e in (first, second)]
    assert untimed[0] == untimed[1]


# The JSON arguments alone, in commands that are otherwise well formed: a
# refusal (exit 2) names the argument, down to the value it refuses.  A
# value argparse reads as a flag, such as -1e-05, is refused by argparse,
# whose message also names the argument.
JSON_ARGS = [
    (["verify-family", "w1f3", "--mode", "sampled", "--samples", "ARG"], SAMPLE,
     "--samples"),
    (["derive", "SPEC_Q", "--via", "yau", "--atilde", "ARG", "--btilde",
      json.dumps(IDENTITY)], IDENTITY, "(--)?atilde"),
    (["derive", "SPEC_Q", "--via", "yau", "--atilde", json.dumps(IDENTITY),
      "--btilde", "ARG"], IDENTITY, "(--)?btilde"),
    (["trees", "act", "(L[0,1;0] L[1,0;1]){1}", "SPEC_Q", "ARG"], IDENTITY, "elements"),
]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_json_argument_fuzz_exits_0_1_or_2_naming_the_argument(fuzz_dir, data):
    _, files = fuzz_dir
    argv, valid, name = data.draw(st.sampled_from(JSON_ARGS))
    arg = data.draw(json_args(valid))
    code, _, err = run([arg if a == "ARG" else files.get(a, a) for a in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert re.match(rf"error: {name}(\[\d+\])*: ", err) or re.search(
            rf"^bihomalg [\w -]+: error: .*(?<![\w-]){name}\b", err, re.M), err


# -- fuzz over spec documents ----------------------------------------------------
#
# A valid dim-2 spec file over F_3 with every optional block, one to three of
# its values replaced by random JSON: a top-level value, or one inside a
# block.  Every command that reads such a file must refuse it with exit 2 or
# answer with 0 or 1, never raise.

BLOCK_KEYS = {"rota_baxter": ("matrix", "weight"), "baxter": ("matrix", "side"),
              "bimodule": ("dim", "alpha_M", "beta_M", "left_action", "right_action",
                           "grb"),
              "twistor": ("T", "companion", "atilde", "btilde")}
SLOTS = [(None, key) for key in ("field", "dim", "kind", "tables", "alpha", "beta",
                                 *BLOCK_KEYS)]
SLOTS += [(block, key) for block, keys in BLOCK_KEYS.items() for key in keys]
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 9), st.floats(),
              st.sampled_from(["0", "1", "2", "a", "1/0", "left", "assoc", "dend",
                               [["1", "0"], ["0", "1"]], [["1"]], {"kind": "rational"}]),
              st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
DOC_COMMANDS = [["check", "SPEC"], ["derive", "SPEC", "--via", "rb-tridend"],
                ["search", "rb", "SPEC", "--weight", "1"],
                ["trees", "act", "(L[0,0;0] L[0,0;0]){1}", "SPEC",
                 '[["1", "0"], ["0", "1"]]']]


@pytest.fixture(scope="module")
def doc_fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("doc_fuzz")
    return root, full_spec_doc(root, FieldSpec.prime(3))


@settings(max_examples=200, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(SLOTS), JSON_VALUES), min_size=1,
                      max_size=3),
       argv=st.sampled_from(DOC_COMMANDS))
def test_spec_document_fuzz_exits_0_1_or_2(doc_fuzz_dir, edits, argv):
    root, valid = doc_fuzz_dir
    doc = edited(valid, [(block, key, value) for (block, key), value in edits])
    path = write_doc(root / "fuzzed.json", doc)
    code, _, err = run([path if a == "SPEC" else a for a in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# -- fuzz over field blocks --------------------------------------------------------
#
# A dim-1 spec file whose field block is drawn from the malformed and the
# valid cases: parameter lists that are empty, repeat a name, hold a
# non-identifier or a non-string, or hold 1-40 names (wide packed monomials:
# the product reads the first parameter, in the int's top field), and p as
# a bool, a string, a composite or a prime.

NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)
PARAMS = st.one_of(
    st.just([]),
    st.lists(NAMES, min_size=1, max_size=40, unique=True),
    st.lists(NAMES, min_size=1, max_size=3).map(lambda names: names + names[:1]),
    st.lists(st.one_of(NAMES, st.text(max_size=3)), min_size=1, max_size=3),
    st.lists(st.one_of(NAMES, st.integers(), st.none(), st.booleans(),
                       st.lists(st.integers(), max_size=2)), min_size=1, max_size=3))
PRIMES = st.one_of(st.booleans(), st.text(max_size=3),
                   st.sampled_from([1, 4, 9, 91, 2 ** 61 + 1]), st.sampled_from([2, 5, 7]))
FIELD_BLOCKS = st.one_of(
    PARAMS.map(lambda params: {"kind": "rational_function", "params": params}),
    PRIMES.map(lambda p: {"kind": "prime", "p": p}))


@settings(max_examples=200, deadline=None)
@given(field=FIELD_BLOCKS)
@example(field={"kind": "rational_function", "params": [f"x{i}" for i in range(40)]})
@example(field={"kind": "rational_function", "params": ["a", "a"]})
@example(field={"kind": "prime", "p": True})
def test_field_block_fuzz_exits_0_1_or_2(doc_fuzz_dir, field):
    root, _ = doc_fuzz_dir
    params = field.get("params")
    first = params[0] if params and isinstance(params[0], str) else ""
    c = first if re.fullmatch(r"[A-Za-z_]\w*", first, re.ASCII) else "1"
    doc = {"field": field, "dim": 1, "kind": "assoc", "tables": {"mu": [[[c]]]},
           "alpha": [["1"]], "beta": [["1"]]}
    code, _, err = run(["check", write_doc(root / "field.json", doc)])
    assert code in (0, 1, 2)
    if code == 2:
        assert re.search(r"\bfield(\.\w+)?: ", err), err


# -- fuzz over `trees reduce` element files ---------------------------------------
#
# A valid element file over Q(a), one to three of its values replaced by
# random JSON: the field, rank or terms, a whole term, or a term's tree, word
# or coefficient.  Integers stay within [-3, 3], so a replaced rank builds a
# window of rank at most 3.

ELEMENT_DOC = {"field": {"kind": "rational_function", "params": ["a"]}, "rank": 1,
               "terms": [{"tree": "((L[0,0;0] L[0,0;0]){0} L[0,1;1]){0}", "word": [0, 0, 0],
                          "coeff": "a"},
                         {"tree": "(L[1,0;0] (L[0,0;0] L[0,0;1]){0}){0}", "word": [0, 0, 0],
                          "coeff": "-a"},
                         {"tree": "L[1,1;1]", "word": [0], "coeff": "1/2"}]}
ELEMENT_SLOTS = [("field",), ("rank",), ("terms",), ("field", "kind"), ("field", "params")]
ELEMENT_SLOTS += [("terms", i) for i in range(3)]
ELEMENT_SLOTS += [("terms", i, key) for i in range(3) for key in ("tree", "word", "coeff")]
ELEMENT_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
              st.sampled_from(["0", "1", "a", "b", "1/0", "a/0", "L", "L[0,0;0]",
                               "(L[0,0;0] L[0,0;0]){0}", "L[9,9;9]", "rational",
                               "prime", [0], [0, 1], ["a"], {"kind": "rational"},
                               {"kind": "prime", "p": 5},
                               {"tree": "L[0,0;0]", "word": [0], "coeff": "1"}]),
              st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def element_edited(doc, edits):
    """A copy of doc with each (slot, value) edit made in turn; an edit under
    a value that an earlier edit replaced by another type is skipped."""
    def has(target, step):
        if isinstance(target, dict):
            return step in target
        return isinstance(target, list) and isinstance(step, int) and step < len(target)

    doc = json.loads(json.dumps(doc))
    for slot, value in edits:
        target = doc
        for step in slot[:-1]:
            target = target[step] if has(target, step) else None
        if isinstance(target, dict) or has(target, slot[-1]):
            target[slot[-1]] = value
    return doc


@settings(max_examples=200, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(ELEMENT_SLOTS), ELEMENT_VALUES),
                      min_size=1, max_size=3))
def test_element_file_fuzz_exits_0_1_or_2(tmp_path_factory, edits):
    path = write_doc(tmp_path_factory.mktemp("element") / "fuzzed.json",
                     element_edited(ELEMENT_DOC, edits))
    code, _, err = run(["trees", "reduce", path, "--max-leaves", "3", "--max-ab", "1",
                        "--max-r", "1"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert re.match(rf"error: {re.escape(path)}: (document|field|rank|terms)\b"
                        r"[^ ]*: ", err), err


def test_the_valid_element_file_reduces(tmp_path):
    """The fuzz's starting point: the seed of (L, L, L) with coefficient a
    reduces to 0, leaving the generator with coefficient 1/2."""
    path = write_doc(tmp_path / "elt.json", ELEMENT_DOC)
    code, out, err = run(["trees", "reduce", path, "--max-leaves", "3", "--max-ab", "1",
                          "--max-r", "1"])
    assert (code, err) == (0, "")
    assert json.loads(out)["terms"] == [{"tree": "L[1,1;1]", "word": [0], "coeff": "(1)/(2)"}]


def test_a_word_with_letters_of_several_digits_prints_as_its_ints(tmp_path):
    """The word is read from the term key "tree|11,0,10": the seed term
    (L L) beta(L) on the letters 11, 0 and 10 reduces to alpha(L) (L L)."""
    path = write_doc(tmp_path / "elt.json", {
        "field": {"kind": "rational"}, "rank": 12,
        "terms": [{"tree": "((L[0,0;0] L[0,0;0]){0} L[0,1;0]){0}", "word": [11, 0, 10],
                   "coeff": "2"}]})
    code, out, err = run(["trees", "reduce", path, "--max-leaves", "3", "--max-ab", "1",
                          "--max-r", "0"])
    want = {"field": {"kind": "rational"}, "rank": 12, "terms": [
        {"tree": "(L[1,0;0] (L[0,0;0] L[0,0;0]){0}){0}", "word": [11, 0, 10], "coeff": "2"}]}
    assert (code, out, err) == (0, json.dumps(want, indent=2) + "\n", "")
    assert '"word": [\n        11,\n        0,\n        10\n      ]' in out


# -- parameter names: the ones FieldSpec takes are the ones the grammar reads --

LETTER = st.characters(categories=("Lu", "Ll", "Lt", "Lm", "Lo")).filter(str.isalpha)
DIGIT = st.characters(categories=("Nd", "Nl", "No")).filter(str.isalnum)
IDENTIFIERS = st.tuples(st.one_of(st.just("_"), LETTER),
                        st.text(st.one_of(st.just("_"), LETTER, DIGIT), max_size=3)
                        ).map("".join)


@settings(max_examples=100, deadline=None)
@given(names=st.lists(IDENTIFIERS, min_size=1, max_size=3, unique=True))
def test_parameter_names_round_trip_through_a_spec_file(names):
    field = FieldSpec.rational_function(*names)
    c = parse_scalar(field, "+".join(names)) * field.parameter(names[0])
    A = BiHomAssociativeAlgebra.associative(field, StructureTable(field, (((c,),),)))
    back = parse_spec(serialize({"structure": A}))["structure"]
    assert back.field == field and back == A


def test_a_spec_parses_each_literal_once_and_serializes_as_before(monkeypatch):
    """A document that repeats "1/2" and "b*(1-a)/a": each distinct literal
    of its tables and maps is parsed once and its entries share the raw
    value, and the parts hold the raw values (types and dict orders
    included) and serialize to the bytes of the parts built from one Scalar
    per entry.  A bad literal that recurs is refused at its first place."""
    field = FieldSpec.rational_function("a", "b")
    half, c = "1/2", "b*(1-a)/a"
    doc = {"field": {"kind": "rational_function", "params": ["a", "b"]}, "dim": 2,
           "kind": "assoc", "tables": {"mu": [[[half, c], [c, "0"]], [["0", half], [half, c]]]},
           "alpha": [[half, "0"], [c, "1"]], "beta": [["1", c], ["0", half]],
           "rota_baxter": {"matrix": [[c, half], ["0", c]], "weight": "a"}}
    seen = []
    parse = FieldSpec.parse
    monkeypatch.setattr(FieldSpec, "parse", lambda f, text: seen.append(text) or parse(f, text))
    parts = parse_spec(json.dumps(doc))
    monkeypatch.undo()
    assert sorted(seen) == sorted([half, c, "0", "1", "a"])
    S, R = parts["structure"], parts["rota_baxter"]
    assert S.mu._d[0][0] is S.alpha._d[0][0] is R.map._d[1][0]

    def boxed(block, depth):
        if depth == 0:
            return field.parse(block)
        return tuple(boxed(x, depth - 1) for x in block)

    want = {"structure": BiHomAssociativeAlgebra(
                field, StructureTable(field, boxed(doc["tables"]["mu"], 3)),
                LinearMap(field, boxed(doc["alpha"], 2)), LinearMap(field, boxed(doc["beta"], 2))),
            "rota_baxter": RBOperator(LinearMap(field, boxed(doc["rota_baxter"]["matrix"], 2)),
                                      field.parse("a"))}
    for got, exp in ((S.mu, want["structure"].mu), (S.alpha, want["structure"].alpha),
                     (S.beta, want["structure"].beta), (R.map, want["rota_baxter"].map)):
        assert repr([list(col.items()) for col in got._d]) == repr(
            [list(col.items()) for col in exp._d])
    assert serialize(parts) == serialize(want)
    doc["tables"]["mu"][1][0][1] = doc["alpha"][0][1] = "1/(a-a)"
    with pytest.raises(SpecFileError) as info:
        parse_spec(json.dumps(doc))
    assert str(info.value).startswith("tables.mu[1][0][1]: bad scalar literal '1/(a-a)': ")
    doc["tables"]["mu"][1][0][1] = 2
    with pytest.raises(SpecFileError) as info:
        parse_spec(json.dumps(doc))
    assert str(info.value) == "tables.mu[1][0][1]: scalars must be literal strings, got int"


def test_a_parameter_name_the_grammar_cannot_read_exits_2_naming_it(tmp_path):
    doc = {"field": {"kind": "rational_function", "params": ["a", "a·"]}, "dim": 1,
           "kind": "assoc", "tables": {"mu": [[["a"]]]}, "alpha": [["1"]], "beta": [["1"]]}
    path = write_doc(tmp_path / "spec.json", doc)
    assert run(["check", path]) == (
        2, "", f"error: {path}: field.params: bad parameter name 'a·' at params[1]\n")

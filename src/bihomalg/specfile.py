"""JSON interchange format for algebras, operators, bimodules and twistors.

All scalars travel as literal strings in the exact grammar (integers,
fractions, parameter names, + - * / and parentheses); floats are rejected.
parse_spec(serialize(x)) reproduces x exactly.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain

from .bimodules import BiHomBimodule, GRBOperator
from .errors import SpecFileError
from .linalg import LinearMap, StructureTable, _nest, _sparse
from .pseudotwistors import WeakPseudotwistor
from .rota_baxter import OneSidedBaxter, RBOperator
from .scalars import FieldSpec, Scalar, _clip, scalar_to_str
from .structures import (BiHomAssociativeAlgebra, BiHomDendriform,
                         BiHomQuadri, BiHomTridendriform)

KIND_CLASSES = {
    "assoc": BiHomAssociativeAlgebra,
    "dend": BiHomDendriform,
    "tridend": BiHomTridendriform,
    "quadri": BiHomQuadri,
}
KIND_TABLES = {kind: cls.OPS for kind, cls in KIND_CLASSES.items()}


def _fail(path: str, msg: str):
    raise SpecFileError(f"{path}: {msg}")


def _read_json(text: str, name: str | None = None):
    """The JSON document in text.  Malformed JSON, an integer past Python's
    digit limit and nesting past the recursion limit are a SpecFileError,
    named name when given; a file's loader names it by the file's path."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        msg = (f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
               if isinstance(exc, json.JSONDecodeError) else _clip(str(exc)))
        raise SpecFileError(f"{name}: {msg}" if name else msg) from exc


def _scalar(field: FieldSpec, value, path: str) -> Scalar:
    if not isinstance(value, str):
        _fail(path, f"scalars must be literal strings, got {type(value).__name__}")
    try:
        return field.parse(value)
    except (ValueError, ZeroDivisionError, RecursionError) as exc:
        _fail(path, f"bad scalar literal {_clip(repr(value))}: {_clip(str(exc))}")


def _nested(field: FieldSpec, value, path: str, shape, parsed: dict) -> tuple:
    """value as nested tuples of raw values, normed as the containers store
    them; shape holds one (length, refusal) pair per level, outermost first.
    parsed maps each literal text already read to its raw value, so a text
    is parsed once (the values are never changed, so entries may share
    them), and a bad one is refused where it first occurs; an entry's path
    is written out only for a text not read before."""
    (n, msg), rest = shape[0], shape[1:]
    if not isinstance(value, list) or len(value) != n:
        _fail(path, msg)
    if rest:
        return tuple(_nested(field, x, f"{path}[{i}]", rest, parsed)
                     for i, x in enumerate(value))
    out = []
    for i, x in enumerate(value):
        raw = parsed.get(x) if isinstance(x, str) else None
        if raw is None:
            raw = parsed[x] = field.ops.norm(_scalar(field, x, f"{path}[{i}]")._v)
        out.append(raw)
    return tuple(out)


def _matrix(field: FieldSpec, value, rows: int, cols: int, path: str,
            parsed: dict) -> LinearMap:
    entries = _nested(field, value, path, (
        (rows, f"expected a matrix with {rows} rows"), (cols, f"expected {cols} entries")),
        parsed)
    return LinearMap._of_cols(field, rows, _sparse(field.ops.zero, zip(*entries)))


def _table(field: FieldSpec, value, dl: int, dr: int, do: int, path: str,
           parsed: dict) -> StructureTable:
    constants = _nested(field, value, path, (
        (dl, f"expected {dl} rows of structure constants"),
        (dr, f"expected {dr} columns"), (do, f"expected {do} coefficients")), parsed)
    return StructureTable._of_cols(field, do, _sparse(
        field.ops.zero, chain.from_iterable(constants)), dl, dr)


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, "must be an object")
    return value


def _positive_int(value, path: str) -> int:
    # bool is an int subclass, but `true` is not a dimension
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        _fail(path, "must be a positive integer")
    return value


def _parse_field(value, path: str) -> FieldSpec:
    if not isinstance(value, dict) or "kind" not in value:
        _fail(path, "field block needs a 'kind'")
    kind = value["kind"]
    if kind == "rational":
        return FieldSpec.rational()
    if kind == "prime":
        p = value.get("p")
        if not isinstance(p, int) or isinstance(p, bool):
            _fail(f"{path}.p", "must be an integer")
        try:
            return FieldSpec.prime(p)
        except ValueError as exc:
            _fail(f"{path}.p", str(exc))
    if kind == "rational_function":
        params = value.get("params")
        if not isinstance(params, list) or not all(
                isinstance(name, str) for name in params):
            _fail(f"{path}.params", "must be a list of strings")
        try:
            return FieldSpec.rational_function(*params)
        except ValueError as exc:
            _fail(f"{path}.params", str(exc))
    _fail(path, f"unknown field kind {_clip(repr(kind))}")


def parse_spec(text: str) -> dict:
    """Parse a spec document.  Returns a dict with key "structure" and any of
    the optional keys "rota_baxter", "baxter", "bimodule", "grb", "twistor"."""
    doc = _read_json(text)
    if not isinstance(doc, dict):
        _fail("document", "top level must be an object")
    for key in ("field", "dim", "kind", "tables", "alpha", "beta"):
        if key not in doc:
            _fail("document", f"missing required key {key!r}")
    field = _parse_field(doc["field"], "field")
    parsed = {}  # each literal text of the document is parsed once
    matrix, table = (partial(read, field, parsed=parsed) for read in (_matrix, _table))
    dim = _positive_int(doc["dim"], "dim")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in KIND_TABLES:
        _fail("kind", f"must be one of {sorted(KIND_TABLES)}")
    doc_tables = _object(doc["tables"], "tables")
    tables = {}
    for name in KIND_TABLES[kind]:
        if name not in doc_tables:
            _fail("tables", f"kind {kind!r} needs table {name!r}")
        tables[name] = table(doc_tables[name], dim, dim, dim, f"tables.{name}")
    alpha = matrix(doc["alpha"], dim, dim, "alpha")
    beta = matrix(doc["beta"], dim, dim, "beta")
    structure = KIND_CLASSES[kind](field, *[tables[n] for n in KIND_TABLES[kind]],
                                   alpha, beta)
    out = {"structure": structure}
    if "rota_baxter" in doc:
        block = _object(doc["rota_baxter"], "rota_baxter")
        out["rota_baxter"] = RBOperator(
            matrix(block.get("matrix"), dim, dim, "rota_baxter.matrix"),
            _scalar(field, block.get("weight", "0"), "rota_baxter.weight"))
    if "baxter" in doc:
        block = _object(doc["baxter"], "baxter")
        side = block.get("side")
        if side not in ("left", "right"):
            _fail("baxter.side", "must be 'left' or 'right'")
        out["baxter"] = OneSidedBaxter(
            matrix(block.get("matrix"), dim, dim, "baxter.matrix"), side)
    if "bimodule" in doc:
        if kind != "assoc":
            _fail("bimodule", "bimodules attach to an associative structure")
        block = _object(doc["bimodule"], "bimodule")
        m = _positive_int(block.get("dim"), "bimodule.dim")
        out["bimodule"] = BiHomBimodule(
            structure,
            matrix(block.get("alpha_M"), m, m, "bimodule.alpha_M"),
            matrix(block.get("beta_M"), m, m, "bimodule.beta_M"),
            table(block.get("left_action"), dim, m, m, "bimodule.left_action"),
            table(block.get("right_action"), m, dim, m, "bimodule.right_action"))
        if "grb" in block:
            out["grb"] = GRBOperator(
                matrix(block["grb"], dim, m, "bimodule.grb"))
    if "twistor" in doc:
        block = _object(doc["twistor"], "twistor")
        n2, n3 = dim * dim, dim ** 3
        out["twistor"] = WeakPseudotwistor(
            matrix(block.get("T"), n2, n2, "twistor.T"),
            matrix(block.get("companion"), n3, n3, "twistor.companion"),
            matrix(block.get("atilde"), dim, dim, "twistor.atilde"),
            matrix(block.get("btilde"), dim, dim, "twistor.btilde"))
    return out


def _field_block(field: FieldSpec):
    if field.kind == "rational":
        return {"kind": "rational"}
    if field.kind == "prime":
        return {"kind": "prime", "p": field.p}
    return {"kind": "rational_function", "params": list(field.params)}


def _block(x: LinearMap | StructureTable, memo: dict):
    """The literals of a matrix's or table's entries, nested as `entries` or
    `constants` read them.  memo, one per serialize call, maps the id of
    each field's ops table to a dict from the id of each raw value to the
    value and its literal: a value is formatted once per call however many
    entries hold it (parse_spec shares one raw object per literal), and
    the memo keeps it alive, so no other value takes its id."""
    to_str = x.field.ops.to_str
    seen = memo.setdefault(id(x.field.ops), {})

    def literal(v) -> str:
        hit = seen.get(id(v))
        if hit is None:
            seen[id(v)] = hit = v, to_str(v)
        return hit[1]
    return _nest(literal, x._depth, x._dense())


def _structure_kind(structure) -> str:
    for kind, cls in KIND_CLASSES.items():
        if type(structure) is cls:
            return kind
    raise SpecFileError(f"cannot serialize {type(structure).__name__}")


def serialize(parts: dict) -> str:
    """Inverse of parse_spec; accepts the same dict shape it returns.  A
    zero dimension, of the structure or of a bimodule, is refused with
    parse_spec's own SpecFileError, so parse_spec reads back all it writes."""
    structure = parts["structure"]
    kind = _structure_kind(structure)
    block = partial(_block, memo={})
    doc = {
        "field": _field_block(structure.field),
        "dim": _positive_int(structure.dim, "dim"),
        "kind": kind,
        "tables": {name: block(getattr(structure, name))
                   for name in KIND_TABLES[kind]},
        "alpha": block(structure.alpha),
        "beta": block(structure.beta),
    }
    if "rota_baxter" in parts:
        R = parts["rota_baxter"]
        doc["rota_baxter"] = {"matrix": block(R.map),
                              "weight": scalar_to_str(R.weight)}
    if "baxter" in parts:
        B = parts["baxter"]
        doc["baxter"] = {"matrix": block(B.map), "side": B.side}
    if "bimodule" in parts:
        M = parts["bimodule"]
        module = {"dim": _positive_int(M.dim, "bimodule.dim"),
                  "alpha_M": block(M.alpha_M),
                  "beta_M": block(M.beta_M),
                  "left_action": block(M.left_action),
                  "right_action": block(M.right_action)}
        if "grb" in parts:
            module["grb"] = block(parts["grb"].map)
        doc["bimodule"] = module
    if "twistor" in parts:
        W = parts["twistor"]
        doc["twistor"] = {"T": block(W.T),
                          "companion": block(W.companion),
                          "atilde": block(W.atilde),
                          "btilde": block(W.btilde)}
    return json.dumps(doc, indent=2)

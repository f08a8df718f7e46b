"""Command-line interface.

Exit codes: 0 = all requested checks passed / operation succeeded,
1 = an axiom check failed (violations are printed), 2 = usage or parse error.
Every JSON input, file or argument, is read by `specfile._read_json`, so a
malformed one exits 2 with a message naming the file or argument.
`main` parses with one parser built per process (`_parser`), so in-process
callers do not rebuild it on every call; `build_parser` returns a fresh one.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import bimodules, families, pseudotwistors, rota_baxter, search, trees
from .errors import (BiHomAlgError, BudgetExceeded, EvalSingular,
                     IncompleteAssignment, InputAxiomsFail, SpecFileError)
from .linalg import Vector
from .scalars import _ascii_int, _clip, scalar_to_str
from .specfile import (KIND_TABLES, _block, _fail, _field_block, _matrix,
                       _object, _parse_field, _read_json, _scalar,
                       _structure_kind, parse_spec, serialize)
from .structures import (check_structure, quadri_projections, tensor_quadri,
                         yau_twist)


def _load(path: str, parse):
    """parse(text) on the file at path; a refusal names the file."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except (OSError, SpecFileError) as exc:
        raise SpecFileError(f"{path}: {exc}") from exc


class _Refusal(Exception):
    """A usage refusal: `main` prints the message alone on stderr and
    returns exit code 2."""


def _print_report(rep) -> int:
    for axiom, idx, lhs, rhs in rep.violations:
        lhs_s = ", ".join(scalar_to_str(x) for x in lhs.coords)
        rhs_s = ", ".join(scalar_to_str(x) for x in rhs.coords)
        print(f"violation: {axiom} at {idx}: [{lhs_s}] != [{rhs_s}]")
    for name, ok in rep.sub_checks.items():
        print(f"sub-check {name}: {'yes' if ok else 'no'}")
    if rep.passed:
        print("passed")
        return 0
    print(f"failed: {len(rep.violations)} violation(s) "
          f"in {', '.join(rep.failed_axioms())}")
    return 1


def _emit(parts: dict, out_path: str | None) -> None:
    text = serialize(parts)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# per command, the flags that only some of its modes take: the name of the
# mode in a refusal, the attribute that holds the mode, and for each such
# flag the mode that takes it and its default; the parser gives these flags
# the default None, so a flag left out can be told from one given
MODE_FLAGS = {
    "derive": ("--via", "via", {"atilde": ("yau", None), "btilde": ("yau", None),
                                "mode": ("compose-twistor", "general")}),
    "search": ("search", "what", {"weight": ("rb", "0"), "side": ("baxter", "right")}),
    "verify-family": ("--mode", "mode", {"samples": ("sampled", None)}),
}


def _mode_flags(args) -> None:
    """Refuse a flag of MODE_FLAGS given to a mode that does not take it, as
    in `search rb takes no --side`; give each one left out its default."""
    name, attr, flags = MODE_FLAGS[args.command]
    mode = getattr(args, attr)
    for flag, (taker, default) in flags.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif mode != taker:
            raise _Refusal(f"{name} {mode} takes no --{flag}")


def cmd_check(args) -> int:
    structure = _load(args.spec, parse_spec)["structure"]
    kind = _structure_kind(structure)
    if args.kind and kind != args.kind:
        raise _Refusal(f"spec file holds a {kind} structure, not {args.kind}")
    return _print_report(check_structure(structure))


def _rows_arg(text: str, name: str) -> list:
    rows = _read_json(text, name)
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        _fail(name, "must be a JSON list of lists")
    return rows


def _matrix_arg(field, text, name, dim):
    return _matrix(field, _rows_arg(text, f"--{name}"), dim, dim, name, {})


def _structure(parts: dict, path: str, need: str | None, command: str):
    """The structure of parts, read from the spec file at path; command
    refuses a kind other than need."""
    S = parts["structure"]
    kind = _structure_kind(S)
    if need is not None and kind != need:
        raise SpecFileError(
            f"{path}: {command} needs a spec file of kind {need}, not {kind}")
    return S


def _derived(build):
    """The --via builder of the parts {"structure": build(*blocks)}."""
    return lambda args, *blocks: {"structure": build(*blocks)}


def _twisted(S, W) -> dict:
    """The parts of S twisted by the pseudotwistor W, and W."""
    return {"structure": pseudotwistors.twisted_algebra(S, W), "twistor": W}


def _yau(args, S) -> dict:
    if not args.atilde or not args.btilde:
        raise _Refusal("--via yau needs --atilde and --btilde")
    return {"structure": yau_twist(S, _matrix_arg(S.field, args.atilde, "atilde", S.dim),
                                   _matrix_arg(S.field, args.btilde, "btilde", S.dim))}


# every --via, in the order --help lists them: for each spec file it reads,
# the structure kind it needs (yau twists any kind) and the blocks it reads
# from it; then the builder of the parts to emit, called with the parsed
# arguments and those blocks in order
_RB = ("assoc", ("structure", "rota_baxter"))  # an algebra and its operator
VIAS = {
    "rb-tridend": ((_RB,), _derived(rota_baxter.rb_derive)),
    "rb-double": ((_RB,), _derived(rota_baxter.rb_double_product)),
    "yau": (((None, ("structure",)),), _yau),
    "tensor-quadri": ((("dend", ("structure",)),) * 2, _derived(tensor_quadri)),
    "quadri-h": ((("quadri", ("structure",)),),
                 _derived(lambda S: quadri_projections(S)[0])),
    "quadri-v": ((("quadri", ("structure",)),),
                 _derived(lambda S: quadri_projections(S)[1])),
    "split-null": ((("assoc", ("structure", "bimodule")),),
                   _derived(bimodules.split_null_extension)),
    "grb-dend": ((("assoc", ("bimodule", "grb")),),
                 _derived(bimodules.grb_to_dendriform)),
    "rb-twistor": ((_RB,), lambda args, S, R: _twisted(
        S, pseudotwistors.rb_pseudotwistor(S, R))),
    "compose-twistor": ((("assoc", ("structure", "twistor")), ("assoc", ("twistor",))),
                        lambda args, S, W1, W2: _twisted(
                            S, pseudotwistors.compose_pseudotwistors(S, W1, W2, args.mode))),
    "pair-quadri": ((_RB, ("assoc", ("rota_baxter",))),
                    _derived(rota_baxter.commuting_pair_quadri)),
}


def cmd_derive(args) -> int:
    via, (files, build) = args.via, VIAS[args.via]
    if len(files) == 2 and not args.second:
        raise _Refusal(f"--via {via} needs a second spec file")
    if args.second and len(files) == 1:
        raise _Refusal(f"--via {via} takes no second spec file")
    _mode_flags(args)
    paths, docs = (args.spec, args.second), []
    for path, (kind, _) in zip(paths, files):
        docs.append(_load(path, parse_spec))
        # for the first file T is S, so only a second file can differ
        T, S = _structure(docs[-1], path, kind, f"--via {via}"), docs[0]["structure"]
        if T.field != S.field:
            raise SpecFileError(
                f"{path}: --via {via} needs a spec file over the field of "
                f"{args.spec}, {json.dumps(_field_block(S.field))}, "
                f"not {json.dumps(_field_block(T.field))}")
        # tensor-quadri alone builds on A (x) B for any two dims
        if via != "tensor-quadri" and T.dim != S.dim:
            raise SpecFileError(f"{path}: --via {via} needs a spec file of the "
                                f"dim of {args.spec}, {S.dim}, not {T.dim}")
    _emit(build(args, *(_need(doc, key, path) for doc, path, (_, keys)
                        in zip(docs, paths, files) for key in keys)), args.output)
    return 0


def _need(parts: dict, key: str, path: str):
    """The key block of parts, read from the spec file at path."""
    if key not in parts:
        raise SpecFileError(f"{path}: spec file lacks the required {key!r} block")
    return parts[key]


def _within_budget(name: str, fn, *args):
    """fn(*args); a BudgetExceeded refusal is a usage error naming name, the
    flag or environment variable that sets the budget."""
    try:
        return fn(*args)
    except BudgetExceeded as exc:
        _fail(name, str(exc))


def _count(text: str, flag: str, least: int = 1) -> int:
    """The integer of a count flag, written in ASCII digits alone; any
    other text, or a value under least (1 or 0), is refused naming flag."""
    value = _ascii_int(text)
    if value is None or value < least:
        _fail(flag, f"must be a {'positive' if least else 'non-negative'} integer")
    return value


def cmd_trees(args) -> int:
    if args.tree_cmd == "enumerate":
        n = _count(args.n, "-n")
        for t in _within_budget("-n", trees.enumerate_trees, n):
            print(trees.serialize_tree(t))
        return 0
    if args.tree_cmd == "act":
        parts = _load(args.spec, parse_spec)
        A = _structure(parts, args.spec, "assoc", "trees act")
        t = _tree_arg(args.tree, "tree")
        raw = _rows_arg(args.elements, "elements")
        elements = [Vector(A.field, row) for row in
                    _matrix(A.field, raw, t.leaves, A.dim, "elements", {}).entries]
        R = (_need(parts, "rota_baxter", args.spec)
             if isinstance(t, trees.RBAugTree) else None)
        result = _within_budget("tree", trees.action_eval, t, elements, A, R)
        print("[" + ", ".join(scalar_to_str(x) for x in result.coords) + "]")
        return 0
    # the required subparsers leave only "reduce"
    bounds = {"max_leaves": _count(args.max_leaves, "--max-leaves"),
              "max_ab_power": _count(args.max_ab, "--max-ab", 0),
              "max_r_power": _count(args.max_r, "--max-r", 0)}
    doc, x = _load(args.element_file, _parse_element)
    key = trees._outside(x, bounds)
    if key is not None:  # before the build, which a window over budget refuses
        _fail(args.element_file, f"term {_clip(repr(key))} lies outside the window "
              f"--max-leaves {bounds['max_leaves']} --max-ab {bounds['max_ab_power']} "
              f"--max-r {bounds['max_r_power']}")
    reduced = _within_budget("--max-leaves", trees.truncated_ideal_reduce, x, bounds)
    # a term key is the tree's text, "|" and the word; no tree is parsed
    to_str = reduced.field.ops.to_str
    out = []
    for key, (_, c) in sorted(reduced._t.items()):
        tree, _, word = key.partition("|")
        out.append({"tree": tree, "word": list(trees._word(word)), "coeff": to_str(c)})
    print(json.dumps({"field": doc["field"], "rank": doc["rank"],
                      "terms": out}, indent=2))
    return 0


def _tree_arg(text: str, path: str):
    try:
        return trees.parse_tree(text)
    except (ValueError, RecursionError) as exc:
        _fail(path, str(exc))


def _parse_element(text: str) -> tuple[dict, trees.FreeElement]:
    """The JSON document of a `trees reduce` element file and its element."""
    doc = _object(_read_json(text), "document")
    for key in ("field", "rank", "terms"):
        if key not in doc:
            _fail("document", f"missing required key {key!r}")
    field = _parse_field(doc["field"], "field")
    rank = doc["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
        _fail("rank", "must be a non-negative integer")
    if not isinstance(doc["terms"], list):
        _fail("terms", "must be a list")
    x = trees.FreeElement.zero(field, rank)
    for n, term in enumerate(doc["terms"]):
        path = f"terms[{n}]"
        _object(term, path)
        if not isinstance(term.get("tree"), str):
            _fail(f"{path}.tree", "must be a string")
        word = term.get("word")
        if not isinstance(word, list) or not all(
                isinstance(w, int) and not isinstance(w, bool) for w in word):
            _fail(f"{path}.word", "must be a list of integers")
        tree = _tree_arg(term["tree"], f"{path}.tree")
        if not isinstance(tree, trees.RBAugTree):
            _fail(f"{path}.tree", "needs a power ;f on every leaf, {f} on every node")
        if len(word) != tree.leaves:
            _fail(f"{path}.word", f"length must equal the leaf count, {tree.leaves}")
        if any(not 0 <= w < rank for w in word):
            _fail(f"{path}.word", f"letter outside the basis range of rank {rank}")
        x._add_in(trees.FreeElement.generator(
            field, rank, tree, tuple(word),
            _scalar(field, term.get("coeff"), f"{path}.coeff")))
    return doc, x


def cmd_search(args) -> int:
    _mode_flags(args)
    jobs = _count(args.jobs, "--jobs")
    A = _structure(_load(args.spec, parse_spec), args.spec, "assoc", "search")
    # a Rota-Baxter search takes a weight, a Baxter one a side
    if args.what == "rb":
        find, arg = search.enumerate_rb, _scalar(A.field, args.weight, "--weight")
    else:
        find, arg = search.enumerate_baxter, args.side
    result = _within_budget(search.BUDGET_ENV_VAR, find, A, arg, jobs)
    for m in result.operators:
        print(json.dumps(_block(m, {})))
    print(f"examined {result.examined}, found {result.found}, "
          f"elapsed {result.elapsed:.3f}s", file=sys.stderr)
    return 0


def cmd_verify_family(args) -> int:
    _mode_flags(args)
    if args.mode == "sampled" and not args.samples:
        raise _Refusal("sampled mode needs --samples")
    # _mode_flags leaves --samples to sampled mode alone
    if args.mode == "sampled":
        rep = families._sampled_report(_samples_arg(args.samples, args.family))
    else:
        rep = families.verify_parametric_family(args.family, args.mode)
    return _print_report(rep)


def _samples_arg(text: str, family: str) -> list:
    """The (algebra, operator) pair of each sample, each evaluated once;
    a sample outside the family's domain is malformed input."""
    raw = _read_json(text, "--samples")
    if not isinstance(raw, list):
        _fail("--samples", "must be a JSON list of objects")
    if not raw:
        _fail("--samples", "sampled mode needs at least one assignment")
    pairs = []
    names = families.SYMBOLIC_FIELD.params
    for n, s in enumerate(raw):
        _object(s, f"--samples[{n}]")
        for key in s:
            if key not in names:
                _fail(f"--samples[{n}]", f"unknown parameter {_clip(repr(key))}; "
                      f"the families take {', '.join(names)}")
        try:
            pairs.append(families._evaluated_family(
                family, {k: Fraction(str(v)) for k, v in s.items()}))
        except (ValueError, ZeroDivisionError, EvalSingular, IncompleteAssignment) as exc:
            raise SpecFileError(f"--samples[{n}]: {exc}") from exc
    return pairs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bihomalg",
        description="Exact checkers and constructors for BiHom-type algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the axiom checker on a spec file")
    p.add_argument("spec")
    p.add_argument("--kind", choices=sorted(KIND_TABLES))
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("derive", help="build a derived structure")
    p.add_argument("spec")
    p.add_argument("--via", required=True, choices=list(VIAS))
    p.add_argument("second", nargs="?", help="second spec file where needed")
    p.add_argument("--atilde", help="matrix as JSON, for --via yau")
    p.add_argument("--btilde", help="matrix as JSON, for --via yau")
    p.add_argument("--mode", choices=["general", "commuting"],
                   help="for --via compose-twistor")
    p.add_argument("-o", "--output", help="write the result here instead of stdout")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("trees", help="tree enumeration, action, reduction")
    tsub = p.add_subparsers(dest="tree_cmd", required=True)
    t = tsub.add_parser("enumerate")
    t.add_argument("-n", required=True)
    t = tsub.add_parser("act")
    t.add_argument("tree")
    t.add_argument("spec")
    t.add_argument("elements", help="JSON list of coordinate lists")
    t = tsub.add_parser("reduce")
    t.add_argument("element_file")
    t.add_argument("--max-leaves", required=True)
    t.add_argument("--max-ab", required=True)
    t.add_argument("--max-r", required=True)
    p.set_defaults(fn=cmd_trees)

    p = sub.add_parser("search", help="brute-force operator enumeration")
    p.add_argument("what", choices=["rb", "baxter"])
    p.add_argument("spec")
    p.add_argument("--weight")
    p.add_argument("--side", choices=["left", "right"])
    p.add_argument("--jobs", default="1")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("verify-family",
                       help="verify a built-in parametric Rota-Baxter family")
    p.add_argument("family", choices=list(families.FAMILY_IDS))
    p.add_argument("--mode", choices=["symbolic", "sampled"], default="symbolic")
    p.add_argument("--samples", help="JSON list of parameter assignments")
    p.set_defaults(fn=cmd_verify_family)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # argparse keeps no per-parse state on a parser, and its help formatter
    # reads the terminal width when it formats, so one parser serves every
    # call with the bytes a fresh one would give
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args, extra = parser.parse_known_args(argv)
        # argparse fills derive's spec and second from the first run of
        # positionals, so a second spec file after --via is left over
        if (extra and args.command == "derive" and args.second is None
                and not extra[0].startswith("-")):
            args.second = extra.pop(0)
        if extra:  # as parse_args refuses them
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except _Refusal as exc:
        print(exc, file=sys.stderr)
        return 2
    except InputAxiomsFail as exc:
        print(f"axiom failure: {exc}", file=sys.stderr)
        if exc.report is not None:
            _print_report(exc.report)
        return 1
    except (SpecFileError, ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BiHomAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

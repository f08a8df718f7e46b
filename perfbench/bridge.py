"""Conversion between the oracles' raw values and bihomalg objects, and the
operation record every workload is made of."""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import bihomalg as bh
import bihomalg.cli  # noqa: F401  (cli.main runs in-process; its import is set-up)

import oracles as O

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
GOLDEN = HERE / "golden"


@dataclass
class Op:
    """One closed-loop operation.

    run() is the timed call into the library; check(output) compares the
    output with the oracle outside the timed region and returns True when it
    agrees.  kind "build" marks a write-side operation (a reducer build) whose
    time counts as busy time but not as a latency sample.  units counts the
    work items one run handles (candidate matrices, for a search).
    """

    case: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    kind: str = "op"
    units: int = 0


class Lazy:
    """An oracle value computed on first use and then reused, so repeated
    rounds of the same case pay for the oracle once, outside timing."""

    def __init__(self, fn):
        self.fn = fn
        self.done = False
        self.value = None

    def __call__(self):
        if not self.done:
            self.value = self.fn()
            self.done = True
        return self.value


def field_of(F: O.RawField) -> bh.FieldSpec:
    return bh.FieldSpec.prime(F.p) if F.p else bh.FieldSpec.rational()


def scalar(field, x) -> bh.Scalar:
    return field.from_fraction(Fraction(x))


def to_map(field, f) -> bh.LinearMap:
    return bh.LinearMap(field, tuple(tuple(scalar(field, x) for x in row)
                                     for row in O.map_rows(f)))


def to_table(field, t) -> bh.StructureTable:
    return bh.StructureTable(field, tuple(
        tuple(tuple(scalar(field, x) for x in col) for col in row)
        for row in O.table_consts(t)))


def raw_vec(coords) -> dict:
    """Sparse raw form of a tuple of Q or F_p scalars."""
    return {i: c.value for i, c in enumerate(coords) if c.value}


def raw_map(m: bh.LinearMap):
    return (m.rows, m.cols, [raw_vec(m.column(j).coords) for j in range(m.cols)])


def raw_table(t: bh.StructureTable):
    entries = {}
    for i, row in enumerate(t.constants):
        for j, col in enumerate(row):
            v = raw_vec(col)
            if v:
                entries[(i, j)] = v
    return (t.dim_left, t.dim_right, t.dim_out, entries)


def report_agrees(rep, expected, cap=16) -> bool:
    """The library report lists exactly the first `cap` oracle violations,
    in order, with the same basis tuples and both sides of each identity."""
    got = [(a, tuple(idx), raw_vec(lhs.coords), raw_vec(rhs.coords))
           for a, idx, lhs, rhs in rep.violations]
    return rep.passed == (not expected) and got == expected[:cap]


def run_cli(argv):
    """cli.main in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = bh.cli.main(argv)
    return rc, out.getvalue()


def cli_op(name, argv):
    """cli.main on committed inputs: exit code 0, and stdout equal to the
    golden captured at the seed commit.  The golden is a regression baseline
    for the CLI-output-stays-identical gate, not a correctness oracle."""
    golden = (GOLDEN / f"cli_{name}.out").read_text()
    return Op(f"cli.{name.split('_')[0]}", lambda: run_cli(argv),
              lambda out: out == (0, golden))

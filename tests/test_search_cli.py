import json
import multiprocessing.process
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bihomalg import (BiHomAssociativeAlgebra, BiHomBimodule, FieldSpec,
                      GRBOperator, LinearMap, OneSidedBaxter, RBOperator,
                      StructureTable, WeakPseudotwistor, check_one_sided_baxter,
                      check_rota_baxter, commuting_pair_quadri, enumerate_rb,
                      enumerate_baxter, grb_to_dendriform, index_to_matrix,
                      parse_spec, quadri_projections, rb_dendriform_to_quadri,
                      rb_derive, rb_double_product, search, serialize,
                      split_null_extension, tensor2, tensor_quadri,
                      trees, tridend_to_dend)
from bihomalg import cli, families, rota_baxter, specfile
from bihomalg.cli import main
from bihomalg.errors import BudgetExceeded, DimensionMismatch, FieldMismatch
from bihomalg.families import FAMILY_IDS, rb_family, two_param_algebra
from bihomalg.scalars import _clip
from bihomalg.search import BUDGET_ENV_VAR
from conftest import raw_report, truncated_poly_algebra

# The benchmark's CLI cases on its committed Q(params) spec files, and the
# stdout each printed when its golden was captured; perfbench is only read.
BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.append(str(BENCH))
import wl_symbolic  # noqa: E402
import wl_trees  # noqa: E402

Q = FieldSpec.rational()


def prime_truncated(p, dim):
    return truncated_poly_algebra(FieldSpec.prime(p), dim)


def two_param_f(p, a, b):
    f = FieldSpec.prime(p)
    return two_param_algebra(f, f.from_int(a), f.from_int(b))


def idempotent_line(p):
    """The one-dimensional algebra e*e = e over F_p."""
    f = FieldSpec.prime(p)
    table = StructureTable(f, (((f.one(),),),))
    return BiHomAssociativeAlgebra.associative(f, table)


def test_index_to_matrix_order():
    f = FieldSpec.prime(3)
    m = index_to_matrix(f, 2, 1)  # digit 1 in entry (0,0)
    assert m.entries[0][0].value == 1
    assert all(m.entries[i][j].value == 0 for i in range(2) for j in range(2)
               if (i, j) != (0, 0))
    m = index_to_matrix(f, 2, 3)  # digit 1 in entry (0,1)
    assert m.entries[0][1].value == 1
    m = index_to_matrix(f, 2, 3 ** 2)  # digit 1 in entry (1,0)
    assert m.entries[1][0].value == 1


@pytest.mark.parametrize("k", [-1, 3 ** 4, 3 ** 4 + 1, -3 ** 4])
def test_index_to_matrix_refuses_an_index_outside_the_space(k):
    with pytest.raises(ValueError, match=f"matrix index {k} is outside"):
        index_to_matrix(FieldSpec.prime(3), 2, k)
    for bad in (5.0, True, "5", None):
        with pytest.raises(ValueError, match="matrix index k must be an int"):
            index_to_matrix(FieldSpec.prime(3), 2, bad)
    assert index_to_matrix(FieldSpec.prime(3), 2, 3 ** 4 - 1).entries[1][1].value == 2
    for bad in (-1, 0, True, 2.0, "2", None):
        with pytest.raises(ValueError, match="matrix dimension n must be a positive int"):
            index_to_matrix(FieldSpec.prime(3), bad, 0)
    for field in (FieldSpec.rational(), FieldSpec.rational_function("a")):
        with pytest.raises(ValueError, match="matrix field must be a prime field"):
            index_to_matrix(field, 2, 0)


def test_enumerate_rb_dim1_solution_sets():
    A = idempotent_line(3)
    f = A.field
    w0 = enumerate_rb(A, f.zero())
    assert [m.entries[0][0].value for m in w0.operators] == [0]
    w1 = enumerate_rb(A, f.one())
    assert [m.entries[0][0].value for m in w1.operators] == [0, 2]
    assert w0.examined == 3


def test_enumerate_rb_matches_direct_check():
    A = two_param_f(3, 2, 1)
    res = enumerate_rb(A, A.field.zero())
    direct = [k for k in range(3 ** 4)
              if check_rota_baxter(
                  A, RBOperator(index_to_matrix(A.field, 2, k),
                                A.field.zero())).passed]
    assert len(res.operators) == len(direct)
    assert res.examined == 81


def test_enumerate_rb_jobs_deterministic():
    A = two_param_f(3, 2, 1)
    single = enumerate_rb(A, A.field.zero(), jobs=1)
    multi = enumerate_rb(A, A.field.zero(), jobs=2)
    assert single.operators == multi.operators


def test_enumerate_baxter():
    A = idempotent_line(3)
    res = enumerate_baxter(A, "right")
    for m in res.operators:
        assert check_one_sided_baxter(A, OneSidedBaxter(m, "right")).passed
    # identity and zero are always there
    values = [m.entries[0][0].value for m in res.operators]
    assert 0 in values and 1 in values
    with pytest.raises(ValueError):
        enumerate_baxter(A, "middle")


def assert_walk_agrees_with_matrix_checker(A, w, cases=("0", "w", "left", "right")):
    """The pruned walk's hits are exactly the candidates the matrix checker
    passes, at weight 0, at weight w and on both sides: every candidate of
    the space is run through the checker."""
    f, n = A.field, A.dim
    for case in cases:
        weight, side = {"0": (f.zero(), None), "w": (f.from_int(w), None)}.get(
            case, (None, case))
        want = [k for k in range(f.p ** (n * n))
                if search._second_pass(A, weight, side)(index_to_matrix(f, n, k), 1).passed]
        assert sorted(search._walk(A, weight, side)) == want, (weight, side)


@st.composite
def prime_algebras(draw):
    """A structure table over F_2, F_3 or F_5 at dim 1 or 2, associative or
    not, with a random zero pattern, and a nonzero weight."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 2))
    f = FieldSpec.prime(p)
    entries = iter(draw(st.lists(st.integers(1, p - 1), min_size=n ** 3,
                                 max_size=n ** 3)))
    mask = iter(draw(st.lists(st.booleans(), min_size=n ** 3, max_size=n ** 3)))
    table = StructureTable(f, tuple(tuple(tuple(
        f.from_int(next(entries) if next(mask) else 0) for _ in range(n))
        for _ in range(n)) for _ in range(n)))
    return BiHomAssociativeAlgebra.associative(f, table), draw(st.integers(1, p - 1))


@settings(max_examples=20, deadline=None)
@given(prime_algebras())
def test_walk_test_agrees_with_matrix_checker(case):
    assert_walk_agrees_with_matrix_checker(*case)


def test_walk_test_agrees_with_matrix_checker_dim3():
    assert_walk_agrees_with_matrix_checker(prime_truncated(2, 3), 1)


@pytest.mark.parametrize("case", ["0", "w", "left", "right"])
def test_walk_test_agrees_with_matrix_checker_dim3_f3(case):
    """3^9 candidates, each through the matrix checker: about 3 s a case."""
    assert_walk_agrees_with_matrix_checker(prime_truncated(3, 3), 2, (case,))


def test_second_pass_names_the_first_disagreeing_candidate(monkeypatch):
    A = idempotent_line(3)  # at weight 1 the hits are 0 and 2
    # a walk that passes every candidate, in an order other than the index's
    monkeypatch.setattr(search, "_walk", lambda A, weight, side: [2, 1, 0])
    with pytest.raises(AssertionError, match=r"candidate 1\b"):
        enumerate_rb(A, A.field.one())


@pytest.mark.parametrize("weight, found", [(0, 45), (1, 4)])
def test_truncated_cubic_over_f5_is_walked_whole(weight, found):
    """k[x]/(x^3) over F_5: 5^9 candidates, every one decided, most of them
    in a pruned subtree."""
    A = prime_truncated(5, 3)
    res = enumerate_rb(A, A.field.from_int(weight))
    assert (res.examined, res.found, len(res.operators)) == (5 ** 9, found, found)
    indices = [sum(m.entries[a][b].value * 5 ** (a * 3 + b)
                   for a in range(3) for b in range(3)) for m in res.operators]
    assert indices == sorted(indices)


def test_jobs_changes_nothing_and_starts_no_process(monkeypatch):
    """jobs is accepted for compatibility: every value gives the jobs=1
    result, and the search runs in the calling process."""
    def no_start(self):
        raise AssertionError("a process was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_start)
    A = prime_truncated(3, 3)
    f = A.field
    for find, arg in ((enumerate_rb, f.zero()), (enumerate_rb, f.one()),
                      (enumerate_baxter, "left"), (enumerate_baxter, "right")):
        got = [(res.operators, res.examined, res.found)
               for res in (find(A, arg, jobs=jobs) for jobs in (1, 2, 7))]
        assert got[0][0] and got == [got[0]] * 3, (find.__name__, arg)


def test_weight_from_another_field_is_refused_before_the_walk(monkeypatch):
    A = idempotent_line(3)

    def no_walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(search, "_walk", no_walk)
    for weight in (FieldSpec.prime(5).one(), FieldSpec.prime(5).zero(), Q.one()):
        with pytest.raises(FieldMismatch):
            enumerate_rb(A, weight)


def test_a_multiplication_of_another_dimension_is_refused_before_the_walk(monkeypatch):
    """A record's dimension is alpha's: a multiplication that is not
    dim x dim -> dim is refused as check_rota_baxter refuses it, with
    DimensionMismatch."""
    f = FieldSpec.prime(3)
    one = LinearMap.identity(f, 1)
    square = prime_truncated(3, 2).mu  # 2 x 2 -> 2
    rectangular = StructureTable(f, (((f.one(),), (f.one(),)),))  # 1 x 2 -> 1

    def no_walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(search, "_walk", no_walk)
    for mu in (square, rectangular):
        A = BiHomAssociativeAlgebra(f, mu, one, one)
        with pytest.raises(DimensionMismatch):
            check_rota_baxter(A, RBOperator(one, f.zero()))
        for find, arg in ((enumerate_rb, f.zero()), (enumerate_rb, f.one()),
                          (enumerate_baxter, "left"), (enumerate_baxter, "right")):
            with pytest.raises(DimensionMismatch, match=r"the multiplication is "
                               rf"{mu.dim_left}x{mu.dim_right}->{mu.dim_out}, not 1x1->1"):
                find(A, arg)


def test_structure_maps_of_another_dimension_are_refused_before_the_walk(
        monkeypatch, tmp_path, capsys):
    """k[x]/(x^2) over F_3 with a 1x1 beta (or a 2x1 alpha): the walk reads
    neither map, so the search refuses the record up front, with the
    DimensionMismatch that check_rota_baxter raises on it.  The CLI's spec
    reader refuses such a file before the search, with exit 2."""
    f = FieldSpec.prime(3)
    mu, two = prime_truncated(3, 2).mu, LinearMap.identity(f, 2)
    records = {"beta": (two, LinearMap.identity(f, 1), "1x1"),
               "alpha": (LinearMap(f, ((f.one(),), (f.zero(),))), two, "2x1")}

    def no_walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(search, "_walk", no_walk)
    for name, (alpha, beta, shape) in records.items():
        A = BiHomAssociativeAlgebra(f, mu, alpha, beta)
        with pytest.raises(DimensionMismatch):
            check_rota_baxter(A, RBOperator(two, f.zero()))
        for find, arg in ((enumerate_rb, f.zero()), (enumerate_rb, f.one()),
                          (enumerate_baxter, "left"), (enumerate_baxter, "right")):
            with pytest.raises(DimensionMismatch, match=rf"^{name} is {shape}, not 2x2 "
                               r"for the algebra dimension 2$"):
                find(A, arg)
    A = BiHomAssociativeAlgebra(f, mu, two, LinearMap.identity(f, 1))
    src = write_spec(tmp_path, "a.json", A)
    assert main(["search", "rb", src]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "beta: expected a matrix with 2 rows" in err


def test_the_zero_dimensional_algebra_has_its_one_operator():
    """Over F_p the dim-0 algebra has p^0 = 1 candidate, the empty map, and
    it passes every identity."""
    f = FieldSpec.prime(3)
    empty = LinearMap.identity(f, 0)
    A = BiHomAssociativeAlgebra(f, StructureTable.zero(f, 0), empty, empty)
    assert check_rota_baxter(A, RBOperator(empty, f.zero())).passed
    for res in (enumerate_rb(A, f.zero()), enumerate_rb(A, f.one()),
                enumerate_baxter(A, "left"), enumerate_baxter(A, "right")):
        assert (res.examined, res.found, res.operators, res.dim) == (1, 1, [empty], 0)


def test_second_pass_is_built_once_per_search(monkeypatch):
    """The operation's matrix is read once per search, not once per hit."""
    A = prime_truncated(3, 3)
    calls, as_matrix = [], StructureTable.as_matrix

    def counting(self):
        calls.append(self)
        return as_matrix(self)

    monkeypatch.setattr(StructureTable, "as_matrix", counting)
    res = enumerate_rb(A, A.field.zero())
    assert res.found > 1 and calls == [A.mu]


def assert_prepared_check_is_the_checkers(A, weight, side, maps, cap):
    """One prepared second pass, run on each of maps in turn, reports what a
    fresh public checker reports on each: check_one_sided_baxter's whole
    report when side is set, else the violations and total_violations of
    check_rota_baxter, and no sub-checks; the prepared identity part of
    check_rota_baxter, with its commutation sub-checks, gives its whole
    report.  A second pass prepared afresh for each map agrees."""
    second = search._second_pass(A, weight, side)
    full = rota_baxter._rb_identity(A, weight, rota_baxter.COMMUTES)
    for m in maps:
        if side is None:
            want = raw_report(check_rota_baxter(A, RBOperator(m, weight), cap))
            assert raw_report(full(m, cap)) == want
            violations, sub_checks, _, total = raw_report(second(m, cap))
            assert (violations, sub_checks, total) == (want[0], {}, want[3])
        else:
            want = raw_report(check_one_sided_baxter(A, OneSidedBaxter(m, side), cap))
            assert raw_report(second(m, cap)) == want
        assert search._second_pass(A, weight, side)(m, 1).passed == (want[3] == 0)


@st.composite
def prime_operator_cases(draw):
    """A BiHom-associative record over F_2, F_3 or F_5 at dim 1 or 2, its
    multiplication random and alpha and beta the identity or random; a
    weight or a side; the zero map, minus weight times the identity (a
    Rota-Baxter operator of that weight) or the identity (a Baxter operator
    of both sides), and random candidates, most of them failing."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 2))
    f = FieldSpec.prime(p)
    ident = LinearMap.identity(f, n)

    def candidate():
        return index_to_matrix(f, n, draw(st.integers(0, p ** (n * n) - 1)))

    alpha, beta = (draw(st.sampled_from([ident, candidate()])) for _ in range(2))
    mu = StructureTable.from_matrix(f, LinearMap(f, tuple(tuple(
        f.from_int(draw(st.integers(0, p - 1))) for _ in range(n * n))
        for _ in range(n))), n, n)
    side = draw(st.sampled_from([None, "left", "right"]))
    weight = f.from_int(draw(st.integers(0, p - 1))) if side is None else None
    solution = ident if side else ident.scale(-weight)
    maps = [LinearMap.zero_map(f, n, n), solution,
            *(candidate() for _ in range(draw(st.integers(1, 4))))]
    return (BiHomAssociativeAlgebra(f, mu, alpha, beta), weight, side, maps,
            draw(st.sampled_from([1, 16])))


@settings(max_examples=60, deadline=None)
@given(prime_operator_cases())
def test_prepared_check_is_the_checkers_property(case):
    assert_prepared_check_is_the_checkers(*case)


def test_prepared_check_is_the_checkers_over_q_and_q_params(qx2, qx2_rb):
    """Over Q, k[x]/(x^2) with its integration operator and a map that fails
    every identity; over Q(a), the two-parameter algebra with a w0f2 member
    and a perturbed one, whose sides are built by the table ops."""
    o, z = Q.one(), Q.zero()
    bad = LinearMap(Q, ((o, Q.from_int(2)), (z, Q.parse("1/3"))))
    for weight, side in ((Q.zero(), None), (o, None), (None, "left"), (None, "right")):
        assert_prepared_check_is_the_checkers(qx2, weight, side, [qx2_rb.map, bad], 16)
    qa = FieldSpec.rational_function("a")
    a = qa.parameter("a")
    A = two_param_algebra(qa, a, qa.one())
    R = rb_family("w0f2", qa, r1=a, r2=qa.one()).map
    perturbed = R + LinearMap(qa, ((qa.one(), qa.zero()), (qa.zero(), qa.zero())))
    for weight, side in ((qa.zero(), None), (None, "right")):
        assert_prepared_check_is_the_checkers(A, weight, side, [R, perturbed], 16)


def family_members(f):
    """The matrices of the six families over f, by weight, with r, r1 in f
    and r2 in f^x."""
    values = [f.from_int(x) for x in range(f.p)]
    points = {"w0f2": [{"r1": r1, "r2": r2} for r1 in values for r2 in values[1:]],
              "w1f3": [{}]}
    points["w1f4"] = points["w0f2"]
    members = {0: [], 1: []}
    for family in FAMILY_IDS:
        for point in points.get(family, [{"r": r} for r in values]):
            R = rb_family(family, f, **point)
            members[R.weight.value].append(matrix_values(R.map))
    return members


def matrix_values(m):
    return tuple(tuple(x.value for x in row) for row in m.entries)


# R = 0 is a Rota-Baxter operator of every weight; at weight 0 it is the
# member r = 0 of w0f1, at weight 1 it lies in no family
TRIVIAL_WEIGHT_1 = ((0, 0), (0, 0))


@pytest.mark.parametrize("p, counts", [(3, [54, 84]), (5, [500, 640])])
def test_two_param_rb_operators_are_the_families(p, counts):
    """On two_param_algebra(F_p, a, b), a != 0, the weight-0 and weight-1
    Rota-Baxter operators are exactly the family members of that weight and,
    at weight 1, the trivial operator."""
    f = FieldSpec.prime(p)
    members = family_members(f)
    members[1].append(TRIVIAL_WEIGHT_1)
    found = [0, 0]
    for a in range(1, p):
        for b in range(p):
            A = two_param_f(p, a, b)
            for w in (0, 1):
                hits = [matrix_values(m)
                        for m in enumerate_rb(A, f.from_int(w)).operators]
                assert sorted(hits) == sorted(members[w]), (a, b, w)
                found[w] += len(hits)
    assert found == counts


def test_budget_enforced(monkeypatch):
    A = prime_truncated(5, 3)  # 5^9 candidates, far over any small budget
    monkeypatch.setenv(BUDGET_ENV_VAR, "1000")
    with pytest.raises(BudgetExceeded):
        enumerate_rb(A, A.field.zero())
    monkeypatch.setenv(BUDGET_ENV_VAR, "100")
    B = idempotent_line(3)
    assert enumerate_rb(B, B.field.zero()).examined == 3


def test_enumeration_requires_prime_field(qx2):
    with pytest.raises(ValueError):
        enumerate_rb(qx2, Q.zero())


def spec_text(A, extra=None):
    parts = {"structure": A}
    if extra:
        parts.update(extra)
    return serialize(parts)


def write_spec(tmp_path, name, A, extra=None):
    path = tmp_path / name
    path.write_text(spec_text(A, extra) + "\n")
    return str(path)


def every_block(A, R):
    """Spec parts with every optional block, built from A and a map R on it
    (the blocks need not satisfy any axiom to round-trip)."""
    return {"structure": A, "rota_baxter": R,
            "baxter": OneSidedBaxter(R.map, "left"),
            "bimodule": BiHomBimodule.regular(A), "grb": GRBOperator(R.map),
            "twistor": WeakPseudotwistor(
                tensor2(R.map, R.map), LinearMap.identity(A.field, A.dim ** 3),
                A.alpha, A.beta)}


def test_spec_round_trip(qx3, qx3_rb):
    text = spec_text(qx3, {"rota_baxter": qx3_rb})
    parts = parse_spec(text)
    assert parts["structure"] == qx3
    assert parts["rota_baxter"] == qx3_rb
    assert parse_spec(serialize(parts))["structure"] == qx3
    # every optional block, over Q and over Q(a, b)
    qab = FieldSpec.rational_function("a", "b")
    a, b = qab.parameter("a"), qab.parameter("b")
    R_ab = RBOperator(LinearMap(qab, ((a, qab.parse("1/(a - b)")),
                                      (qab.zero(), b * b))), a)
    for parts in (every_block(qx3, qx3_rb),
                  every_block(two_param_algebra(qab, a, b), R_ab)):
        text = serialize(parts)
        back = parse_spec(text)
        assert back.keys() == parts.keys()
        assert all(back[key] == parts[key] for key in parts)
        assert serialize(back) == text


def test_serialize_formats_each_raw_value_once(monkeypatch, qx3, qx3_rb):
    """One to_str call per distinct raw object of a serialize call, on every
    block read back by parse_spec (which shares one raw object per
    literal), over Q and Q(a, b); the text is the one that formats every
    entry on its own."""
    qab = FieldSpec.rational_function("a", "b")
    a, b = qab.parameter("a"), qab.parameter("b")
    R_ab = RBOperator(LinearMap(qab, ((a, qab.parse("1/(a - b)")),
                                      (qab.zero(), b * b))), a)
    for parts in (every_block(qx3, qx3_rb),
                  every_block(two_param_algebra(qab, a, b), R_ab)):
        parts = parse_spec(serialize(parts))
        ops = parts["structure"].field.ops
        entries = []

        def each_entry(x, memo):
            values = x._dense()
            for _ in range(x._depth - 1):
                values = [v for part in values for v in part]
            entries.extend(values)
            return specfile._nest(x.field.ops.to_str, x._depth, x._dense())

        with monkeypatch.context() as m:
            m.setattr(specfile, "_block", each_entry)
            want = serialize(parts)
        calls, to_str = [], ops.to_str
        with monkeypatch.context() as m:
            m.setattr(ops, "to_str", lambda v: (calls.append(v), to_str(v))[1],
                      raising=False)
            got = serialize(parts)
        assert got == want
        # the weight is formatted on its own, outside any block
        assert len(calls) == len({id(v) for v in entries}) + 1 < len(entries)


def test_spec_rejects_floats_and_bad_kind():
    from bihomalg.errors import SpecFileError
    doc = json.loads(spec_text(prime_truncated(3, 2)))
    doc["tables"]["mu"][0][0][0] = 1.5
    with pytest.raises(SpecFileError):
        parse_spec(json.dumps(doc))
    doc = json.loads(spec_text(prime_truncated(3, 2)))
    doc["kind"] = "octo"
    with pytest.raises(SpecFileError):
        parse_spec(json.dumps(doc))


def test_cli_check_pass_and_fail(tmp_path, capsys, qx3):
    good = write_spec(tmp_path, "good.json", qx3)
    assert main(["check", good]) == 0
    assert "passed" in capsys.readouterr().out
    doc = json.loads(spec_text(qx3))
    doc["alpha"][0][1] = "1"  # breaks multiplicativity
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "violation" in out and "failed" in out


def test_cli_check_kind_mismatch(tmp_path, capsys, qx3):
    path = write_spec(tmp_path, "a.json", qx3)
    assert main(["check", path, "--kind", "dend"]) == 2


def test_cli_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["check", str(path)]) == 2
    assert main(["check", str(tmp_path / "absent.json")]) == 2
    assert main(["no-such-command"]) == 2


def test_cli_derive_rb_tridend(tmp_path, capsys, qx3, qx3_rb):
    src = write_spec(tmp_path, "a.json", qx3, {"rota_baxter": qx3_rb})
    out_path = tmp_path / "derived.json"
    assert main(["derive", src, "--via", "rb-tridend", "-o", str(out_path)]) == 0
    derived = parse_spec(out_path.read_text())["structure"]
    assert main(["check", str(out_path)]) == 0
    from bihomalg import rb_derive
    assert derived == rb_derive(qx3, qx3_rb)


def test_cli_derive_yau(tmp_path, capsys, qx3):
    src = write_spec(tmp_path, "a.json", qx3)
    scaling = json.dumps([["1", "0", "0"], ["0", "2", "0"], ["0", "0", "4"]])
    assert main(["derive", src, "--via", "yau",
                 "--atilde", scaling, "--btilde", scaling]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tables"]["mu"][1][1][2] == "4"
    # a non-multiplicative twist map is an axiom failure, exit 1
    shift = json.dumps([["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]])
    assert main(["derive", src, "--via", "yau",
                 "--atilde", shift, "--btilde", shift]) == 1


def test_cli_derive_missing_block(tmp_path, capsys, qx3):
    src = write_spec(tmp_path, "a.json", qx3)
    assert main(["derive", src, "--via", "rb-tridend"]) == 2


def test_cli_derive_rb_twistor_and_compose(tmp_path, capsys, qx3, qx3_rb):
    src = write_spec(tmp_path, "a.json", qx3, {"rota_baxter": qx3_rb})
    tw_path = tmp_path / "tw.json"
    assert main(["derive", src, "--via", "rb-twistor", "-o", str(tw_path)]) == 0
    parts = parse_spec(tw_path.read_text())
    assert "twistor" in parts
    # compose the twistor with itself in commuting mode over the base algebra
    base = write_spec(tmp_path, "base.json", qx3,
                      {"twistor": parts["twistor"]})
    assert main(["derive", base, base, "--via", "compose-twistor",
                 "--mode", "commuting"]) == 0


@pytest.mark.parametrize("via", ["rb-double", "tensor-quadri", "quadri-h",
                                 "quadri-v", "split-null", "grb-dend",
                                 "pair-quadri"])
def test_cli_derive_emits_the_library_construction(via, tmp_path, capsys, qx2,
                                                   qx2_rb, qx3, qx3_rb):
    M, pi = BiHomBimodule.regular(qx3), GRBOperator(qx3_rb.map)
    P = RBOperator(qx3_rb.map.compose(qx3_rb.map), Q.zero())
    D = tridend_to_dend(rb_derive(qx2, qx2_rb))
    Qd = rb_dendriform_to_quadri(D, qx2_rb)
    full = {"structure": qx3, "rota_baxter": qx3_rb, "bimodule": M, "grb": pi}
    first, second, build = {
        "rb-double": (full, None, lambda: rb_double_product(qx3, qx3_rb)),
        "tensor-quadri": ({"structure": D}, {"structure": D},
                          lambda: tensor_quadri(D, D)),
        "quadri-h": ({"structure": Qd}, None, lambda: quadri_projections(Qd)[0]),
        "quadri-v": ({"structure": Qd}, None, lambda: quadri_projections(Qd)[1]),
        "split-null": (full, None, lambda: split_null_extension(qx3, M)),
        "grb-dend": (full, None, lambda: grb_to_dendriform(M, pi)),
        "pair-quadri": (full, {"structure": qx3, "rota_baxter": P},
                        lambda: commuting_pair_quadri(qx3, qx3_rb, P)),
    }[via]
    argv = ["derive", write_spec(tmp_path, "a.json", first["structure"], first),
            "--via", via]
    if second:
        argv.insert(2, write_spec(tmp_path, "b.json", second["structure"], second))
    assert main(argv) == 0
    assert parse_spec(capsys.readouterr().out)["structure"] == build()


@pytest.mark.parametrize("via, extra, message", [
    ("tensor-quadri", [], "--via tensor-quadri needs a second spec file"),
    ("compose-twistor", [], "--via compose-twistor needs a second spec file"),
    ("pair-quadri", [], "--via pair-quadri needs a second spec file"),
    ("yau", ["--atilde", '[["1", "0"], ["0", "1"]]'],
     "--via yau needs --atilde and --btilde"),
])
def test_cli_derive_usage_exits_2(via, extra, message, tmp_path, capsys, qx2):
    argv = ["derive", write_spec(tmp_path, "a.json", qx2), "--via", via, *extra]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("via", ["rb-tridend", "rb-double", "yau", "quadri-h",
                                 "quadri-v", "split-null", "grb-dend",
                                 "rb-twistor"])
def test_cli_derive_refuses_a_stray_second_spec_file(via, tmp_path, capsys, qx2):
    # b.json does not exist: the refusal comes before any file is opened
    argv = ["derive", write_spec(tmp_path, "a.json", qx2),
            str(tmp_path / "b.json"), "--via", via]
    assert main(argv) == 2
    assert f"--via {via} takes no second spec file" in capsys.readouterr().err


@pytest.mark.parametrize("lacking", ["a.json", "b.json"])
def test_cli_missing_block_names_the_spec_file(lacking, tmp_path, capsys, qx3,
                                               qx3_rb):
    paths = {name: write_spec(tmp_path, name, qx3,
                              None if name == lacking else {"rota_baxter": qx3_rb})
             for name in ("a.json", "b.json")}
    assert main(["derive", paths["a.json"], paths["b.json"],
                 "--via", "pair-quadri"]) == 2
    assert (f"{paths[lacking]}: spec file lacks the required 'rota_baxter' block"
            in capsys.readouterr().err)


def test_cli_trees_enumerate(capsys):
    assert main(["trees", "enumerate", "-n", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert sorted(lines) == ["((L L) L)", "(L (L L))"]


def test_cli_trees_act(tmp_path, capsys, qx3, qx3_rb):
    src = write_spec(tmp_path, "a.json", qx3, {"rota_baxter": qx3_rb})
    elements = json.dumps([["0", "1", "0"], ["0", "1", "0"]])
    assert main(["trees", "act", "(L[0,0;0] L[0,0;0]){1}", src, elements]) == 0
    out = capsys.readouterr().out.strip()
    # R(x . x) = R(x^2) = 0 at the truncation edge
    assert out == "[0, 0, 0]"


def test_cli_trees_act_refuses_powers_past_the_limit(tmp_path, capsys):
    """alpha^100000000 on one leaf is a usage error naming the tree, exit 2,
    before any product (it used to compose alpha that many times)."""
    A = BiHomAssociativeAlgebra(Q, StructureTable(Q, (((Q.one(),),),)),
                                LinearMap(Q, ((Q.from_int(2),),)),
                                LinearMap.identity(Q, 1))
    src = write_spec(tmp_path, "a.json", A)
    assert main(["trees", "act", "L[100000000,0]", src, '[["1"]]']) == 2
    err = capsys.readouterr().err
    assert "tree: the tree's map powers sum to more than 1000000" in err
    assert main(["trees", "act", "L[3,0]", src, '[["1"]]']) == 0
    assert capsys.readouterr().out.strip() == "[8]"


def test_cli_trees_reduce(tmp_path, capsys):
    doc = {"field": {"kind": "rational"}, "rank": 1,
           "terms": [
               {"tree": "((L[0,0;0] L[0,0;0]){0} L[0,1;0]){0}",
                "word": [0, 0, 0], "coeff": "1"},
               {"tree": "(L[1,0;0] (L[0,0;0] L[0,0;0]){0}){0}",
                "word": [0, 0, 0], "coeff": "-1"}]}
    path = tmp_path / "elt.json"
    path.write_text(json.dumps(doc))
    assert main(["trees", "reduce", str(path), "--max-leaves", "3",
                 "--max-ab", "1", "--max-r", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["terms"] == []


def _element_file(path, terms, field=None, rank=1):
    path.write_text(json.dumps({"field": field or {"kind": "rational"}, "rank": rank,
                                "terms": [{"tree": t, "word": w, "coeff": c}
                                          for t, w, c in terms]}))
    return str(path.name)


# a 6-leaf tree, whose key is clipped in a refusal
LONG = "(" * 5 + "L[0,0;0] " + " ".join(["L[0,0;0]){0}"] * 5)
INSIDE = "((L[0,0;0] L[0,0;0]){0} L[0,1;0]){0}"


def test_cli_trees_reduce_refuses_a_term_outside_the_window_before_the_build(
        tmp_path, capsys, monkeypatch):
    """The first stored term outside the window is refused (exit 2), naming
    the file, the term's key clipped to 60 characters and the window, before
    the reducer is built, and before a window over budget is refused.  A
    term that cancels or has coefficient 0 is not stored, so it is
    accepted."""
    monkeypatch.chdir(tmp_path)

    def run(terms, leaves):
        elt = _element_file(tmp_path / "elt.json", terms)
        code = main(["trees", "reduce", elt, "--max-leaves", leaves, "--max-ab", "1",
                     "--max-r", "1"])
        return code, capsys.readouterr()

    gone = [("L[2,0;0]", [0], "1"), (INSIDE, [0, 0, 0], "1"), ("L[2,0;0]", [0], "-1"),
            ("L[0,0;5]", [0], "0")]
    code, out = run(gone, "3")
    assert code == 0 and json.loads(out.out)["terms"] != []
    built = []
    monkeypatch.setattr(trees, "truncated_ideal_reduce", lambda *a: built.append(a))
    key = trees.FreeElement.term_key(trees.parse_tree(LONG), (0,) * 6)
    assert run([*gone, (LONG, [0] * 6, "3"), ("L[0,0;2]", [0], "1")], "3") == (2, (
        "", f"error: elt.json: term {_clip(repr(key))} lies outside the window "
        "--max-leaves 3 --max-ab 1 --max-r 1\n"))
    assert _clip(repr(key)).endswith("…")
    # a window of 9 leaves is over budget; the element is refused first
    assert run([(INSIDE, [0, 0, 0], "1"), ("L[0,0;2]", [0], "1")], "9") == (2, (
        "", "error: elt.json: term 'L[0,0;2]|0' lies outside the window "
        "--max-leaves 9 --max-ab 1 --max-r 1\n"))
    assert built == []


TREE_POOL = ["L[0,0;0]", "L[1,0;0]", "L[0,0;1]", "(L[0,0;0] L[0,0;0]){0}",
             "(L[0,1;0] L[0,0;0]){1}", INSIDE]


@settings(max_examples=40, deadline=None)
@given(symbolic=st.booleans(),
       rank=st.integers(1, 2),
       picks=st.lists(st.tuples(st.integers(0, len(TREE_POOL) - 1),
                                st.integers(0, 7),
                                st.sampled_from(["1", "-1", "2", "-2", "1/2", "0",
                                                 "-1/2", "3"])), max_size=30))
def test_parse_element_adds_as_repeated_plus_does(symbolic, rank, picks):
    """The element file's parse gives the raw terms (keys, order, values and
    their types) of adding one generator per term with `+`, repeats,
    cancellations and terms that come back after cancelling included, and it
    calls neither FreeElement.__add__ nor copy, over Q and Q(a)."""
    F, field = ((FieldSpec.rational_function("a"),
                 {"kind": "rational_function", "params": ["a"]}) if symbolic
                else (Q, {"kind": "rational"}))
    terms = []
    for n, (i, w, c) in enumerate(picks):
        tree = trees.parse_tree(TREE_POOL[i])
        word = [(w >> b) % rank for b in range(tree.leaves)]
        if symbolic and n % 2:
            c = f"({c})*a"
        terms.append((TREE_POOL[i], word, c))
    text = json.dumps({"field": field, "rank": rank, "terms": [
        {"tree": t, "word": w, "coeff": c} for t, w, c in terms]})
    want = trees.FreeElement.zero(F, rank)
    for t, w, c in terms:
        want = want + trees.FreeElement.generator(F, rank, trees.parse_tree(t),
                                                  tuple(w), F.parse(c))
    calls = []
    add, copy = trees.FreeElement.__add__, trees.FreeElement.copy
    try:
        trees.FreeElement.__add__ = lambda x, y: calls.append("+") or add(x, y)
        trees.FreeElement.copy = lambda x: calls.append("copy") or copy(x)
        _, got = cli._parse_element(text)
    finally:
        trees.FreeElement.__add__, trees.FreeElement.copy = add, copy
    assert calls == []
    assert repr(list(got._t.items())) == repr(list(want._t.items()))


def test_cli_search(tmp_path, capsys):
    A = idempotent_line(3)
    src = write_spec(tmp_path, "a.json", A)
    assert main(["search", "rb", src, "--weight", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [json.loads(x) for x in lines] == [[["0"]], [["2"]]]
    assert main(["search", "baxter", src, "--side", "left"]) == 0


SEARCH_HELP = """\
usage: bihomalg search [-h] [--weight WEIGHT] [--side {left,right}]
                       [--jobs JOBS]
                       {rb,baxter} spec

positional arguments:
  {rb,baxter}
  spec

options:
  -h, --help           show this help message and exit
  --weight WEIGHT
  --side {left,right}
  --jobs JOBS
"""


def test_cli_search_jobs_keeps_the_stdout_bytes(tmp_path, capsys, monkeypatch):
    """--jobs is accepted for compatibility and changes no stdout byte,
    and the search help keeps its bytes."""
    src = write_spec(tmp_path, "a.json", prime_truncated(3, 3))
    runs = []
    for jobs in ([], ["--jobs", "3"]):
        assert main(["search", "rb", src, "--weight", "1", *jobs]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1] and runs[0].count("\n") > 1
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["search", "--help"]) == 0
    assert capsys.readouterr().out == SEARCH_HELP


def test_cli_search_budget(tmp_path, capsys, monkeypatch):
    """An over-budget search is a usage error naming the variable, as the
    trees budgets are, not a failed axiom."""
    A = prime_truncated(3, 3)
    src = write_spec(tmp_path, "a.json", A)
    monkeypatch.setenv(BUDGET_ENV_VAR, "10")
    assert main(["search", "rb", src]) == 2
    assert capsys.readouterr() == ("", f"error: {BUDGET_ENV_VAR}: 19683 candidate "
                                       "matrices exceed the budget of 10\n")


@pytest.mark.parametrize("value", ["abc", "-5", "0",
                                   pytest.param("x" * 5000, id="long")])
def test_search_budget_must_be_a_positive_integer(value, tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, value)
    with pytest.raises(ValueError, match=BUDGET_ENV_VAR) as info:
        search.search_budget()
    assert len(str(info.value)) < 200
    src = write_spec(tmp_path, "a.json", idempotent_line(3))
    assert main(["search", "rb", src]) == 2
    err = capsys.readouterr().err
    assert BUDGET_ENV_VAR in err and len(err) < 200


def test_cli_verify_family(capsys):
    assert main(["verify-family", "w1f3"]) == 0
    assert main(["verify-family", "w0f1", "--mode", "sampled",
                 "--samples", json.dumps([{"a": 2, "b": 3, "r": 5}])]) == 0
    # a = 0 is outside the family's domain: a malformed sample, exit 2
    assert main(["verify-family", "w0f1", "--mode", "sampled",
                 "--samples", json.dumps([{"a": 0, "b": 3, "r": 5}])]) == 2
    assert main(["verify-family", "w0f1", "--mode", "sampled"]) == 2


def test_cli_verify_family_evaluates_each_sample_once(monkeypatch, capsys):
    calls = {}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
            return fn(*args)
        return wrapper

    for name in ("evaluate_two_param_algebra", "evaluate_rb_family"):
        monkeypatch.setattr(families, name, counted(getattr(families, name)))
    samples = [{"a": 2, "b": 3, "r": 5}, {"a": 1, "b": -1, "r": 1}]
    assert main(["verify-family", "w0f1", "--mode", "sampled",
                 "--samples", json.dumps(samples)]) == 0
    assert "passed" in capsys.readouterr().out
    assert calls == {"evaluate_two_param_algebra": 2, "evaluate_rb_family": 2}


# top-level spec keys and a value of the wrong shape for each
MALFORMED_SPECS = {"tables": "mu", "rota_baxter": [], "baxter": [],
                   "bimodule": [], "twistor": "T", "dim": True}


# a prime field's p and the refusal it gives
MALFORMED_FIELD_P = {
    "field-p-float": (5.9, "field.p: must be an integer"),
    "field-p-string": ("5", "field.p: must be an integer"),
    "field-p-not-prime": (4, "field.p: 4 is not prime"),
    "field-p-out-of-range": (2 ** 89 - 1, "field.p: 618970019642690137449562111 "
                                          "is out of range"),
}

# --samples of verify-family (family, samples) and the refusal: a point
# outside a family's domain or one missing a parameter is malformed input
MALFORMED_SAMPLES = {
    "samples-a-zero": ("w0f1", [{"a": 0, "b": 3, "r": 5}],
                       "--samples[0]: denominator evaluates to zero"),
    "samples-r2-zero": ("w0f2", [{"a": 2, "b": 3, "r1": 1, "r2": 0}],
                        "--samples[0]: denominator evaluates to zero"),
    "samples-missing-r": ("w0f1", [{"a": 2, "b": 3, "r": 1}, {"a": 2, "b": 3}],
                          "--samples[1]: no value for parameter 'r'"),
    "samples-unknown-key-long": ("w0f1", [{"z" * 5000: 1}],
                                 "--samples[0]: unknown parameter 'zzz"),
    # before, the message did not name --samples
    "samples-empty": ("w0f1", [], "--samples: sampled mode needs at least one"),
}

# `trees reduce` bounds (--max-leaves, --max-ab, --max-r), the element's
# rank and the refusal; (6, 1, 1) spans 359,829,640 basis terms at rank 1,
# and at rank 0 the reducer would still walk the 178,405,157 tree shapes of
# (20, 0, 0) with up to 18 leaves
MALFORMED_WINDOWS = {
    "trees-reduce-max-leaves-0": ((0, 1, 1), 1, "--max-leaves: must be"),
    "trees-reduce-max-ab-negative": ((3, -1, 1), 1, "--max-ab: must be"),
    "trees-reduce-max-r-negative": ((3, 1, -1), 1, "--max-r: must be"),
    "trees-reduce-window-6-1-1": ((6, 1, 1), 1, "--max-leaves: the window"),
    "trees-reduce-window-rank-0": ((20, 0, 0), 0, "--max-leaves: the window"),
}

# argv (SPEC stands for a written qx2 spec file) and the name the error gives;
# HUGE is past Python's limit of 4,300 digits for reading an integer
DEEP = 3000
HUGE = "1" * 5000
MALFORMED_ARGS = {
    "search-weight-1/0": (["search", "rb", "SPEC", "--weight", "1/0"],
                          "--weight"),
    "search-weight-nested": (["search", "rb", "SPEC", "--weight",
                              "(" * DEEP + "1" + ")" * DEEP], "--weight"),
    "search-weight-trailing": (["search", "rb", "SPEC", "--weight",
                                "1" + " 1" * DEEP], "--weight"),
    "trees-act-coordinate-1/0": (["trees", "act", "L[0,0]", "SPEC",
                                  '[["1/0", "0"]]'], "elements[0][0]"),
    "trees-act-coordinates-short": (["trees", "act", "L[0,0]", "SPEC",
                                     '[["1"]]'], "elements[0]: expected 2"),
    "trees-act-tree-nested": (["trees", "act", "(" * DEEP + "L" + " L)" * DEEP,
                               "SPEC", '[["1", "0"]]'], "tree: "),
    "trees-act-elements-nested": (["trees", "act", "L[0,0]", "SPEC",
                                   "[" * DEEP + "]" * DEEP], "elements: "),
    "trees-act-elements-5000-digits": (["trees", "act", "L[0,0]", "SPEC",
                                        f"[[{HUGE}]]"],
                                       "elements: Exceeds the limit"),
    "trees-act-element-count": (["trees", "act", "L[0,0]", "SPEC",
                                 '[["1", "0"], ["0", "1"]]'],
                                "elements: expected a matrix with 1 rows"),
    "trees-act-rb-tree-without-operator": (["trees", "act", "L[0,0;0]", "SPEC",
                                            '[["1", "0"]]'], "'rota_baxter'"),
    "samples-5000-digits": (["verify-family", "w0f1", "--mode", "sampled",
                             "--samples", f'[{{"a": {HUGE}}}]'],
                            "--samples: Exceeds the limit"),
    "atilde-5000-digits": (["derive", "SPEC", "--via", "yau", "--atilde",
                            f"[[{HUGE}]]", "--btilde", '[["1", "0"], ["0", "1"]]'],
                           "--atilde: Exceeds the limit"),
    # Catalan(n - 1) trees: 2674440 for n = 15, past the limit of 10**6
    "trees-enumerate-n-15": (["trees", "enumerate", "-n", "15"], "-n: more than"),
    "trees-enumerate-n-40": (["trees", "enumerate", "-n", "40"], "-n: more than"),
    "search-jobs-0": (["search", "rb", "SPEC", "--jobs", "0"], "--jobs: must be"),
    "search-jobs-negative": (["search", "rb", "SPEC", "--jobs", "-3"],
                             "--jobs: must be"),
}


# a file argument the CLI reads as JSON (argv, FILE standing for its path),
# the file's text and the refusal, which follows the file's path
REDUCE = ["trees", "reduce", "FILE", "--max-leaves", "3", "--max-ab", "1",
          "--max-r", "1"]
MALFORMED_JSON_FILES = {
    "spec-nested": (["check", "FILE"], "[" * DEEP + "]" * DEEP,
                    "maximum recursion depth"),
    "spec-5000-digits": (["check", "FILE"], f'{{"dim": {HUGE}}}',
                         "Exceeds the limit"),
    "trees-reduce-element-nested": (REDUCE, "[" * DEEP + "]" * DEEP,
                                    "maximum recursion depth"),
    "trees-reduce-element-5000-digits": (REDUCE, f'{{"rank": {HUGE}}}',
                                         "Exceeds the limit"),
}


@pytest.mark.parametrize("case", [
    *(f"spec:{key}" for key in MALFORMED_SPECS), *MALFORMED_JSON_FILES,
    "field-params-string", "trees-reduce-without-field", "trees-enumerate-n-0",
    "trees-enumerate-n-negative", "atilde-not-a-matrix", "atilde-wrong-shape",
    "samples-not-objects", "samples-unknown-key", *MALFORMED_FIELD_P,
    *MALFORMED_ARGS, "trees-reduce-tree-without-powers",
    "trees-reduce-member-outside-window",
    "field-params-long-name", "field-kind-long", "field-p-4001-digits",
    *MALFORMED_WINDOWS, *MALFORMED_SAMPLES])
def test_cli_malformed_input_exits_2_naming_it(case, tmp_path, capsys, qx2,
                                               monkeypatch):
    if case in MALFORMED_WINDOWS:
        bounds, rank, expected = MALFORMED_WINDOWS[case]
        element = tmp_path / "elt.json"
        element.write_text(json.dumps(
            {"field": {"kind": "rational"}, "rank": rank, "terms": []}))
        argv = ["trees", "reduce", str(element)]
        for flag, bound in zip(("--max-leaves", "--max-ab", "--max-r"), bounds):
            argv += [flag, str(bound)]
    elif case in MALFORMED_ARGS:
        argv, expected = MALFORMED_ARGS[case]
        argv = [write_spec(tmp_path, "a.json", qx2) if a == "SPEC" else a
                for a in argv]
    elif case in MALFORMED_SAMPLES:
        family, samples, expected = MALFORMED_SAMPLES[case]
        argv = ["verify-family", family, "--mode", "sampled",
                "--samples", json.dumps(samples)]
    elif case in MALFORMED_FIELD_P:
        # p must be an integer (not read through int()) and a prime in range
        p, expected = MALFORMED_FIELD_P[case]
        doc = json.loads(spec_text(qx2))
        doc["field"] = {"kind": "prime", "p": p}
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        argv = ["check", str(spec)]
    elif case in MALFORMED_JSON_FILES:
        argv, text, expected = MALFORMED_JSON_FILES[case]
        path = tmp_path / "in.json"
        path.write_text(text)
        argv = [str(path) if a == "FILE" else a for a in argv]
        expected = f"{path}: {expected}"
    elif case == "trees-reduce-member-outside-window":
        # the benchmark's ideal member has alpha and beta powers 1; a
        # relative path keeps the line short
        (tmp_path / "member.json").write_text(
            (BENCH / "inputs" / "trees_member.json").read_text())
        monkeypatch.chdir(tmp_path)
        argv = ["trees", "reduce", "member.json", "--max-leaves", "3",
                "--max-ab", "0", "--max-r", "1"]
        expected = ("error: member.json: term '((L[0,0;0] L[0,0;0]){0} "
                    "L[1,1;1]){0}|0,0,0' lies outside the window "
                    "--max-leaves 3 --max-ab 0 --max-r 1\n")
    elif case == "trees-reduce-tree-without-powers":
        element = tmp_path / "elt.json"
        element.write_text(json.dumps({
            "field": {"kind": "rational"}, "rank": 1,
            "terms": [{"tree": "L[0,0]", "word": [0], "coeff": "1"}]}))
        argv = ["trees", "reduce", str(element), "--max-leaves", "3",
                "--max-ab", "1", "--max-r", "1"]
        expected = "terms[0].tree"
    elif case.startswith("spec:"):
        key = case[5:]
        doc = json.loads(spec_text(qx2))
        doc[key] = MALFORMED_SPECS[key]
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        argv, expected = ["check", str(spec)], f"{key}: must be"
    elif case == "field-p-4001-digits":
        # p is echoed in part; a relative spec path keeps the rest of the
        # line, the path and the limit on p, short
        doc = json.loads(spec_text(qx2))
        doc["field"] = {"kind": "prime", "p": 10 ** 4000}
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        argv = ["check", "bad.json"]
        expected = "field.p: 1" + "0" * 59 + "… is out of range"
    elif case == "field-kind-long":
        doc = json.loads(spec_text(qx2))
        doc["field"] = {"kind": "x" * 9000}
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        argv, expected = ["check", str(spec)], "field: unknown field kind 'xxx"
    elif case.startswith("field-params-"):
        # a string must not be read letter by letter as the field Q(a, b),
        # and a bad name is echoed only in part
        params, expected = {
            "field-params-string": ("ab", "field.params: must be"),
            "field-params-long-name": (["a b" * 3000],
                                       "field.params: bad parameter name"),
        }[case]
        doc = json.loads(spec_text(qx2))
        doc["field"] = {"kind": "rational_function", "params": params}
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        argv = ["check", str(spec)]
    elif case.startswith("trees-enumerate-n-"):
        n = "0" if case.endswith("0") else "-2"
        argv, expected = ["trees", "enumerate", "-n", n], "-n: must be"
    elif case == "trees-reduce-without-field":
        element = tmp_path / "elt.json"
        element.write_text(json.dumps({"rank": 1, "terms": []}))
        argv = ["trees", "reduce", str(element), "--max-leaves", "3",
                "--max-ab", "1", "--max-r", "1"]
        expected = "missing required key 'field'"
    elif case == "atilde-not-a-matrix":
        argv = ["derive", write_spec(tmp_path, "a.json", qx2), "--via", "yau",
                "--atilde", "5", "--btilde", "5"]
        expected = "--atilde"
    elif case == "atilde-wrong-shape":
        argv = ["derive", write_spec(tmp_path, "a.json", qx2), "--via", "yau",
                "--atilde", "[[]]", "--btilde", "[[]]"]
        expected = "atilde: expected a matrix with 2 rows"
    elif case == "samples-not-objects":
        argv = ["verify-family", "w0f1", "--mode", "sampled",
                "--samples", "[1]"]
        expected = "--samples[0]"
    else:
        argv = ["verify-family", "w0f1", "--mode", "sampled", "--samples",
                json.dumps([{"a": 1, "b": 1, "r": 1},
                            {"a": 1, "b": 1, "r": 1, "zz": 1}])]
        expected = "--samples[1]: unknown parameter 'zz'"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert expected in err
    # a rejected literal is echoed only in part
    assert all(len(line) < 200 for line in err.splitlines())


@pytest.mark.parametrize("name, argv", wl_symbolic.cli_cases(),
                         ids=[name for name, _ in wl_symbolic.cli_cases()])
def test_cli_replays_the_benchmark_goldens(name, argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (BENCH / "golden" / f"cli_{name}.out").read_text()


def test_cli_trees_reduce_writes_the_stored_terms_without_parsing_them(
        monkeypatch, capsys):
    """The ideal member reduces to no terms and the generic element keeps
    four; both print their goldens, from the same parse_tree calls (reading
    the file and building the window): no output key is parsed back into a
    tree."""
    parse, texts, calls = trees.parse_tree, [], {}
    monkeypatch.setattr(trees, "parse_tree", lambda text: (texts.append(text), parse(text))[1])
    for name, argv in wl_trees.CLI_CASES:
        if name.startswith("trees_reduce"):
            texts.clear()
            assert main(argv) == 0
            golden = (BENCH / "golden" / f"cli_{name}.out").read_text()
            assert capsys.readouterr().out == golden
            calls[name] = len(texts)
    assert calls["trees_reduce_member"] == calls["trees_reduce_generic"] > 0


# a non-ASCII digit in a tree or scalar literal: '²' was passed to int(),
# which leaked its own message, and '٣' was read as 3
NON_ASCII_DIGITS = {
    "tree-superscript": (["trees", "act", "L[²,0]", "SPEC", '[["1", "0"]]'],
                         "error: tree: tree syntax error at 2: expected an integer\n"),
    "tree-arabic-indic": (["trees", "act", "L[٣,0]", "SPEC", '[["1", "0"]]'],
                          "error: tree: tree syntax error at 2: expected an integer\n"),
    "weight-superscript": (["search", "rb", "SPEC", "--weight", "²"],
                           "error: --weight: bad scalar literal '²': "
                           "bad character '²' in scalar literal at 0\n"),
    "weight-arabic-indic": (["search", "rb", "SPEC", "--weight", "1٣"],
                            "error: --weight: bad scalar literal '1٣': "
                            "bad character '٣' in scalar literal at 1\n"),
}


@pytest.mark.parametrize("case", list(NON_ASCII_DIGITS))
def test_cli_literals_take_ascii_digits_only(case, tmp_path, capsys, qx2):
    argv, err = NON_ASCII_DIGITS[case]
    argv = [write_spec(tmp_path, "a.json", qx2) if a == "SPEC" else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", err)


# a count flag in anything but ASCII digits: int() read '٣' as 3, and took
# '1_000', '+5' and ' 7 ' too; each is refused naming its flag
COUNT_FLAGS = {
    "jobs": (["search", "rb", "SPEC", "--jobs", "N"], "--jobs: must be a positive integer"),
    "n": (["trees", "enumerate", "-n", "N"], "-n: must be a positive integer"),
    "max-leaves": (["trees", "reduce", "ELEMENT", "--max-leaves", "N", "--max-ab", "1",
                    "--max-r", "1"], "--max-leaves: must be a positive integer"),
    "max-ab": (["trees", "reduce", "ELEMENT", "--max-leaves", "3", "--max-ab", "N",
                "--max-r", "1"], "--max-ab: must be a non-negative integer"),
    "max-r": (["trees", "reduce", "ELEMENT", "--max-leaves", "3", "--max-ab", "1",
               "--max-r", "N"], "--max-r: must be a non-negative integer"),
}


COUNT_TEXTS = {"arabic-indic": "٣", "digit-arabic-indic": "1٣", "superscript": "²",
               "underscore": "1_000", "plus": "+5", "spaces": " 7 ", "newline": "7\n",
               "empty": "", "exponent": "1e3", "5000-digits": HUGE}


@pytest.mark.parametrize("value", COUNT_TEXTS.values(), ids=COUNT_TEXTS)
@pytest.mark.parametrize("flag", list(COUNT_FLAGS))
def test_cli_counts_take_ascii_digits_only(flag, value, tmp_path, capsys):
    argv, message = COUNT_FLAGS[flag]
    element = tmp_path / "elt.json"
    element.write_text(json.dumps({"field": {"kind": "rational"}, "rank": 1, "terms": []}))
    files = {"SPEC": write_spec(tmp_path, "a.json", idempotent_line(3)),
             "ELEMENT": str(element)}
    argv = [value if a == "N" else files.get(a, a) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # the same flags in ASCII digits run
    assert main([("3" if "enumerate" in argv else "1") if a == value else a
                 for a in argv]) == 0


@pytest.mark.parametrize("value", ["٢", "1_000", "+5", " 7 "],
                         ids=["arabic-indic", "underscore", "plus", "spaces"])
def test_search_budget_takes_ascii_digits_only(value, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, value)
    with pytest.raises(ValueError, match=f"{BUDGET_ENV_VAR} must be a positive integer"):
        search.search_budget()
    src = write_spec(tmp_path, "a.json", idempotent_line(3))
    assert main(["search", "rb", src]) == 2
    assert f"error: {BUDGET_ENV_VAR} must be a positive integer" in capsys.readouterr().err
    monkeypatch.setenv(BUDGET_ENV_VAR, "1000")
    assert search.search_budget() == 1000


def test_cli_maps_the_library_budget_refusals_to_exit_2(tmp_path, capsys, monkeypatch):
    """The trees budgets live in bihomalg.trees; the CLI names the flag."""
    monkeypatch.setattr(trees, "TREES_LIMIT", 14)
    assert main(["trees", "enumerate", "-n", "6"]) == 2
    assert capsys.readouterr() == ("", "error: -n: more than 14 trees have 6 leaves\n")
    element = tmp_path / "elt.json"
    element.write_text(json.dumps({"field": {"kind": "rational"}, "rank": 1, "terms": []}))
    # (2, 1, 0) at rank 1: 1·4·1 + 1·16·1 = 20 basis terms
    assert main(["trees", "reduce", str(element), "--max-leaves", "2",
                 "--max-ab", "1", "--max-r", "0"]) == 2
    assert capsys.readouterr() == (
        "", "error: --max-leaves: the window spans more than 14 basis terms\n")

"""The built-in two-parameter 2-dimensional BiHom-associative algebra and its
six parametric Rota-Baxter families, with symbolic and sampled verification.

The algebra depends on parameters a (nonzero) and b; the families are named
w0f1, w0f2 (weight 0) and w1f1 .. w1f4 (weight 1) and depend on extra
parameters r or (r1, r2) with r2 nonzero.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import LinearMap, StructureTable, _nest
from .rota_baxter import RBOperator, check_rota_baxter
from .scalars import FieldSpec, Scalar
from .structures import BiHomAssociativeAlgebra, CheckReport

SYMBOLIC_FIELD = FieldSpec.rational_function("a", "b", "r", "r1", "r2")


def two_param_algebra(field: FieldSpec, a: Scalar, b: Scalar) -> BiHomAssociativeAlgebra:
    """The 2-dimensional algebra with mu(e1,e1)=e1, mu(e1,e2)=b e1+(1-a)e2,
    mu(e2,e1)=b(1-a)/a e1 + a e2, mu(e2,e2)=(b/a) e2, alpha matching the
    mu(e2,e1) column and beta matching the mu(e1,e2) column.  Needs a != 0."""
    one, zero = field.one(), field.zero()
    if a.is_zero():
        raise ZeroDivisionError("the parameter a must be nonzero")
    c21_1 = b * (one - a) / a
    mu = StructureTable(field, (
        ((one, zero), (b, one - a)),
        ((c21_1, a), (zero, b / a)),
    ))
    alpha = LinearMap(field, ((one, c21_1), (zero, a)))
    beta = LinearMap(field, ((one, b), (zero, one - a)))
    return BiHomAssociativeAlgebra(field, mu, alpha, beta)


def symbolic_two_param_algebra() -> BiHomAssociativeAlgebra:
    f = SYMBOLIC_FIELD
    return two_param_algebra(f, f.parameter("a"), f.parameter("b"))


# by family id: its weight (0 or 1), the parameters it reads, and its
# matrix built from one, zero and those parameters
_FAMILIES = {
    "w0f1": (0, ("r",), lambda one, zero, r: ((zero, r), (zero, zero))),
    "w0f2": (0, ("r1", "r2"),
             lambda one, zero, r1, r2: ((r1, -(r1 * r1) / r2), (r2, -r1))),
    "w1f1": (1, ("r",), lambda one, zero, r: ((-one, r), (zero, zero))),
    "w1f2": (1, ("r",), lambda one, zero, r: ((zero, r), (zero, -one))),
    "w1f3": (1, (), lambda one, zero: ((-one, zero), (zero, -one))),
    "w1f4": (1, ("r1", "r2"), lambda one, zero, r1, r2: (
        (r1, -(r1 * (r1 + one)) / r2), (r2, -(r1 + one)))),
}

FAMILY_IDS = tuple(_FAMILIES)


def rb_family(family_id: str, field: FieldSpec, r: Scalar | None = None,
              r1: Scalar | None = None, r2: Scalar | None = None) -> RBOperator:
    """One of the six built-in parametric Rota-Baxter operators on the
    2-dimensional algebra; pass r for the single-parameter families and
    (r1, r2) for w0f2 / w1f4 (r2 nonzero)."""
    one, zero = field.one(), field.zero()
    if family_id not in FAMILY_IDS:
        raise ValueError(f"unknown family {family_id!r}; pick one of {FAMILY_IDS}")
    weight, names, entries = _FAMILIES[family_id]
    params = [{"r": r, "r1": r1, "r2": r2}[name] for name in names]
    if any(x is None for x in params):
        raise ValueError(f"family {family_id} needs {' and '.join(names)}")
    if "r2" in names and r2.is_zero():
        raise ZeroDivisionError("the parameter r2 must be nonzero")
    return RBOperator(LinearMap(field, entries(one, zero, *params)),
                      one if weight else zero)


def symbolic_rb_family(family_id: str) -> RBOperator:
    f = SYMBOLIC_FIELD
    return rb_family(family_id, f, r=f.parameter("r"),
                     r1=f.parameter("r1"), r2=f.parameter("r2"))


def _evaluated(x, assignment: dict[str, Fraction]):
    """The LinearMap or StructureTable x over Q(params), evaluated at the
    assignment, over Q."""
    return type(x)(FieldSpec.rational(), _nest(lambda s: s.evaluate(assignment),
                                               x._depth, x._boxed()))


def evaluate_two_param_algebra(assignment: dict[str, Fraction]) -> BiHomAssociativeAlgebra:
    """The symbolic algebra evaluated at rational parameter values."""
    A = symbolic_two_param_algebra()
    return BiHomAssociativeAlgebra(FieldSpec.rational(),
                                   _evaluated(A.mu, assignment),
                                   _evaluated(A.alpha, assignment),
                                   _evaluated(A.beta, assignment))


def evaluate_rb_family(family_id: str, assignment: dict[str, Fraction]) -> RBOperator:
    R = symbolic_rb_family(family_id)
    weight = R.weight.evaluate(assignment)  # Q's zero at weight 0
    return RBOperator(_evaluated(R.map, assignment), weight)


def _evaluated_family(family_id: str, assignment: dict[str, Fraction]):
    """The symbolic algebra and the family, evaluated at one assignment."""
    return (evaluate_two_param_algebra(assignment),
            evaluate_rb_family(family_id, assignment))


def _sampled_report(pairs) -> CheckReport:
    """check_rota_baxter on each (algebra, operator) pair, as one report."""
    if not pairs:
        raise ValueError("sampled mode needs at least one assignment")
    combined = CheckReport()
    for A, R in pairs:
        rep = check_rota_baxter(A, R)
        combined.violations.extend(rep.violations)
        combined.total_violations += rep.total_violations
        for k, v in rep.sub_checks.items():
            combined.sub_checks[k] = combined.sub_checks.get(k, True) and v
    return combined


def verify_parametric_family(family_id: str, mode: str = "symbolic",
                             samples=None) -> CheckReport:
    """Check the Rota-Baxter identity for one of the six built-in families.

    mode="symbolic" verifies the identity over the rational-function field
    in (a, b, r, r1, r2); mode="sampled" evaluates the family at each given
    assignment dict and checks over the rationals.  Samples whose denominators
    vanish raise EvalSingular.
    """
    if mode == "symbolic":
        A = symbolic_two_param_algebra()
        return check_rota_baxter(A, symbolic_rb_family(family_id))
    if mode != "sampled":
        raise ValueError(f"mode must be 'symbolic' or 'sampled', got {mode!r}")
    return _sampled_report([
        _evaluated_family(family_id, {k: Fraction(v) for k, v in assignment.items()})
        for assignment in samples or ()])

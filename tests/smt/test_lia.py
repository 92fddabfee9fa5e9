"""Tests for the Omega-style integer linear arithmetic procedure."""

from itertools import product

from hypothesis import example, given, settings, strategies as st

from repro.smt import And, Eq, Int, check_sat, clear_solver_caches
from repro.smt import lia
from repro.smt.lia import (
    LinExpr,
    core_of_system,
    linexpr_of_term,
    solve_system,
)
from repro.smt.terms import Plus, Times, IntVal

x, y, z = Int("x"), Int("y"), Int("z")


def lin(coeffs, const=0):
    return LinExpr({var: c for var, c in coeffs.items()}, const)


def check_model(eqs, ineqs, model):
    for eq in eqs:
        assert eq.evaluate(model) == 0
    for ineq in ineqs:
        assert ineq.evaluate(model) <= 0


def test_trivial_sat():
    assert solve_system([], []) == {}


def test_single_bound():
    # x <= 5 and x >= 3  (as x - 5 <= 0 and 3 - x <= 0)
    ineqs = [lin({x: 1}, -5), lin({x: -1}, 3)]
    model = solve_system([], ineqs)
    assert model is not None
    assert 3 <= model[x] <= 5


def test_unsat_bounds():
    ineqs = [lin({x: 1}, -2), lin({x: -1}, 3)]  # x <= 2 and x >= 3
    assert solve_system([], ineqs) is None


def test_equality_simple():
    # x + y == 5, x >= 2, y >= 2
    eqs = [lin({x: 1, y: 1}, -5)]
    ineqs = [lin({x: -1}, 2), lin({y: -1}, 2)]
    model = solve_system(eqs, ineqs)
    assert model is not None
    check_model(eqs, ineqs, model)


def test_equality_gcd_unsat():
    # 2x + 4y == 3 has no integer solution
    eqs = [lin({x: 2, y: 4}, -3)]
    assert solve_system(eqs, []) is None


def test_equality_gcd_sat():
    # 2x + 4y == 6
    eqs = [lin({x: 2, y: 4}, -6)]
    model = solve_system(eqs, [])
    assert model is not None
    check_model(eqs, [], model)


def test_non_unit_coefficients():
    # 3x + 5y == 1 is solvable over Z (gcd 1)
    eqs = [lin({x: 3, y: 5}, -1)]
    model = solve_system(eqs, [])
    assert model is not None
    check_model(eqs, [], model)


def test_integer_tightening():
    # 2x <= 5  implies x <= 2 over integers; combined with x >= 3 -> unsat
    ineqs = [lin({x: 2}, -5), lin({x: -1}, 3)]
    assert solve_system([], ineqs) is None


def test_dark_shadow_gap():
    # 3 <= 2x <= 4 has x = 2 (2x = 4); 5 <= 2x <= 5 has none.
    sat_ineqs = [lin({x: -2}, 3), lin({x: 2}, -4)]
    model = solve_system([], sat_ineqs)
    assert model is not None
    check_model([], sat_ineqs, model)
    unsat_ineqs = [lin({x: -2}, 5), lin({x: 2}, -5)]
    assert solve_system([], unsat_ineqs) is None


def test_splinter_case():
    # Classic omega example: 2y <= x, x <= 2y+1 is satisfiable;
    # combined with 3z == x and tight window it exercises splinters.
    ineqs = [
        lin({y: 2, x: -1}, 0),   # 2y - x <= 0
        lin({x: 1, y: -2}, -1),  # x - 2y - 1 <= 0
        lin({x: -1}, 1),         # x >= 1
        lin({x: 1}, -10),        # x <= 10
    ]
    model = solve_system([], ineqs)
    assert model is not None
    check_model([], ineqs, model)


def test_three_variable_chain():
    # x < y < z, z <= x + 2 forces x+1 == y, x+2 == z
    ineqs = [
        lin({x: 1, y: -1}, 1),  # x - y + 1 <= 0  (x < y)
        lin({y: 1, z: -1}, 1),  # y < z
        lin({z: 1, x: -1}, -2),  # z <= x + 2
    ]
    model = solve_system([], ineqs)
    assert model is not None
    check_model([], ineqs, model)
    assert model[y] == model[x] + 1
    assert model[z] == model[x] + 2


def test_free_variable_gets_value():
    ineqs = [lin({x: -1}, 7)]  # x >= 7, y unconstrained elsewhere
    eqs = [lin({y: 1, z: -1}, 0)]  # y == z
    model = solve_system(eqs, ineqs)
    assert model is not None
    assert model[x] >= 7
    assert model[y] == model[z]


def test_linexpr_of_term_linear():
    term = Plus(Times(IntVal(2), x), y, IntVal(-3))
    expr = linexpr_of_term(term)
    assert expr.coeffs == {x: 2, y: 1}
    assert expr.const == -3


def test_linexpr_of_term_nested_scale():
    term = Times(IntVal(3), Plus(x, IntVal(1)))
    expr = linexpr_of_term(term)
    assert expr.coeffs == {x: 3}
    assert expr.const == 3


@settings(max_examples=150, deadline=None)
@given(
    a=st.integers(-6, 6),
    b=st.integers(-6, 6),
    c=st.integers(-20, 20),
    lo=st.integers(-10, 10),
    hi=st.integers(-10, 10),
)
def test_random_two_var_systems_agree_with_bruteforce(a, b, c, lo, hi):
    """Compare the solver against brute force on a bounded 2-var system.

    System: a*x + b*y + c <= 0, lo <= x <= hi, lo <= y <= hi.
    """
    if lo > hi:
        lo, hi = hi, lo
    ineqs = [
        lin({x: a, y: b}, c),
        lin({x: -1}, lo),
        lin({x: 1}, -hi),
        lin({y: -1}, lo),
        lin({y: 1}, -hi),
    ]
    brute = any(
        a * vx + b * vy + c <= 0
        for vx in range(lo, hi + 1)
        for vy in range(lo, hi + 1)
    )
    model = solve_system([], ineqs)
    if brute:
        assert model is not None
        check_model([], ineqs, model)
    else:
        assert model is None


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(1, 8),
    b=st.integers(-8, 8),
    c=st.integers(-30, 30),
)
def test_random_equalities_agree_with_bruteforce(a, b, c):
    """a*x + b*y == c with 0 <= x,y <= 12 compared against brute force."""
    eqs = [lin({x: a, y: b}, -c)]
    ineqs = [
        lin({x: -1}, 0),
        lin({x: 1}, -12),
        lin({y: -1}, 0),
        lin({y: 1}, -12),
    ]
    brute = any(
        a * vx + b * vy == c
        for vx in range(0, 13)
        for vy in range(0, 13)
    )
    model = solve_system(eqs, ineqs)
    if brute:
        assert model is not None
        check_model(eqs, ineqs, model)
    else:
        assert model is None


# -- equality elimination with non-unit pivots -----------------------------


def test_euclidean_rewrite_reaches_remaining_equalities():
    # x == y and 2x + 3y == 5: the pivot x has coefficient 2, and the
    # Euclidean change of variables must rewrite x == y as well.
    assert check_sat(And(Eq(x, y), Eq(2 * x + 3 * y, 5))).is_sat
    eqs = [lin({x: 1, y: -1}), lin({x: 2, y: 3}, -5)]
    model = solve_system(eqs, [])
    assert model == {x: 1, y: 1}


def test_euclidean_rewrite_keeps_earlier_equalities_satisfied():
    eqs = [lin({x: 1, z: -1}, -2), lin({x: 3, y: 5}, -1)]
    model = solve_system(eqs, [])
    assert model is not None
    check_model(eqs, [], model)


def test_clear_solver_caches_empties_certificate_plan_memo():
    eqs = [(lin({x: 1, y: -1}), frozenset({0}))]
    ineqs = [
        (lin({x: 1}, -1), frozenset({1})),
        (lin({y: -1}, 2), frozenset({2})),
    ]
    clear_solver_caches()
    assert core_of_system(eqs, ineqs) == frozenset({0, 1, 2})
    assert lia._ELIM_PLAN_MEMO
    clear_solver_caches()
    assert not lia._ELIM_PLAN_MEMO


# -- brute-force properties over a small box -------------------------------

BOX = range(-8, 9)
VARS = (x, y, z)


#: Coefficients in -4..4, biased towards 0 and +-1 so that sparse rows,
#: unit pivots and chains of substitutions come up often.
_COEFFS = st.one_of(st.integers(-1, 1), st.integers(-4, 4))


def _row(draw, variables):
    coeffs = {var: draw(_COEFFS) for var in variables}
    return lin(coeffs, draw(st.integers(-6, 6)))


@st.composite
def systems(draw):
    variables = VARS[: draw(st.integers(2, 3))]
    eqs = [_row(draw, variables) for _ in range(draw(st.integers(1, 3)))]
    ineqs = [_row(draw, variables) for _ in range(draw(st.integers(0, 2)))]
    return variables, eqs, ineqs


def _has_box_solution(variables, eqs, ineqs):
    for point in product(BOX, repeat=len(variables)):
        model = dict(zip(variables, point))
        if all(eq.evaluate(model) == 0 for eq in eqs) and all(
            ineq.evaluate(model) <= 0 for ineq in ineqs
        ):
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(systems())
@example(((x, y), [lin({x: 1, y: -1}), lin({x: 2, y: 3}, -5)], []))
@example(
    ((x, y, z), [lin({x: 1, z: -1}, -2), lin({x: 3, y: 5}, -1)], [])
)
def test_random_systems_agree_with_bruteforce(system):
    variables, eqs, ineqs = system
    model = solve_system(eqs, ineqs)
    if model is None:
        assert not _has_box_solution(variables, eqs, ineqs)
        return
    for var in variables:
        model.setdefault(var, 0)
    check_model(eqs, ineqs, model)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_random_certificates_name_infeasible_rows(system):
    """Every tag set ``core_of_system`` returns names rows with no
    solution — on a cold plan and on a memo hit whose rows arrive in
    another order with other tags."""
    variables, eqs, ineqs = system
    n = len(eqs) + len(ineqs)
    for offset, order in ((0, 1), (n, -1)):
        eq_rows = [
            (eq, frozenset({offset + i})) for i, eq in enumerate(eqs)
        ][::order]
        ineq_rows = [
            (ineq, frozenset({offset + len(eqs) + j}))
            for j, ineq in enumerate(ineqs)
        ]
        core = core_of_system(eq_rows, ineq_rows)
        if core is None:
            continue
        assert solve_system(eqs, ineqs) is None
        named = {tag - offset for tag in core}
        assert not _has_box_solution(
            variables,
            [eq for i, eq in enumerate(eqs) if i in named],
            [
                ineq
                for j, ineq in enumerate(ineqs)
                if len(eqs) + j in named
            ],
        )

"""Symbolic oracle for the closed forms in profile.py.

Every quantity is derived with sympy from Q = 4(6+r^2)/(2+r^2)^2 alone,
checked exactly against the closed form the module documents, and then
compared pointwise with the numpy implementation.
"""

import numpy as np
import pytest

from ksmode import profile

sp = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

r, s = sp.symbols("r s", positive=True)
Q = 4 * (6 + r**2) / (2 + r**2) ** 2
D2INV_Q = sp.integrate(Q.subs(r, s) * s**2, (s, 0, r)) / r**2
# the localized l = 1 operator -d_r^2 + A d_r + B, with G = int_0^r Q' s^3 ds
G = sp.integrate(sp.diff(Q, r).subs(r, s) * s**3, (s, 0, r))
A = -2 / r + r / 2 - D2INV_Q
B = 2 / r**2 + 1 - 2 * Q - 2 * sp.diff(r**3 * sp.diff(Q, r) / G, r)

# (numpy function, expression derived from Q, closed form the module states)
DERIVED = {
    "q": (profile.q, Q, Q),
    "q_deriv1": (lambda x: profile.q_deriv(x, 1), sp.diff(Q, r),
                 -8 * r * (r**2 + 10) / (2 + r**2) ** 3),
    "q_deriv2": (lambda x: profile.q_deriv(x, 2), sp.diff(Q, r, 2),
                 8 * (3 * r**4 + 44 * r**2 - 20) / (2 + r**2) ** 4),
    "lambda_q": (profile.lambda_q, r * sp.diff(Q, r) + 2 * Q,
                 16 * (6 - r**2) / (2 + r**2) ** 3),
    "d2inv_q_closed": (profile.d2inv_q_closed, D2INV_Q, 4 * r / (2 + r**2)),
    "v2": (profile.v2, -sp.diff(Q, r) / r, 8 * (r**2 + 10) / (r**2 + 2) ** 3),
    "coef_a": (profile.coef_a, A, -2 / r + r / 2 - 4 * r / (2 + r**2)),
    "coef_b": (profile.coef_b, B, 2 / r**2 + 1 - 2 * Q
               + 2 * (r**4 + 28 * r**2 + 20) / (r**2 * (r**2 + 2) ** 2)),
}

# clear of the roots of Q'' and Lambda Q, where a relative bar means
# nothing, and of the far field, where r Q' + 2 Q loses about r^2/2 ulps
POINTS = np.array([0.05, 0.3, 1.6, 3.7, 6.0])


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_closed_form_is_exact(name):
    _, derived, closed = DERIVED[name]
    assert sp.cancel(derived - closed) == 0


def test_profile_equation_holds_exactly():
    laplacian = sp.diff(Q, r, 2) + 2 / r * sp.diff(Q, r)
    lambda_q = r * sp.diff(Q, r) + 2 * Q
    residual = -laplacian + lambda_q / 2 - Q**2 - sp.diff(Q, r) * D2INV_Q
    assert sp.simplify(residual) == 0


def test_u1_log_derivative_is_half_drift():
    u1 = sp.exp(r**2 / 8) / (r * (2 + r**2))
    assert sp.simplify(sp.diff(sp.log(u1), r) - A / 2) == 0


def test_u1_conjugation_gives_the_tilde_l1_prime_potential():
    # with (log U_1)' = A/2, U_1^{-1} (-d_r^2 + A d_r + B) U_1 = -d_r^2 + this
    potential = B - sp.diff(A, r) / 2 + A**2 / 4
    stated = 12 / r**2 + r**2 / 16 - 8 / (2 + r**2) - sp.Rational(3, 4)
    assert sp.cancel(potential - stated) == 0
    exact = sp.lambdify(r, stated, "mpmath")
    with mpmath.workdps(40):
        reference = np.array([float(exact(mpmath.mpf(x))) for x in POINTS])
    assert np.max(np.abs(profile.tilde_L1_prime_potential(POINTS) / reference
                         - 1.0)) <= 1e-14


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_numpy_matches_symbolic_value(name):
    fn, derived, _ = DERIVED[name]
    exact = sp.lambdify(r, derived, "mpmath")
    with mpmath.workdps(40):
        reference = np.array([float(exact(mpmath.mpf(x))) for x in POINTS])
    assert np.max(np.abs(fn(POINTS) / reference - 1.0)) <= 1e-14

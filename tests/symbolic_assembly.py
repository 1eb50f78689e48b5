"""Test-only independent assembly of the fourth-derivative decomposition.

The production code obtains the easy remainder by subtraction.  Here the
full Leibniz expansion of d^4 [kernel * tangent-difference] is derived
symbolically, each additive term is classified by its highest derivative
order (5 = dangerous, 4 = safe, <= 3 = easy), and the terms are evaluated
as pairwise quadratures with diagonal limits driven by the delta-power
bookkeeping of each factor:

  * a difference of j-th derivatives contributes one power of delta with
    leading coefficient d^{j+1}z(x);
  * sin / sinh of a difference contribute one power each (coefficients
    z1'(x), z2'(x)); cos / cosh contribute none;
  * the denominator contributes delta^2 per power with coefficient T/2.

Terms of positive total delta power vanish at the diagonal; weight-zero
terms take the product of leading coefficients.  Negative total weight
cannot occur, which the evaluation asserts.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from muskat import InterfaceState, SpectralGrid

from oracles import sampled

_X = sp.Symbol("x")
_Z1 = sp.Function("Z1")(_X)
_Z2 = sp.Function("Z2")(_X)
_DEN = sp.cosh(_Z2) - sp.cos(_Z1)
_DSYM = sp.Symbol("EvolutionDenominator", positive=True)


def expansion_terms(mu: int) -> list[sp.Expr]:
    """Additive terms of d^4 of the evolution integrand for component mu."""
    z_mu = _Z1 if mu == 1 else _Z2
    integrand = sp.sin(_Z1) * sp.Derivative(z_mu, _X) / _DEN
    expanded = sp.diff(integrand, _X, 4).subs(sp.cos(_Z1) - sp.cosh(_Z2), -_DSYM)
    expanded = sp.expand(expanded)
    assert not expanded.has(_DEN)
    return list(sp.Add.make_args(expanded))


def term_structure(term: sp.Expr):
    """(constant, {factor: power}, denominator power, max derivative order)."""
    const = sp.Integer(1)
    factors: dict[sp.Expr, int] = {}
    den_power = 0
    max_order = 0
    for factor in sp.Mul.make_args(term):
        if factor.is_Number:
            const *= factor
            continue
        base, exponent = factor.as_base_exp()
        if base == _DSYM:
            assert exponent.is_integer and exponent < 0
            den_power = -int(exponent)
            continue
        factors[base] = factors.get(base, 0) + int(exponent)
        if isinstance(base, sp.Derivative):
            max_order = max(max_order, base.derivative_count)
    return const, factors, den_power, max_order


def classify(terms: list[sp.Expr]):
    dangerous = [t for t in terms if term_structure(t)[3] >= 5]
    safe = [t for t in terms if term_structure(t)[3] == 4]
    easy = [t for t in terms if term_structure(t)[3] <= 3]
    return dangerous, safe, easy


def evaluate_terms(terms: list[sp.Expr], state: InterfaceState, grid: SpectralGrid):
    """Trapezoid quadrature of the summed terms, one value per node.

    The curve is sampled as real values, like the flat kernel workspace, so
    imaginary round-off amplified by six derivatives does not enter.
    """
    n = grid.n_modes
    x = grid.nodes
    z1 = x + grid.from_spectral(state.p1).real
    z2 = grid.from_spectral(state.p2).real
    diffs = {(1, 0): z1[:, None] - z1[None, :], (2, 0): z2[:, None] - z2[None, :]}
    point = {}
    for order in range(1, 7):
        d1, d2 = sampled(state, grid, order)
        diffs[(1, order)] = d1[:, None] - d1[None, :]
        diffs[(2, order)] = d2[:, None] - d2[None, :]
        point[(1, order)] = d1
        point[(2, order)] = d2
    tangent_sq = point[(1, 1)] ** 2 + point[(2, 1)] ** 2
    den = np.cosh(diffs[(2, 0)]) - np.cos(diffs[(1, 0)])
    np.fill_diagonal(den, 1.0)
    idx = np.arange(n)
    total = np.zeros(n, dtype=complex)
    for term in terms:
        const, factors, den_power, _ = term_structure(term)
        matrix = complex(const) * np.ones((n, n), dtype=complex)
        diagonal = complex(const) * np.ones(n, dtype=complex)
        weight = -2 * den_power
        for base, power in factors.items():
            if isinstance(base, sp.Derivative):
                mu = 1 if base.expr == _Z1 else 2
                order = base.derivative_count
                matrix = matrix * diffs[(mu, order)] ** power
                diagonal = diagonal * point[(mu, order + 1)] ** power
                weight += power
            elif base.func == sp.sin:
                matrix = matrix * np.sin(diffs[(1, 0)]) ** power
                diagonal = diagonal * point[(1, 1)] ** power
                weight += power
            elif base.func == sp.cos:
                matrix = matrix * np.cos(diffs[(1, 0)]) ** power
            elif base.func == sp.sinh:
                matrix = matrix * np.sinh(diffs[(2, 0)]) ** power
                diagonal = diagonal * point[(2, 1)] ** power
                weight += power
            elif base.func == sp.cosh:
                matrix = matrix * np.cosh(diffs[(2, 0)]) ** power
            else:
                raise AssertionError(f"unexpected factor {base}")
        matrix = matrix / den**den_power
        diagonal = diagonal / (tangent_sq / 2.0) ** den_power
        assert weight >= 0, f"negative total weight in {term}"
        matrix[idx, idx] = diagonal if weight == 0 else 0.0
        total = total + matrix.sum(axis=1) * grid.dx
    return total

"""The three benchmark workloads.

Together they split the nine acceptance criteria of ``ksmode verify-all``
between them, so they cover all of its computation:

* ``spectral-ladder``: criterion 3, the filtered eigen-scans for l = 0..6.
  Operator assembly and dense eigen solves do nearly all the work.
* ``renormalized-flow``: criterion 8, the CN and IMEX evolutions, the
  Newton steady state and the shooting bisections.  Time stepping does
  nearly all the work; dense eigen solves are 4 calls.
* ``identities``: criteria 1, 2, 4, 5 and 7 as written, plus 6 and 9
  rebuilt around inputs drawn from the benchmark seed.  Quadrature on
  large grids, the matrix-free and twin-kernel operator paths, ``ggmt``
  and ``waveop``.

Each workload calls the program's criteria the way ``verify-all`` does and
waits for each result (closed loop, one caller).  Only ``identities`` has
random inputs; the other two are fully determined by the program, so their
seed is accepted and recorded but changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ksmode import acceptance, evolution, ggmt, operators, profile, spectra
from ksmode.acceptance import Check
from ksmode.radial import RadialFunction, make_grid, weighted_inner


@dataclass(frozen=True)
class Workload:
    name: str
    uses_seed: bool
    setup: Callable[[int], object]       # seed -> inputs (grids, seeded data)
    roots: Callable[[object], list]      # inputs -> [(criterion key, fn)]


def _criterion(key):
    return key, acceptance.CRITERIA[key]


# -- spectral-ladder --------------------------------------------------------------

def _ladder_setup(seed):
    # The grids criterion 3 scans; the criterion builds its own copy inside
    # the pass, this one measures their construction as part of set-up.
    return spectra.refinement_ladder(n0=200, rmax0=40.0, levels=3,
                                     rmax_factors=(1, 2))


# -- renormalized-flow --------------------------------------------------------------

def _flow_setup(seed):
    return make_grid(400, 40.0, "uniform")


# -- identities -----------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityInputs:
    geometric: object                 # the 400-node grid of criteria 6 and 9
    uniform: object                   # the 400-node grid of the partial mass
    bumps: list                       # [(l, RadialFunction)] for criterion 6
    vectors: dict                     # {l: (10, n) array} for criterion 9


def _identities_setup(seed):
    geometric = make_grid(400, 40.0, ("geometric", 30.0 ** (1.0 / 399.0)))
    uniform = make_grid(400, 40.0, "uniform")
    # Same draw order as acceptance.criterion_coercivity, so the default
    # seed reproduces its bumps exactly.
    rng = np.random.default_rng(seed)
    bumps = [(l, acceptance.random_class_function(rng, geometric, l))
             for l in (3, 4, 5, 6) for _ in range(50)]
    vectors = {l: rng.standard_normal((10, geometric.n)) for l in (0, 1, 2, 3)}
    return IdentityInputs(geometric, uniform, bumps, vectors)


def coercivity_checks(bumps) -> list[Check]:
    """Criterion 6 on supplied bumps: coercivity and interpolation."""
    worst_margin = np.inf
    violations = 0
    for l, f in bumps:
        norm2 = float(np.real(weighted_inner(f, f, "r2")))
        margin = ggmt.coercivity_form(f, l) - norm2 / 8.0
        worst_margin = min(worst_margin, margin / norm2)
        violations += margin < 0.0
        _, _, ok = ggmt.interpolation_check(f, l, 4.0)
        violations += not ok
    return [
        Check("coercivity/interpolation violations over 200 samples",
              "coercivity.violations", float(violations), 0.0, violations == 0),
        Check("worst coercivity margin (relative)", "coercivity.margin",
              float(worst_margin), 0.0, bool(worst_margin >= 0.0)),
    ]


def cross_representation_checks(inputs: IdentityInputs) -> list[Check]:
    """Criterion 9 with the kernel-vs-factorized probes drawn from the seed."""
    grid = inputs.geometric
    worst = 0.0
    for l, xs in inputs.vectors.items():
        kern = operators.kernel_deltal_inv_matrix(grid, l)
        fact = operators.factorized_deltal_inv_matrix(grid, l)
        for x in xs:
            diff = np.max(np.abs((kern - fact) @ x))
            scale = max(1.0, np.max(np.abs(kern @ x)))
            worst = max(worst, diff / scale)
    g_u = inputs.uniform
    qv = profile.q(g_u.nodes)
    defect = evolution.partial_mass_crosscheck(RadialFunction(g_u, qv), 1e-3)
    m = evolution.partial_mass(RadialFunction(g_u, qv))
    h = g_u.nodes[1] - g_u.nodes[0]
    bound = 10.0 * (h * h + 1e-6) * float(np.max(np.abs(m)))
    return [
        Check("kernel vs factorized inverse Laplacian on random data",
              "crossrep.deltal_inv", worst, 1e-6, bool(worst <= 1e-6)),
        Check("partial-mass one-step defect", "crossrep.partial_mass",
              defect, bound, bool(defect <= bound)),
    ]


def _identities_roots(inputs):
    return [_criterion("1-ggmt"), _criterion("2-constants"),
            _criterion("4-waveop"), _criterion("5-schrodinger"),
            ("6-coercivity", lambda: coercivity_checks(inputs.bumps)),
            _criterion("7-profile"),
            ("9-cross-representation",
             lambda: cross_representation_checks(inputs))]


WORKLOADS = {
    "spectral-ladder": Workload(
        "spectral-ladder", False, _ladder_setup,
        lambda inputs: [_criterion("3-spectra")]),
    "renormalized-flow": Workload(
        "renormalized-flow", False, _flow_setup,
        lambda inputs: [_criterion("8-evolution")]),
    "identities": Workload(
        "identities", True, _identities_setup, _identities_roots),
}


def run_pass(roots, recorder=None) -> dict:
    """Run each criterion once; {key: [Check] or the exception it raised}."""
    results = {}
    for key, fn in roots:
        try:
            if recorder is None:
                results[key] = fn()
            else:
                with recorder.root(key):
                    results[key] = fn()
        except Exception as exc:  # a raising criterion counts as failed checks
            results[key] = exc
    return results

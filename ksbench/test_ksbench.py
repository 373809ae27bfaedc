"""Tests of the benchmark's own machinery.

    python3 -m pytest ksbench/test_ksbench.py

The pinned call counts are those of one traced pass at the commit that
defined the benchmark.  A change that alters how often the program calls a
traced function re-pins them in a benchmark change of its own.
"""

import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402
import scipy.linalg  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ksmode import evolution, operators, radial, spectra  # noqa: E402
from ksmode.acceptance import Check  # noqa: E402

PINNED_CALLS = {
    "spectral-ladder": {
        "acceptance.3-spectra": 1, "lapack.eig": 42,
        "operators._fd_matrix": 98, "operators._origin_ghost_coeffs": 98,
        "operators.assemble_Ll": 49, "operators.deriv1_matrix": 49,
        "operators.deriv2_matrix": 49, "operators.deriv_deltal_inv_matrix": 49,
        "operators.dk_inv_matrix": 91, "operators.lower_cum_matrix": 49,
        "operators.r2_mass_weights": 2, "operators.upper_cum_matrix": 42,
        "radial._trapezoid_weights": 6, "radial.make_grid": 6,
        "spectra._nearest": 6, "spectra.cosine_similarity": 2,
        "spectra.eig_dense": 42, "spectra.exponent_fits": 2,
        "spectra.refinement_ladder": 1, "spectra.unstable_scan": 7,
        "spectra.unstable_scan_detailed": 7,
    },
    "renormalized-flow": {
        "acceptance.8-evolution": 1, "evolution._check_solve": 22234,
        "evolution._departure": 60, "evolution._flux_jacobian": 4,
        "evolution._nl_rhs": 24364, "evolution.discrete_steady_profile": 1,
        "evolution.fit_rate": 4, "evolution.flow_linearization": 1,
        "evolution.linear_evolve": 3, "evolution.nonlinear_radial_evolve": 63,
        "evolution.shoot_stable_manifold": 2, "lapack.eig": 4,
        "lapack.lu_factor": 66, "lapack.lu_solve": 22297, "lapack.solve": 3,
        "operators._fd_matrix": 134, "operators._origin_ghost_coeffs": 134,
        "operators.assemble_Ll": 67, "operators.deriv1_matrix": 67,
        "operators.deriv2_matrix": 67, "operators.deriv_deltal_inv_matrix": 2,
        "operators.dk_inv_matrix": 3, "operators.lower_cum_matrix": 2,
        "operators.r2_mass_weights": 131, "operators.upper_cum_matrix": 1,
        "radial._trapezoid_weights": 1,
        "radial.cumulative_power_integral": 24364, "radial.make_grid": 1,
        "spectra.build_projection": 2, "spectra.eig_dense": 2,
        "spectra.exponent_fits": 2, "spectra.mode_report": 2,
        "spectra.nearest_eigenpair": 2,
    },
    "identities": {
        "acceptance.1-ggmt": 1, "acceptance.2-constants": 1,
        "acceptance.4-waveop": 1, "acceptance.5-schrodinger": 1,
        "acceptance.6-coercivity": 1, "acceptance.7-profile": 1,
        "acceptance.9-cross-representation": 1, "evolution._check_solve": 1,
        "evolution._nl_rhs": 3, "evolution.nonlinear_radial_evolve": 1,
        "evolution.partial_mass": 1, "evolution.partial_mass_crosscheck": 1,
        "ggmt.alpha_beta": 202, "ggmt.coercivity_form": 200,
        "ggmt.ggmt_count": 1, "ggmt.ggmt_prefactor": 2,
        "ggmt.interpolation_check": 200, "ggmt.l2_pipeline": 1,
        "ggmt.l3_rational_constants": 1, "ggmt.mu_functional": 1,
        "ggmt.negative_part_bracket": 2, "ggmt.paper_weight": 1,
        "ggmt.schrodinger_potential": 1, "lapack.eigvalsh": 1,
        "lapack.lu_factor": 1, "lapack.lu_solve": 2,
        "operators._fd_matrix": 2, "operators._origin_ghost_coeffs": 2,
        "operators._symmetric_schrodinger": 1, "operators.apply_Ll": 18,
        "operators.assemble_Ll": 1, "operators.assemble_tilde_L1_prime": 1,
        "operators.deriv1_matrix": 1, "operators.deriv2_matrix": 1,
        "operators.factorized_deltal_inv_matrix": 4,
        "operators.kernel_deltal_inv_matrix": 4,
        "operators.lower_cum_matrix": 8, "operators.r2_mass_weights": 9,
        "operators.upper_cum_matrix": 4, "radial._binom_series_coeffs": 20,
        "radial._shifted_power_integrals": 20, "radial._trapezoid_weights": 20,
        "radial.cumulative_power_integral": 624,
        "radial.cumulative_power_integral_cubic": 20,
        "radial.delta_l_inverse": 400, "radial.deriv_deltal_inverse": 218,
        "radial.dk_inverse": 432, "radial.fd_deriv1": 229,
        "radial.fd_deriv2": 27, "radial.fit_tail_exponent": 614,
        "radial.make_grid": 20, "radial.suffix_power_integral": 614,
        "radial.weighted_inner": 1800, "spectra.schrodinger_spectrum_check": 1,
        "waveop.apply_T": 20, "waveop.apply_tilde_L1": 9,
        "waveop.commutator_residual": 9,
        "waveop.potential_min_tilde_L1_prime": 1,
        "waveop.tilde_L1_prime_potential": 56,
    },
}


def traced_pass(name, seed):
    wl = workloads.WORKLOADS[name]
    roots = wl.roots(wl.setup(seed))
    rec = spans.Recorder()
    with spans.installed(rec):
        results = workloads.run_pass(roots, rec)
    return rec, results


def bindings_of(fn) -> list:
    return [(mod.__name__, attr) for mod in spans._namespaces()
            for attr, obj in vars(mod).items() if obj is fn]


def test_every_binding_is_replaced_and_restored():
    originals = {
        "assemble_Ll": operators.assemble_Ll,
        "cumulative_power_integral": radial.cumulative_power_integral,
        "eig": scipy.linalg.eig,
    }
    rec = spans.Recorder()
    with spans.installed(rec):
        for fn in originals.values():
            assert bindings_of(fn) == []
        assert spectra.assemble_Ll.__wrapped__ is originals["assemble_Ll"]
        assert evolution.assemble_Ll is operators.assemble_Ll
        assert (evolution.cumulative_power_integral.__wrapped__
                is originals["cumulative_power_integral"])
    assert spectra.assemble_Ll is originals["assemble_Ll"]
    assert evolution.assemble_Ll is originals["assemble_Ll"]
    assert evolution.cumulative_power_integral is originals["cumulative_power_integral"]
    assert scipy.linalg.eig is originals["eig"]


def test_installation_leaves_every_namespace_as_it_found_it():
    def snapshot():
        return {(mod.__name__, attr): obj for mod in spans._namespaces()
                for attr, obj in vars(mod).items()}
    before = snapshot()
    with spans.installed(spans.Recorder()):
        assert snapshot() != before
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", list(PINNED_CALLS))
def test_call_counts_match_pins_and_repeat(name):
    seeds = (20250809, 1) if name == "identities" else (1,)
    for seed in seeds:
        rec, results = traced_pass(name, seed)
        assert spans.call_counts(rec.spans) == PINNED_CALLS[name]
        assert reference.grade(name, results) == []


def test_self_time_subtracts_children_and_total_skips_recursion():
    # root [0, 10] > a [1, 6] > a [2, 4] > b [2.5, 3]
    fake = [("acceptance.x", 0.0, 10.0, -1), ("m.a", 1.0, 6.0, 0),
            ("m.a", 2.0, 4.0, 1), ("m.b", 2.5, 3.0, 2)]
    table = spans.function_table(fake)
    assert table["acceptance.x"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert table["m.a"] == {"calls": 2, "total_s": 5.0, "self_s": 4.5}
    assert table["m.b"]["self_s"] == 0.5


def test_grade_counts_drift_raise_and_acceptance_failures():
    refs = reference.REFERENCE["spectral-ladder"]
    checks = [Check(tag, tag, value, 0.0, True) for tag, value in refs.items()]
    checks.append(Check("runtime", "spectra.runtime", 1.0, 600.0, True))
    assert reference.grade("spectral-ladder", {"3-spectra": checks}) == []

    drifted = [Check(c.name, c.tag, c.value + 1e-6 if c.tag == "spectra.l0_eig"
                     else c.value, 0.0, c.passed) for c in checks]
    fails = reference.grade("spectral-ladder", {"3-spectra": drifted})
    assert len(fails) == 1 and "spectra.l0_eig" in fails[0]

    checks[-1] = Check("runtime", "spectra.runtime", 900.0, 600.0, False)
    assert len(reference.grade("spectral-ladder", {"3-spectra": checks})) == 1

    raised = reference.grade("spectral-ladder", {"3-spectra": RuntimeError("x")})
    assert len(raised) == len(reference.expected_tags("spectral-ladder"))

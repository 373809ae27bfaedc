"""Reference values of the acceptance checks, and the drift gate.

Every check a workload runs is graded three ways: it must pass its own
acceptance test, it must not raise, and, unless its value depends on the
seed or on the clock, it must stay within a drift tolerance of the value
recorded here.  The recorded values are the program's outputs with
OpenBLAS pinned to one thread on an Intel Xeon (AVX-512) machine.

Drift tolerances start from the round-off bar of 1e-10 relative.  Looser
ones carry their reason.  They were checked by re-running every workload
with numpy's SIMD kernels disabled (NPY_DISABLE_CPU_FEATURES), OpenBLAS
forced to its Haswell and Nehalem kernels (OPENBLAS_CORETYPE), and with two
BLAS threads; the largest drift each of those produced is quoted where it
sets a tolerance.
"""

from __future__ import annotations

ROUND_OFF = 1e-10

# Values independent of the seed, one dict per workload.
REFERENCE = {
    "spectral-ladder": {
        "spectra.l0_count": 1.0,
        "spectra.l0_eig": -0.9996074357518153,
        "spectra.l0_imag": 0.0,
        "spectra.l0_cosine": 0.9999999661207307,
        "spectra.l1_count": 1.0,
        "spectra.l1_eig": -0.499848051601204,
        "spectra.l1_imag": 0.0,
        "spectra.l1_cosine": 0.9999999773553062,
        "spectra.l2_empty": 0.0,
        "spectra.l3_empty": 0.0,
        "spectra.l4_empty": 0.0,
        "spectra.l5_empty": 0.0,
        "spectra.l6_empty": 0.0,
    },
    "renormalized-flow": {
        "evolution.rate_l0": 0.9975157969617391,
        "evolution.rate_l1": 0.5023090560505771,
        "evolution.stable_decay": 0.21020833735217956,
        "evolution.steady_drift": 0.07882136901452066,
        "evolution.shoot_conv_0.001": -2.3454427719116212e-08,
        "evolution.shoot_astar_0.001": 2.3454427719116212e-08,
        "evolution.shoot_conv_0.002": -9.372830390930176e-08,
        "evolution.shoot_astar_0.002": 9.372830390930176e-08,
        "evolution.shoot_exponent": 1.998624476259165,
    },
    "identities": {
        "ggmt.mu": 1.9137378961063614,
        "ggmt.bigN": 0.8686711625484446,
        "ggmt.bigN_lt_1": 0.8686711625484446,
        "constants.beta4": 0.027777777777777776,
        "constants.beta4_quad": 6.938893903907228e-18,
        "constants.alpha4": 0.6541678442236651,
        "constants.alpha4_lt": 0.6541678442236651,
        "constants.frac1": 0.047146636432350716,
        "constants.frac2": 0.1266439909297052,
        "waveop.t_dq": 2.8078869098695987e-11,
        "waveop.t_r": 3.552713678800501e-14,
        "waveop.commutator_gaussian-odd": 2.0949128660545653,
        "waveop.commutator_rational-odd": 1.934025486951505,
        "waveop.commutator_shifted-bump": 2.000154219854606,
        "schrodinger.min_ritz": 0.9669864856181836,
        "schrodinger.potential_min": 0.40820318374284126,
        "profile.elliptic": 1.6160683902199935e-14,
        "profile.first_integral": 8.881784197001252e-16,
        "profile.g_over_g_ode": 3.725290298461914e-09,
        "profile.eigen_l0_order": 2.1172956376728473,
        "profile.eigen_l1_order": 1.9807072464800477,
        "crossrep.partial_mass": 0.018959796995585153,
    },
}

# Residuals and defects: the value is a difference of much larger terms, so
# the round-off bar applies to the size of those terms, given here.
TERM_SCALE = {
    "spectra.l0_imag": 1.0,              # |lambda| = 1
    "spectra.l1_imag": 0.5,              # |lambda| = 1/2
    "constants.beta4_quad": 1.0 / 36.0,  # |quadrature - 1/36|
    "waveop.t_dq": 1.0,                  # ||T Q'|| / ||Q'||, terms of size ||Q'||
    "waveop.t_r": 48.0,                  # max |T[r]| on [0, 60]
    "profile.elliptic": 36.0,            # Q(0)^2
    "profile.first_integral": 3.8,       # max |Q'|
    # max |(Q'/G)''| on the window [0.1, 20]; the tolerance this gives is
    # wider than the acceptance bound 1e-6, which is then the binding gate.
    "profile.g_over_g_ode": 3.3e7,
    "crossrep.partial_mass": 2008.0,     # max |4 pi int_0^r Q s^2 ds|
}

# Tolerances looser than round-off, with the reason for each.
LOOSE = {
    # A slope fitted to the logs of three O(h^2) residuals built from second
    # differences, which amplify round-off by 1/h^2; the kernel swaps moved
    # the rational-odd order by 6.7e-10.
    "waveop.commutator_gaussian-odd": 1e-8,
    "waveop.commutator_rational-odd": 1e-8,
    "waveop.commutator_shifted-bump": 1e-8,
    # The stable projection cancels the dominant scaling-mode component and
    # the fitted decay rate inherits that cancellation; kernel swaps and two
    # BLAS threads moved it by 2.3e-11 (1.1e-10 relative).
    "evolution.stable_decay": 1e-9,
    # Norm of the difference between evolved states and Q; moved by 1.3e-12
    # (1.7e-11 relative), kept a decade above that.
    "evolution.steady_drift": 1e-11,
    # Bisection outputs move in steps of the final bracket width
    # (1e-8 x 8e-3 = 8e-11): a round-off flip of one of the last two
    # departure-sign decisions moves a* by up to 2 widths.  No kernel swap
    # moved them at all.
    "evolution.shoot_conv_0.001": 2e-10,
    "evolution.shoot_astar_0.001": 2e-10,
    "evolution.shoot_conv_0.002": 2e-10,
    "evolution.shoot_astar_0.002": 2e-10,
    # log2(a*(2e-3) / a*(1e-3)) with both a* off by 2e-10:
    # (2e-10/9.4e-8 + 2e-10/2.3e-8) / ln 2 = 0.015.
    "evolution.shoot_exponent": 0.02,
}

# Checks whose value depends on the seed: acceptance test only.
SEEDED = {
    "identities": ("coercivity.violations", "coercivity.margin",
                   "crossrep.deltal_inv"),
}

# Timing checks: acceptance test only (a runtime cap).
TIMING = {
    "spectral-ladder": ("spectra.runtime",),
    "renormalized-flow": ("evolution.runtime",),
    "identities": ("ggmt.runtime",),
}


def expected_tags(workload: str) -> list[str]:
    return [*REFERENCE[workload], *SEEDED.get(workload, ()),
            *TIMING.get(workload, ())]


def drift_tolerance(tag: str, ref: float) -> float:
    if tag in LOOSE:
        return LOOSE[tag]
    return ROUND_OFF * max(abs(ref), TERM_SCALE.get(tag, 0.0))


def grade(workload: str, results: dict) -> list[str]:
    """Failures of one pass; one entry per failed expected check.

    ``results`` maps each criterion key to its Check list or to the
    exception it raised.  A check fails when it fails its acceptance test,
    drifts from its reference, or is missing because its criterion raised.
    """
    refs = REFERENCE[workload]
    seen = {}
    raised = []
    for key, checks in results.items():
        if isinstance(checks, Exception):
            raised.append(f"{key} raised {type(checks).__name__}: {checks}")
            continue
        for check in checks:
            seen[check.tag] = check
    failures = []
    for tag in expected_tags(workload):
        check = seen.get(tag)
        if check is None:
            failures.append(f"{tag}: missing ({'; '.join(raised) or 'not run'})")
        elif not check.passed:
            failures.append(f"{tag}: failed acceptance ({check.value!r})")
        elif tag in refs:
            ref = refs[tag]
            tol = drift_tolerance(tag, ref)
            if not abs(check.value - ref) <= tol:
                failures.append(f"{tag}: {check.value!r} drifted from "
                                f"{ref!r} by more than {tol:.3g}")
    return failures

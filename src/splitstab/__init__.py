"""Stability tooling for rotation/kick splitting integrators.

The library studies one-parameter families of splitting schemes for the
perturbed oscillator q'' = -(1 + eps) q: exact transfer matrices, the
semitrace as a polynomial in the perturbation strength, stability
classification and region scans, uniform-substep (Chebyshev) identities,
critical steplengths, and randomized optimality spot-checks.

``import splitstab`` loads no submodule.  Each public name below, and
each submodule, is imported on first use (PEP 562), so a caller, the
command line included, pays only for the modules it touches.
"""

import importlib

__version__ = "0.1.0"

#: Home module of every public name.
_EXPORTS = {
    "analysis": """SpotcheckFailure SpotcheckReport SweepRecord critical_steplength_table
        default_r_grid optimality_spotcheck three_stage_sweep""",
    "dynamics": """ExponentialBlowup GeneralProblem Mode ModeReduction NonPositiveLambda
        NotSimultaneouslyDiagonalizable NotSPD TrajectoryReport integrate_general
        integrate_model reduce_to_model""",
    "kernel": "EpsilonPolynomial TransferMatrix UnsupportedFamily epsilon_polynomial transfer_matrix",
    "rng": "SplitMix64",
    "schemes": """ConsistencyViolation FirstFlow ShapeMismatch SingularParameter
        SplittingScheme UnknownScheme catalog_names catalog_scheme check_consistency
        compose_substeps is_palindromic load_scheme_json random_consistent_scheme
        random_palindromic_scheme scheme_to_record schemes_equal three_stage_necessary_k
        three_stage_scheme validate_scheme""",
    "stability": """ConsistencyExpansionReport NonUnitDeterminant OutOfRange
        PolynomialCoincides RegionGrid SecondDerivativeReport StabilityClass
        StabilityEdges StabilityVerdict check_consistency_expansion chebyshev_semitrace
        classify critical_steplength grid_nodes instability_witness polynomial_distance
        scan_region second_derivative_check strang_boundaries""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "svgplot"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        # not cached here, so the package always shows the home module's
        # current binding
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""framelab: spherical tight frames, their Gram-point geometry, manifold
stratification, planar connectivity paths, and the two built-in surface
complexes.

``import framelab`` loads no submodule: each exported name, and each of
the six modules that define them, is imported on first use (PEP 562), so
a caller that needs only the surface complexes or the closed forms
(`closedform`) never loads numpy.
"""

import importlib

#: submodule -> the names framelab exports from it
_EXPORTS = {
    "closedform": ("expected_dimensions",),
    "frames": (
        "DEFAULT_TOL",
        "EllipsoidSpec",
        "Frame",
        "FrameBounds",
        "act_orthogonal",
        "act_permutation",
        "act_phases",
        "expected_tight_bound",
        "frame_bounds",
        "frame_operator",
        "is_on_ellipsoid",
        "is_spherical",
        "is_tight",
        "permutation_matrix",
        "simplex_frame",
    ),
    "grassmann": (
        "GramCheck",
        "GramPoint",
        "OneRedundantEnumeration",
        "OrbitWitness",
        "complement",
        "enumerate_one_redundant",
        "frame_from_gram",
        "gram",
        "holonomy_sign",
        "is_gram_point",
        "lift_gram_path",
        "same_orbit",
        "torus_point",
    ),
    "stratification": (
        "Partition",
        "TangentReport",
        "check_block_cardinalities",
        "commutant_partition",
        "construct_regular_point",
        "harmonic_frame",
        "is_orthodecomposable",
        "random_tight_frame",
        "tangent_report",
    ),
    "planar": (
        "Chain",
        "FramePath",
        "PlanarFrame",
        "canonical_planar",
        "case1_explicit_path",
        "case3_explicit_path",
        "chain_straighten",
        "connect_to_standard",
        "from_planar",
        "lift_path",
        "random_planar_frame",
        "square_map",
        "standard_chain",
        "to_gram_loop",
        "to_planar",
        "validate_path",
    ),
    "cellcomplex": (
        "Complex2",
        "SurfaceReport",
        "build_g42",
        "build_g52",
        "connected_components",
        "surface_report",
    ),
}

#: exported name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a library module, e.g. framelab.planar
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

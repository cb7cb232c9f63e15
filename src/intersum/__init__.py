"""Exact combinatorics of summed intersection sizes over set families.

The package computes, bounds, and searches the total pairwise intersection
size of intersecting families (and cross-intersecting family pairs) of
k-subsets of {1..n}: closed-form extremal values, the cyclic-permutation
interval machinery that proves them, exhaustive branch-and-bound at desk
scale, and a seeded annealing sentinel beyond it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name under the module that defines it.  A name is imported on
# first use (PEP 562), so importing the package, or the CLI for one command,
# loads only the modules that are used.  Lookups are not cached: a name always
# resolves to its module's current binding.
_MODULES = {
    "bounds": (
        "BoundValue",
        "binom",
        "ekr_bound",
        "omega_cross_bound",
        "omega_intersecting_bound",
        "omega_strict_bound",
        "pm_star_count",
        "star_identity_check",
    ),
    "cyclic": (
        "CyclicPerm",
        "DoubleCountReport",
        "Interval",
        "KatonaReport",
        "RepresentablePair",
        "double_count_check",
        "enumerate_cyclic",
        "interval_meet_family",
        "interval_of",
        "intervals_of_length",
        "katona_verify",
        "representable_pairs",
    ),
    "errors": (
        "BadElementError",
        "BadLengthError",
        "BadSizeError",
        "CounterexampleError",
        "DuplicateSetError",
        "GroundMismatchError",
        "HypothesisError",
        "InternalError",
        "IntersumError",
        "NotExhaustiveError",
        "TooLargeError",
    ),
    "search": (
        "HeuristicConfig",
        "SearchResult",
        "UniquenessReport",
        "WitnessAssessment",
        "heuristic_max",
        "max_omega_cross",
        "max_omega_intersecting",
        "max_omega_intersecting_naive",
        "uniqueness_report",
    ),
    "setcore": (
        "Family",
        "KSet",
        "Permutation",
        "apply_perm",
        "canonical_form",
        "element_degrees",
        "family_from_dict",
        "family_to_dict",
        "fingerprint",
        "full_family",
        "is_cross_intersecting",
        "is_intersecting",
        "is_star",
        "kset",
        "ksubset_masks",
        "make_family",
        "star",
    ),
    "weights": (
        "Profile",
        "intersection_profile",
        "meet_weight",
        "omega_cross",
        "omega_cross_strict",
        "omega_family",
        "omega_generic",
        "pair_count",
        "unit_weight",
    ),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})

"""Monodromy of generic hyperplanes with respect to the standard quadric.

Word problem in G = <a, b, k | k a = b k, k^2 = 1>, its rank-2 integer
monodromy representation, lattice orbits, hyperplane/quadric incidence
predicates, numeric classification of sampled hyperplane loops, and the
relative homology rank table.
"""

import importlib

from .errors import QmonoError
from .group import GroupWord, format_word, free_reduce, invert, multiply, normalize, parse_word, sigma
from .homology import HomologyTable, homology_table, solve_split_extension, sphere_homology
from .orbits import OrbitReport, orbit_bfs, verify_orbit_claim
from .representation import (
    MonodromyMatrix,
    Parity,
    apply,
    determinant_character,
    generator_matrix,
    invariant_line,
    matrix_of,
    quotient_character,
)

# The numeric modules need numpy; their names load on first access
# (PEP 562), so the group-layer commands start without it.
_LAZY = {
    **dict.fromkeys(("Hyperplane", "default_tol", "discriminant_margin",
                     "in_general_position", "is_asymptotic", "is_tangent",
                     "quad_form"), "geometry"),
    **dict.fromkeys(("ClassificationResult", "HyperplaneLoop", "classify", "concat",
                     "continue_sqrt_branch", "fiber_word", "kappa_bit",
                     "loop_from_dict", "loop_to_dict", "make_alpha_loop",
                     "make_beta_loop", "make_constant_loop", "make_kappa_loop",
                     "reverse"), "loops"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

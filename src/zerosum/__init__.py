"""Constructive zero-sum subsequences with bounded order-reciprocal sum.

For any finite abelian group G and any sequence of |G| elements, the engine
finds a nonempty subsequence summing to the identity whose orders satisfy
sum(1/|g_k|) <= 1, by pebbling the divisor lattice of the group exponent.
Brute-force oracles (subset DP, exact pebbling numbers, Davenport constants)
provide independent ground truth.
"""

from types import ModuleType as _ModuleType

from .errors import (
    EXIT_FAIL, EXIT_INPUT_ERROR, EXIT_INTERNAL_ERROR, EXIT_PASS, InputError, InternalInvariantError,
)
from .groups import (
    GroupSpec, PrimaryDecomposition, add_elements, element_from_index, element_index, element_order,
    group_spec, identity, parse_group_spec, primary_decomposition, to_primary_coordinates,
)
from .partitions import dual_partition, residual_exponents, residual_exponents_by_recursion
from .lattice import LatticeVertex, WeightedLattice, build_lattice
from .engine import (
    Certificate, Configuration, MoveRecord, Pebble, Verdict, extract_certificate, initial_configuration,
    merge_step, solve_to_root, verify_certificate, well_placed,
)
from .oracle import (
    OracleResult, PebblingResult, WeightedGraph, davenport_constant, dp_min_cost_zero_sum, lattice_graph,
    path_graph, pebbling_number, solvable, weighted_boolean_cube,
)

__version__ = "0.1.0"

# The public API is every name imported above: the lists are written once.
__all__ = [name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _ModuleType)]

"""maxsemi: maximal subsemigroups of finite semigroups.

The package computes all maximal subsemigroups of a finite semigroup,
covering both regular Rees 0-matrix semigroups over a group (types R1-R6)
and arbitrary finite semigroups (types S1-S6 plus the maximal-J-class
cases), with a brute-force oracle for desk-scale verification.
"""

from .errors import CapacityError, InputError
from .perm_group import (
    MaximalSubgroupClass,
    PermGroup,
    Permutation,
    all_subgroups,
    conjugate_subgroup,
    cycle_string,
    generate_group,
    is_subgroup,
    maximal_subgroup_classes,
    normalizer,
    parse_cycles,
    right_coset_reps,
)
from .graphs import (
    CondensedDigraph,
    Digraph,
    Graph,
    connected_components,
    digraph,
    graph,
    maximal_independent_sets,
    maximal_independent_sets_closed,
    reachable_set,
    sources,
    strongly_connected_condensation,
    to_dot,
)
from .semigroup_core import (
    FiniteSemigroup,
    GreensStructure,
    PrincipalFactorIso,
    Transformation,
    closure,
    from_table,
    greens_structure,
    group_h_class_as_permgroup,
    ideal_below_generators,
    principal_factor_iso,
    semigroup_from_rzms,
    x_prime,
)
from .rees_matrix import (
    NormalizationData,
    ReesZeroMatrixSemigroup,
    RzmsMaxSubsemigroup,
    ZERO,
    brandt,
    generating_set,
    graham_houghton,
    max_r1_r2,
    max_r3_r4,
    max_r5,
    max_r6,
    max_subsemigroups_rzms,
    normalize,
)
from .max_subsemigroups import (
    JClassGraphs,
    MaximalSubsemigroup,
    build_jclass_graphs,
    max_subsemigroups,
)
from .oracle import OracleReport, brute_force_maximal, verify_maximal

__all__ = [name for name in dir() if not name.startswith("_")]

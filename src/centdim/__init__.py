"""Exact dimensions for tensor-power centralizer algebras of S_n and A_n,
their Bratteli diagrams, and the set-partition bijection behind the
permutation-module counts."""

from .arith import (
    bell,
    bell_restricted,
    binomial,
    odd_double_factorial,
    set_partitions,
    singleton_free_bell,
    stirling2,
)
from .young import (
    Dominance,
    conjugate,
    dominance_compare,
    format_partition,
    hook_length,
    involutions_with_fixed_points,
    kostka,
    kostka_hook_type,
    num_skew_syt,
    num_syt,
    parse_partition,
    partitions_of,
)
from .branch import (
    AltLabel,
    alt_labels,
    induce_alt,
    induce_sym,
    restrict_alt,
    restrict_sym,
    restrict_sym_to_alt,
)
from .dims import (
    GroupModuleContext,
    decompose,
    dim_model_block,
    dim_partition_algebra_irr,
    dim_qp_irr,
    dim_qz,
    dim_qz_alt,
    dim_qz_alt_half,
    dim_qz_half,
    dim_z,
    dim_z_algebra,
    dim_z_alt,
    dim_z_alt_half,
    dim_z_half,
    parse_level,
)
from .bratteli import BratteliDiagram, build_diagram, enumerate_paths, export
from .bijection import pair_to_path, path_to_pair, row_insert, row_uninsert
from .oracle import (
    ScaleExceeded,
    character_mn,
    conjugacy_classes,
    multiplicity_oracle,
    pair_count_oracle,
)

__version__ = "0.1.0"

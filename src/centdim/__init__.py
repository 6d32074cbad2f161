"""Exact dimensions for tensor-power centralizer algebras of S_n and A_n,
their Bratteli diagrams, and the set-partition bijection behind the
permutation-module counts.

Importing the package loads none of its modules: each public name is
imported from its module on first use (PEP 562), so a command pays only
for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "arith": (
        "bell_restricted",
        "binomial",
        "odd_double_factorial",
        "stirling2",
    ),
    "young": (
        "conjugate",
        "format_partition",
        "involutions_with_fixed_points",
        "kostka_hook_type",
        "num_skew_syt",
        "num_syt",
        "parse_partition",
        "partitions_of",
    ),
    "branch": (
        "AltLabel",
        "alt_labels",
        "induce_alt",
        "induce_sym",
        "restrict_alt",
        "restrict_sym",
        "restrict_sym_to_alt",
    ),
    "dims": (
        "GroupModuleContext",
        "block_dimension",
        "decompose",
        "dim_model_block",
        "dim_partition_algebra_irr",
        "dim_qp_irr",
        "dim_qz",
        "dim_qz_alt",
        "dim_qz_alt_half",
        "dim_qz_half",
        "dim_z",
        "dim_z_algebra",
        "dim_z_alt",
        "dim_z_alt_half",
        "dim_z_half",
        "parse_level",
    ),
    "bratteli": ("BratteliDiagram", "build_diagram", "enumerate_paths", "export"),
    "bijection": ("pair_to_path", "path_to_pair", "row_insert", "row_uninsert"),
    "oracle": ("character_mn", "conjugacy_classes", "multiplicity_oracle"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_EXPORTS])


def __getattr__(name):
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

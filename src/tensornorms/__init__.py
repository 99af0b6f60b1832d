"""Certified spectral and nuclear norms of tensors with one small dimension."""

from .core import (
    RankOneDecomposition,
    Tensor3,
    TensorD,
    assemble,
    contract_first,
    evaluate,
    flatten,
    gen_gaussian,
    gen_orthogonal_test,
    gen_orthogonal_test_order4,
    gen_sequence_example,
    read_tensor,
    write_tensor,
)
from .grids import (
    ProductPointSet,
    UnitPointSet,
    build_hemisphere_grid,
    covering_coefficient,
    hemisphere_point_count,
    product_point_set,
    resolution_for_error,
    sample_uniform,
    spherical_to_cartesian,
)
from .kernels import (
    nuclear_norm,
    spectral_norm,
    top_sigma,
    top_sigma_argmax,
    top_singular_pair,
)
from .nuclear import (
    NuclearCertificate,
    SolverConfig,
    SolverError,
    certificate_to_dict,
    extract_nuclear_decomposition,
    nuclear_lower_bound_flatten,
    nuclear_norm_fptas,
    nuclear_norm_fptas_d,
    nuclear_upper_bound_slices,
    solve_relaxation,
)
from .quadsys import (
    OracleInconclusive,
    QuadSystemInstance,
    constructive_solution,
    residuals,
    threshold_bisection,
)
from .spectral import (
    NormEstimate,
    best_rank_one,
    estimate_from_dict,
    estimate_to_dict,
    lower_bound_alpha1,
    spectral_norm_fptas,
    spectral_norm_fptas_d,
    upper_bound_alpha2,
)

__version__ = "0.1.0"

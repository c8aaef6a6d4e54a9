"""Sliced optimal transport on Euclidean space and Riemannian manifolds."""

import os

if "MSOT_THREADS" in os.environ:
    # BLAS reads its thread count once, when numpy first loads it, so the
    # cap must be in the environment before any import below
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(_var, os.environ["MSOT_THREADS"])

from .busemann import (
    BWGaussian,
    GaussianRay,
    QuantileRay,
    busemann_bw,
    busemann_gaussian1d,
    busemann_w1d,
    gaussian_pca_1d,
    is_geodesic_ray_1d,
    project_on_ray,
    ray_domain_gaussian1d,
)
from .flows import (
    EntropyFunctional,
    FlowTrace,
    GridState,
    InteractionFunctional,
    PotentialFunctional,
    SumFunctional,
    SwToTargetFunctional,
    euler_particles,
    simplex_project,
    swjko_grid,
    swjko_particles,
)
from .gw import gw1d_inner, hw_solve, hw_tensor, mi_gaussian, mk_gaussian
from .hyperbolic import (
    HyperbolicSlicer,
    busemann_coordinate,
    geodesic_coordinate,
    ghsw,
    hhsw,
    lorentz_to_poincare,
    poincare_to_lorentz,
    riemannian_step_lorentz,
    sample_wrapped_normal,
)
from .measures import (
    CircleProfile,
    SortedProfile,
    build_circle_profile,
    build_profile,
    circle_w1_batched,
    circle_w1_level_median,
    circle_w2_uniform_batched,
    circle_w2_vs_uniform,
    circle_wp_batched,
    circle_wp_binary_search,
    nw_corner,
    quantile,
    wasserstein_1d,
    wasserstein_1d_batched,
)
from .sliced import (
    DirectionSet,
    EuclideanSlicer,
    sample_directions,
    sw2_subgradient,
    sw_p,
)
from .spd import (
    SpdSlicer,
    busemann_ai,
    coordinate_le,
    dist_ai,
    dist_le,
    gaussian_kernel,
    hspdsw,
    kernel_features,
    logsw,
    sample_unit_symmetric,
    spd_exp,
    spd_log,
    spdsw,
    sym_eig,
)
from .sphere import project_circle, sample_stiefel, ssw, ssw2_vs_uniform
from .unbalanced import (
    DualPotentials,
    UnbalancedParams,
    fw_translation,
    norm_reweight,
    phi_conj,
    sliced_dual,
    suot,
    usw,
)

__version__ = "0.1.0"

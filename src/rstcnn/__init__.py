"""Roto-scale-translation equivariant CNNs with fixed analytic filter banks.

Filters are truncated expansions in Fourier-Bessel (disk) or separable
Sturm-Liouville (square) eigenfunctions, sampled analytically at every
rotation/scale of the group grid. The analysis module certifies layer-wise
equivariance and deformation stability of randomly initialized networks
without any training.
"""

from .analysis import (
    AssumptionError,
    EquivarianceCurve,
    FilterBoundReport,
    NonexpansivenessReport,
    StabilityReport,
    UndefinedEquivarianceError,
    equivariance_curve,
    disk_quadrature,
    equivariance_error,
    filter_bound_report,
    isometry_deviation,
    nonexpansiveness_report,
    stability_certificate,
)
from .bank import FilterBank, default_layer_scale, sample_filter_bank, scale_channel_grid
from .basis import (
    BasisElement,
    BasisSet,
    PoolExhaustionError,
    angular_matrix,
    build_basis,
    eval_spatial,
    eval_spatial_grad,
    gram_matrix,
    laplacian_residuals,
    scale_matrix,
    unit_grid,
)
from .bessel import UnsupportedOrderError, bessel_j, bessel_zero
from .config import parse_config_text
from .container import (
    BankArchive,
    ContainerFormatError,
    dump_bank,
    load_bank,
    read_bank,
    save_bank,
)
from .data import (
    IdxParseError,
    LabeledImageSet,
    dump_idx_images,
    dump_idx_labels,
    make_rs_dataset,
    parse_idx_images,
    parse_idx_labels,
    read_idx,
    read_idx_image,
    smooth_feature_values,
    synthetic_blob_set,
    synthetic_blobs,
    upsample,
    write_idx,
)
from .deform import (
    DeformationField,
    apply_deformation,
    make_tau_targeting_grad,
    tau_norms,
)
from .experiments import (
    ExperimentConfig,
    build_network,
    fig3_config,
    parse_sweep_csv,
    run_basis_validate,
    run_bounds_report,
    run_equivariance_sweep,
    run_stability_trials,
    stability_config,
    stability_json,
    sweep_input,
)
from .group import (
    FeatureMap,
    GroupElement,
    ImageTensor,
    OffLatticeError,
    act_on_feature,
    act_on_image,
    channel_sources,
    compose,
    inverse,
)
from .net import (
    CoeffTensor,
    ConfigError,
    LayerSpec,
    NetworkConfig,
    alpha_taps,
    alpha_weights,
    channel_cone,
    draw_coeffs,
    filter_amplitude,
    forward,
    forward_layers,
    init_coeffs,
    joint_conv,
    layer_bank,
    layer_basis,
    lifting_conv,
    live_slices,
    normalize_coeffs_A2,
    synthesize_filters,
    theta_taps,
)
from .norms import fb_norm, fb_norm_joint, feature_norm

__version__ = "0.1.0"

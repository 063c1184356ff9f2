"""Privacy-preserving data valuation over Gaussian summaries.

Sellers publish differentially private (mean, covariance, count) summaries
of embedded data subsets; the buyer scores each seller by the closed-form
2-Wasserstein distance to its own summary and ranks them.
"""

from .encoder import (
    AugmentationSpec,
    EncoderSpec,
    RawDataset,
    augment,
    encode,
    gen_mixture_dataset,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    EmptyInputError,
    FileFormatError,
    FrameError,
    InsufficientSamplesError,
    NoCandidatesError,
    NotPSDError,
    NumericInputError,
    ParameterError,
    PriartaError,
    ProtocolFailure,
    ShapeError,
)
from .gaussian_geometry import (
    GaussianSummary,
    psd_clamp,
    sqrtm_psd,
    sym_eig,
    symmetrize,
    wasserstein2_gaussian,
)
from .privacy import (
    GAUSSIAN_SAMPLER,
    NoiseCalibration,
    PrivacyBudget,
    apply_gaussian_mechanism,
    calibrate_sigma,
    covariance_sensitivity,
    derive_seed,
    mean_sensitivity,
    secure_seed,
)
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ErrorMessage,
    Hello,
    InProcessChannel,
    ModelSpec,
    SellerNode,
    SellerOutcome,
    SellerServer,
    SellerSession,
    SocketChannel,
    StatsRequest,
    StatsResponse,
    buyer_summary,
    decode_frame,
    encode_frame,
    expand_covariance,
    in_process_endpoints,
    node_seeds,
    orchestrate_valuation,
    pack_covariance,
    sample_subset,
    seller_pipeline,
    socket_endpoints,
)
from .scenario import ScenarioConfig, build_datasets, default_scenario
from .stats import (
    EmbeddingSet,
    clip_to_ball,
    debias_covariance,
    sample_covariance,
    sample_mean,
    summarize,
)
from .valuation import (
    RobustnessEntry,
    SellerScore,
    ValuationReport,
    build_report,
    load_report,
    minmax_normalize,
    rank_sellers,
    render_csv,
    render_table,
    robustness_report,
    save_report,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentationSpec", "EncoderSpec", "RawDataset", "augment", "encode",
    "gen_mixture_dataset",
    "ConfigError", "ConvergenceError", "EmptyInputError", "FileFormatError",
    "FrameError", "InsufficientSamplesError", "NoCandidatesError", "NotPSDError",
    "NumericInputError", "ParameterError", "PriartaError", "ProtocolFailure",
    "ShapeError",
    "GaussianSummary", "psd_clamp", "sqrtm_psd", "sym_eig", "symmetrize",
    "wasserstein2_gaussian",
    "GAUSSIAN_SAMPLER", "NoiseCalibration", "PrivacyBudget",
    "apply_gaussian_mechanism", "calibrate_sigma", "covariance_sensitivity",
    "derive_seed", "mean_sensitivity", "secure_seed",
    "MAX_FRAME_BYTES", "PROTOCOL_VERSION", "ErrorMessage", "Hello",
    "InProcessChannel", "ModelSpec", "SellerNode", "SellerOutcome", "SellerServer",
    "SellerSession", "SocketChannel", "StatsRequest", "StatsResponse",
    "buyer_summary", "decode_frame", "encode_frame", "expand_covariance",
    "in_process_endpoints", "node_seeds", "orchestrate_valuation",
    "pack_covariance", "sample_subset", "seller_pipeline", "socket_endpoints",
    "ScenarioConfig", "build_datasets", "default_scenario",
    "EmbeddingSet", "clip_to_ball", "debias_covariance", "sample_covariance",
    "sample_mean", "summarize",
    "RobustnessEntry", "SellerScore", "ValuationReport", "build_report",
    "load_report", "minmax_normalize", "rank_sellers", "render_csv",
    "render_table", "robustness_report", "save_report",
    "__version__",
]

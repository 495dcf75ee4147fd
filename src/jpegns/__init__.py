"""Photon-noise-mimicking steganography for JPEG covers.

The library models a linear camera development pipeline (bilinear
demosaicking, BT.709 luminance, pixel selection, blockwise 2-D DCT) as an
explicit sparse matrix, derives the exact covariance of the shot-noise stego
signal in the DCT domain, and performs simulated embedding on quantized JPEG
coefficients by lattice-ordered conditional Gaussian sampling.
"""

from .raw_io import (
    DimensionError,
    ParameterError,
    PgmError,
    RawImage,
    SensorParams,
    SidecarError,
    SynthSpec,
    UnknownCfaError,
    ValueOutOfRangeError,
    load_raw,
    synthesize_raw,
    write_raw,
)
from .pipeline import (
    assemble,
    build_dct,
    build_demosaic,
    build_luminance,
    build_permutation,
    build_selection,
    dct_matrix,
)
from .covariance import (
    SingularCovarianceError,
    analysis_covariance,
    cholesky,
    condition,
    photon_variance,
    sigma_d,
    sigma_p,
)
from .lattice import LatticeAssignment, neighborhood, tile
from .sampler import (
    costs_from_pmf,
    discretize,
    entropy,
    pmf,
    run_block_chain,
)
from .jpeg_model import (
    ChecksumError,
    FormatError,
    JpegCoefficients,
    QuantTable,
    TruncationError,
    develop_cover,
    nzac_count,
    quant_table,
    read_coeffs,
    write_coeffs,
)
from .embedder import (
    CapacityReport,
    ConfigError,
    EmbedConfig,
    SimulatedEmbedder,
    capacity_map,
    embed_simulated,
    export_costs,
    pseudo_embed,
)
from .analysis import intra_block_decomposition, mode_correlation_ranking

__version__ = "0.1.0"

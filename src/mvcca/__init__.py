"""Multi-view correlation analysis: linear, partially linear, and nonparametric CCA."""

from .affinity import AffinityConfig, default_bandwidth
from .cca import CcaModel, cca_fit, cca_project
from .dataio import (
    PairedDataset,
    gen_gaussian_pair,
    gen_identical_views,
    gen_spiral_pair,
    load_model,
    read_matrix,
    save_model,
    write_matrix,
)
from .linalg import NumericalError, SvdResult
from .metrics import EvalReport, pearson, total_correlation
from .ncca import (
    ConstantComponentWarning,
    NccaConfig,
    NccaModel,
    build_score_matrix,
    ncca_fit,
    ncca_project_train,
    ncca_project_x,
    ncca_project_y,
)
from .plcca import (
    PlccaModel,
    nw_regress,
    optimal_g,
    plcca_fit,
    plcca_linear_oracle,
    plcca_project_x,
    plcca_project_y,
)

__version__ = "0.1.0"

__all__ = [
    "AffinityConfig",
    "CcaModel",
    "ConstantComponentWarning",
    "EvalReport",
    "NccaConfig",
    "NccaModel",
    "NumericalError",
    "PairedDataset",
    "PlccaModel",
    "SvdResult",
    "__version__",
    "build_score_matrix",
    "cca_fit",
    "cca_project",
    "default_bandwidth",
    "gen_gaussian_pair",
    "gen_identical_views",
    "gen_spiral_pair",
    "load_model",
    "ncca_fit",
    "ncca_project_train",
    "ncca_project_x",
    "ncca_project_y",
    "nw_regress",
    "optimal_g",
    "pearson",
    "plcca_fit",
    "plcca_linear_oracle",
    "plcca_project_x",
    "plcca_project_y",
    "read_matrix",
    "save_model",
    "total_correlation",
    "write_matrix",
]

"""Unseen-species richness and coverage estimation for observational
collections: frequency tallying, Chao1/Chao2 estimators, bootstrap
uncertainty, accumulation curves, grouped analyses, and diversity-proxy
correlation."""

from .analysis import (
    GroupReportRow,
    group_xy,
    merge_tallies,
    per_group_correlation,
    report,
    summarize,
)
from .errors import (
    DegenerateVariance,
    EmptyDataset,
    InsufficientPoints,
    InsufficientSamples,
    InvalidSize,
    InvalidSpec,
    SchemaError,
    SilentSpeciesError,
    SubsampleTooLarge,
)
from .estimators import (
    RichnessEstimate,
    coverage_of,
    diversity_proxies,
    estimate,
    estimate_tally,
)
from .resampling import (
    AccumulationPoint,
    BootstrapResult,
    accumulate,
    bootstrap_ci,
)
from .stats import RegressionResult, TrendFit, pearson, polyfit
from .synth import (
    PopulationSpec,
    generate,
    sample,
    sample_site_records,
)
from .tally import (
    ABUNDANCE,
    INCIDENCE,
    GroupedDataset,
    ObservationRecord,
    Observations,
    Tally,
    group_by,
    spectrum,
    tally_abundance,
    tally_incidence,
    tally_records,
)
from .version import __version__

__all__ = [
    "__version__",
    "ABUNDANCE",
    "INCIDENCE",
    "AccumulationPoint",
    "BootstrapResult",
    "DegenerateVariance",
    "EmptyDataset",
    "GroupReportRow",
    "GroupedDataset",
    "InsufficientPoints",
    "InsufficientSamples",
    "InvalidSize",
    "InvalidSpec",
    "ObservationRecord",
    "Observations",
    "PopulationSpec",
    "RegressionResult",
    "RichnessEstimate",
    "SchemaError",
    "SilentSpeciesError",
    "SubsampleTooLarge",
    "Tally",
    "TrendFit",
    "accumulate",
    "bootstrap_ci",
    "coverage_of",
    "diversity_proxies",
    "estimate",
    "estimate_tally",
    "generate",
    "group_by",
    "group_xy",
    "merge_tallies",
    "pearson",
    "per_group_correlation",
    "polyfit",
    "report",
    "sample",
    "sample_site_records",
    "spectrum",
    "summarize",
    "tally_abundance",
    "tally_incidence",
    "tally_records",
]

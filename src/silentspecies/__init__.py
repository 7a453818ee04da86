"""Unseen-species richness and coverage estimation for observational
collections: frequency tallying, Chao1/Chao2 estimators, bootstrap
uncertainty, accumulation curves, grouped analyses, and diversity-proxy
correlation.

Public names load on first use (PEP 562): `import silentspecies` imports
only `errors` and `version`, and numpy comes with the first layer a caller
touches.
"""

from . import errors
from .version import __version__

# Each public name and the submodule it comes from, in __all__'s order.
_HOMES = {
    "__version__": "version",
    "ABUNDANCE": "choices",
    "INCIDENCE": "choices",
    "AccumulationPoint": "resampling",
    "BootstrapResult": "resampling",
    "DegenerateVariance": "errors",
    "EmptyDataset": "errors",
    "GroupReportRow": "choices",
    "GroupedDataset": "tally",
    "InsufficientPoints": "errors",
    "InsufficientSamples": "errors",
    "InvalidSize": "errors",
    "InvalidSpec": "errors",
    "ObservationRecord": "tally",
    "Observations": "tally",
    "PopulationSpec": "synth",
    "RegressionResult": "stats",
    "RichnessEstimate": "estimators",
    "SchemaError": "errors",
    "SilentSpeciesError": "errors",
    "SubsampleTooLarge": "errors",
    "Tally": "tally",
    "TrendFit": "stats",
    "accumulate": "resampling",
    "bootstrap_ci": "resampling",
    "coverage_of": "estimators",
    "diversity_proxies": "estimators",
    "estimate": "estimators",
    "estimate_tally": "estimators",
    "generate": "synth",
    "group_by": "tally",
    "group_xy": "analysis",
    "merge_tallies": "analysis",
    "pearson": "stats",
    "per_group_correlation": "analysis",
    "polyfit": "stats",
    "report": "analysis",
    "sample": "synth",
    "sample_site_records": "synth",
    "spectrum": "tally",
    "summarize": "analysis",
    "tally_abundance": "tally",
    "tally_incidence": "tally",
    "tally_records": "tally",
}

__all__ = list(_HOMES)


def _submodule(name: str):
    # By __import__, the import statement's path, which -X importtime
    # reports; importlib.import_module's loads are missing from its list.
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name: str):
    """A public name or one of its submodules, imported on first access."""
    if name in _HOMES.values():
        return _submodule(name)
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_submodule(_HOMES[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

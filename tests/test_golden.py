"""Golden outputs: seeded CLI runs compared byte for byte with files
recorded from a known-good build.

Each case runs the CLI in a temporary directory on relative paths, so the
`# command:` metadata line is the same on every machine. The inputs live in
`tests/golden/inputs/`; the expected outputs in `tests/golden/`. Rerun
comparisons (acceptance criterion 8) cannot see a refactor that changes
results consistently; these files can.
"""

import shutil
from pathlib import Path

import pytest

from silentspecies.cli import run

GOLDEN = Path(__file__).parent / "golden"

# (argv, output files the command writes)
CASES = {
    "tally": (
        ["tally", "--input", "abundance.csv", "--output", "tally.csv"],
        ["tally.csv"],
    ),
    "estimate-csv": (
        ["estimate", "--input", "abundance.csv", "--output", "estimate.csv"],
        ["estimate.csv"],
    ),
    "estimate-markdown": (
        ["estimate", "--input", "abundance.csv", "--format", "markdown",
         "--output", "estimate.md"],
        ["estimate.md"],
    ),
    "estimate-json": (
        ["estimate", "--input", "grouped.csv", "--mode", "incidence",
         "--format", "json", "--output", "estimate.json"],
        ["estimate.json"],
    ),
    "report-abundance": (
        ["report", "--input", "grouped.csv", "--group-by", "genre",
         "--correction", "--output", "report_abundance.md"],
        ["report_abundance.md"],
    ),
    "report-incidence": (
        ["report", "--input", "grouped.csv", "--mode", "incidence",
         "--group-by", "genre", "--correction", "--format", "csv",
         "--output", "report_incidence.csv"],
        ["report_incidence.csv"],
    ),
    "bootstrap-abundance": (
        ["bootstrap", "--input", "abundance.csv", "--replicates", "200",
         "--seed", "3", "--output", "bootstrap_abundance.csv"],
        ["bootstrap_abundance.csv"],
    ),
    "bootstrap-incidence": (
        ["bootstrap", "--input", "grouped.csv", "--mode", "incidence",
         "--correction", "--replicates", "200", "--seed", "4",
         "--output", "bootstrap_incidence.csv"],
        ["bootstrap_incidence.csv"],
    ),
    "accumulate": (
        ["accumulate", "--input", "abundance.csv", "--sizes", "100,500,2500",
         "--replicates", "50", "--seed", "5", "--output", "accumulate.csv"],
        ["accumulate.csv"],
    ),
    "correlate": (
        ["correlate", "--input", "grouped.csv", "--group-by", "genre",
         "--trend-out", "trend.csv", "--trend-replicates", "50",
         "--output", "correlate.csv"],
        ["correlate.csv", "trend.csv"],
    ),
    "synth-tokens": (
        ["synth", "--distribution", "zipf", "--alpha", "1.1", "--species",
         "300", "--tokens", "3000", "--seed", "11",
         "--output", "synth_tokens.csv"],
        ["synth_tokens.csv"],
    ),
    "synth-sites": (
        ["synth", "--distribution", "lognormal", "--species", "200",
         "--sites", "20", "--per-site", "30", "--detection", "0.8",
         "--seed", "5", "--output", "synth_sites.csv"],
        ["synth_sites.csv"],
    ),
    "synth-sites-dense": (  # per-site >= species: the multinomial branch
        ["synth", "--distribution", "zipf", "--species", "40",
         "--sites", "10", "--per-site", "200", "--detection", "0.7",
         "--seed", "9", "--output", "synth_sites_dense.csv"],
        ["synth_sites_dense.csv"],
    ),
    "synth-sites-full": (  # detection 1: the categorical draw, unthinned
        ["synth", "--distribution", "zipf", "--species", "500",
         "--sites", "40", "--per-site", "30", "--detection", "1",
         "--seed", "13", "--output", "synth_sites_full.csv"],
        ["synth_sites_full.csv"],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, tmp_path, monkeypatch):
    argv, outputs = CASES[case]
    for src in (GOLDEN / "inputs").iterdir():
        shutil.copy(src, tmp_path / src.name)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    for name in outputs:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

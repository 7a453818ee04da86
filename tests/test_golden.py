"""Golden outputs: seeded CLI runs compared byte for byte with files
recorded from a known-good build.

Each case runs the CLI in a temporary directory on relative paths, so the
`# command:` metadata line is the same on every machine. The inputs live in
`tests/golden/inputs/`; the expected outputs in `tests/golden/`. Rerun
comparisons (acceptance criterion 8) cannot see a refactor that changes
results consistently; these files can.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import silentspecies
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
    "report-incidence-markdown": (  # the Samples and STR header
        ["report", "--input", "grouped.csv", "--mode", "incidence",
         "--group-by", "genre", "--output", "report_incidence.md"],
        ["report_incidence.md"],
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
    "accumulate-dense": (  # 40 species in 20,000 tokens
        ["accumulate", "--input", "abundance_dense.csv", "--sizes",
         "30,300,12000", "--replicates", "50", "--seed", "6",
         "--output", "accumulate_dense.csv"],
        ["accumulate_dense.csv"],
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


def copy_inputs(tmp_path):
    for src in (GOLDEN / "inputs").iterdir():
        shutil.copy(src, tmp_path / src.name)


def assert_outputs_match(case, tmp_path):
    for name in CASES[case][1]:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def assert_matches_golden(case, tmp_path, monkeypatch):
    copy_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run(CASES[case][0]) == 0
    assert_outputs_match(case, tmp_path)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, tmp_path, monkeypatch):
    assert_matches_golden(case, tmp_path, monkeypatch)


# Seeded output is the same at every SILENTSPECIES_THREADS value; one
# thread runs the resampling kernels without a worker pool.
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden_on_one_thread(case, tmp_path, monkeypatch):
    monkeypatch.setenv("SILENTSPECIES_THREADS", "1")
    assert_matches_golden(case, tmp_path, monkeypatch)


# The console entry, main(), runs with the cyclic collector off and exits
# with the heap frozen; its files must hold the same bytes.
@pytest.mark.parametrize("case", ["bootstrap-abundance", "correlate",
                                  "synth-sites-full"])
def test_console_entry_matches_golden(case, tmp_path):
    copy_inputs(tmp_path)
    src = str(Path(silentspecies.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "silentspecies.cli", *CASES[case][0]],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, b"")
    assert_outputs_match(case, tmp_path)

"""Seeded inputs, command scripts and reference outputs for the benchmark.

Every input is built from the workload seed through the public
`silentspecies.synth` API; the benchmark adds only the `genre` column, the
site numbering across genres and the CSV framing. The CLI under test sees nothing but the generated files.

The expected output of each command is computed in-process through the
public API on the same records and seed, then rendered here rather than by
`silentspecies.io`, so a command passes only when the data lines it writes
(its `#` and `<!-- -->` metadata lines stripped) match byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import silentspecies as ss

SPECIES = 5000
ALPHA = 1.1
PER_SITE = 100
INGEST_SITES = 2000
INGEST_GROUPS = 40
# Per-genre zipf exponents spread around ALPHA, so coverage differs between
# genres and the correlation has something to fit.
GENRE_ALPHA_SPREAD = 0.2
MIN_GENRE_SITES = 5
RESAMPLE_TOKENS = 200_000
RESAMPLE_INCIDENCE_SITES = 200
BOOTSTRAP_REPLICATES = 1000
ACCUMULATE_SIZES = (1000, 5000, 20000, 100000)
ACCUMULATE_REPLICATES = 200
TREND_DEGREE = 2  # the CLI defaults for correlate --trend-out
TREND_REPLICATES = 200
LEVEL = 0.95


@dataclass
class Command:
    """One CLI invocation and the data text each output file must hold."""

    argv: list[str]
    expected: dict[Path, str]

    @property
    def name(self) -> str:
        return self.argv[0]

    def mismatch(self) -> str | None:
        """The first output whose data lines differ from the reference."""
        for path, expected in self.expected.items():
            if not path.exists():
                return f"{path.name} not written"
            if data_text(path.read_text(encoding="utf-8")) != expected:
                return f"{path.name} differs from the reference"
        return None


@dataclass
class Workload:
    commands: list[Command]
    inputs: dict[str, dict[str, int]]  # file name -> shape


def data_text(text: str) -> str:
    """The data lines of a CLI output: metadata comment lines removed."""
    return "".join(
        line for line in text.splitlines(keepends=True)
        if not line.startswith(("#", "<!--"))
    )


# ---------------------------------------------------------------------------
# Rendering of reference values, in the layouts the CLI writes.


def _records_csv(records, group_field: str | None = None) -> str:
    header = "sample_id,species_id,count"
    if group_field is None:
        rows = [f"{r.sample_id},{r.species_id},{r.count}\n" for r in records]
    else:
        header += f",{group_field}"
        rows = [
            f"{r.sample_id},{r.species_id},{r.count},{r.attrs[group_field]}\n"
            for r in records
        ]
    return header + "\n" + "".join(rows)


def _report_markdown(rows, group_label: str) -> str:
    headers = [group_label, "Types", "Samples", "STR", "f1", "f2", "Coverage"]
    lines = ["| " + " | ".join(headers) + " |\n",
             "|" + "|".join("---" for _ in headers) + "|\n"]
    for row in rows:
        cells = [row.group_key, str(row.types), str(row.tokens_or_samples),
                 f"{row.ttr_or_str:.3f}", str(row.f1), str(row.f2),
                 f"{row.coverage:.3f}"]
        lines.append("| " + " | ".join(cells) + " |\n")
    return "".join(lines)


def _correlation_csv(result) -> str:
    return (
        "x_name,y_name,n,slope,intercept,r,p_value\n"
        f"ttr,coverage,{result.n_points},{result.slope!r},"
        f"{result.intercept!r},{result.r!r},{result.p_value!r}\n"
    )


def _trend_csv(fit) -> str:
    lines = ["x,fit,lower,upper\n"]
    for x, lower, upper in fit.band:
        fitted = float(fit.predict([x])[0])
        lines.append(f"{x!r},{fitted!r},{lower!r},{upper!r}\n")
    return "".join(lines)


def _bootstrap_csv(results) -> str:
    lines = ["metric,point,lower,upper,level,replicates,seed\n"]
    for metric in sorted(results):
        r = results[metric]
        lines.append(f"{metric},{r.point!r},{r.lower!r},{r.upper!r},"
                     f"{r.level!r},{r.replicates},{r.seed}\n")
    return "".join(lines)


def _accumulation_csv(points) -> str:
    lines = ["k,replicates,mean_s_obs,mean_s_hat,sd_s_hat\n"]
    for p in points:
        lines.append(f"{p.k},{p.replicates},{p.mean_s_obs!r},"
                     f"{p.mean_s_hat!r},{p.sd_s_hat!r}\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# Input generation


def _zipf(alpha: float = ALPHA) -> np.ndarray:
    return ss.generate(ss.PopulationSpec(SPECIES, "zipf", alpha=alpha))


def _shape(path: Path, records, groups: int = 0) -> dict[str, int]:
    return {
        "rows": len(records),
        "bytes": path.stat().st_size,
        "species": len({r.species_id for r in records}),
        "sites": len({r.sample_id for r in records}),
        "groups": groups,
    }


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def grouped_incidence_records(seed: int) -> list[ss.ObservationRecord]:
    """INGEST_SITES sites split into INGEST_GROUPS genres of unequal size,
    each genre drawn from its own zipf population."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    shares = rng.dirichlet(np.ones(INGEST_GROUPS))
    spare = INGEST_SITES - MIN_GENRE_SITES * INGEST_GROUPS
    sizes = MIN_GENRE_SITES + rng.multinomial(spare, shares)
    offsets = rng.uniform(-GENRE_ALPHA_SPREAD, GENRE_ALPHA_SPREAD,
                          INGEST_GROUPS)
    # Centre the site-weighted exponent on ALPHA so that the file size, and
    # with it the cost of a pass, hardly depends on the seed.
    alphas = ALPHA + offsets - np.average(offsets, weights=sizes)
    width = len(str(INGEST_SITES))
    records: list[ss.ObservationRecord] = []
    site = 0
    for g, (size, alpha) in enumerate(zip(sizes, alphas), start=1):
        genre = f"genre{g:02d}"
        drawn = ss.sample_site_records(_zipf(float(alpha)), int(size),
                                       PER_SITE, 1.0, seed * 1000 + g)
        renamed: dict[str, str] = {}
        for rec in drawn:
            if rec.sample_id not in renamed:
                site += 1
                renamed[rec.sample_id] = f"site{site:0{width}d}"
            records.append(ss.ObservationRecord(
                renamed[rec.sample_id], rec.species_id, rec.count,
                {"genre": genre},
            ))
    return records


def _ingest(seed: int, work: Path) -> Workload:
    records = grouped_incidence_records(seed)
    path = work / "ingest.csv"
    _write(path, _records_csv(records, "genre"))

    dataset = ss.group_by(records, "genre", ss.INCIDENCE)
    xs, ys = ss.group_xy(dataset, "ttr", "coverage")
    fit = ss.polyfit(xs, ys, TREND_DEGREE,
                     bootstrap_replicates=TREND_REPLICATES, seed=seed)
    common = ["--mode", ss.INCIDENCE, "--group-by", "genre",
              "--input", str(path), "--seed", str(seed)]
    report_out = work / "report.md"
    corr_out, trend_out = work / "correlate.csv", work / "trend.csv"
    commands = [
        Command(["report", *common, "--output", str(report_out)],
                {report_out: _report_markdown(ss.report(dataset), "genre")}),
        Command(["correlate", *common, "--output", str(corr_out),
                 "--trend-out", str(trend_out)],
                {corr_out: _correlation_csv(ss.per_group_correlation(dataset)),
                 trend_out: _trend_csv(fit)}),
    ]
    shape = _shape(path, records, len(dataset.groups))
    return Workload(commands, {path.name: shape})


def resample_tally(seed: int) -> ss.AbundanceTally:
    """The abundance sample behind the `resample` workload's main file."""
    return ss.sample(_zipf(), RESAMPLE_TOKENS, seed)


def _resample(seed: int, work: Path) -> Workload:
    tally = resample_tally(seed)
    abundance = [ss.ObservationRecord("_default", species, count)
                 for species, count in sorted(tally.counts.items())]
    ab_path = work / "abundance.csv"
    _write(ab_path, _records_csv(abundance))

    sites = ss.sample_site_records(_zipf(), RESAMPLE_INCIDENCE_SITES,
                                   PER_SITE, 1.0, seed)
    inc_path = work / "incidence.csv"
    _write(inc_path, _records_csv(sites))

    boot_out, acc_out = work / "bootstrap.csv", work / "accumulate.csv"
    inc_out = work / "bootstrap_incidence.csv"
    reps = str(BOOTSTRAP_REPLICATES)
    sizes = ",".join(map(str, ACCUMULATE_SIZES))
    commands = [
        Command(["bootstrap", "--input", str(ab_path), "--replicates", reps,
                 "--seed", str(seed), "--output", str(boot_out)],
                {boot_out: _bootstrap_csv(ss.bootstrap_ci(
                    tally, BOOTSTRAP_REPLICATES, LEVEL, seed))}),
        Command(["accumulate", "--input", str(ab_path), "--sizes", sizes,
                 "--replicates", str(ACCUMULATE_REPLICATES),
                 "--seed", str(seed), "--output", str(acc_out)],
                {acc_out: _accumulation_csv(ss.accumulate(
                    tally, ACCUMULATE_SIZES, ACCUMULATE_REPLICATES, seed))}),
        Command(["bootstrap", "--mode", ss.INCIDENCE, "--input", str(inc_path),
                 "--replicates", reps, "--seed", str(seed),
                 "--output", str(inc_out)],
                {inc_out: _bootstrap_csv(ss.bootstrap_ci(
                    ss.tally_incidence(sites), BOOTSTRAP_REPLICATES, LEVEL,
                    seed))}),
    ]
    inputs = {ab_path.name: _shape(ab_path, abundance),
              inc_path.name: _shape(inc_path, sites)}
    return Workload(commands, inputs)


def _synth_write(seed: int, work: Path) -> Workload:
    records = ss.sample_site_records(_zipf(), INGEST_SITES, PER_SITE, 1.0,
                                     seed)
    out = work / "synth.csv"
    argv = ["synth", "--distribution", "zipf", "--alpha", str(ALPHA),
            "--species", str(SPECIES), "--sites", str(INGEST_SITES),
            "--per-site", str(PER_SITE), "--seed", str(seed),
            "--output", str(out)]
    expected = _records_csv(records)
    shape = {"rows": len(records), "bytes": len(expected.encode()),
             "species": len({r.species_id for r in records}),
             "sites": INGEST_SITES, "groups": 0}
    return Workload([Command(argv, {out: expected})],
                    {out.name + " (written)": shape})


_BUILDERS = {"ingest": _ingest, "resample": _resample,
             "synth-write": _synth_write}


def build(name: str, seed: int, work: Path) -> Workload:
    """Generate the inputs of workload `name` into `work` and return its
    command script with the expected outputs."""
    return _BUILDERS[name](seed, work)

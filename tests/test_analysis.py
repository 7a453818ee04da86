import dataclasses
import io as stdio

import pytest
from hypothesis import assume, example, given, strategies as st

from silentspecies import (
    ABUNDANCE,
    INCIDENCE,
    DegenerateVariance,
    EmptyDataset,
    InsufficientSamples,
    ObservationRecord,
    Tally,
    group_by,
    group_xy,
    per_group_correlation,
    report,
    summarize,
    tally_records,
)
from silentspecies.cli import run
from silentspecies.io import metadata, write_report_csv
from silentspecies.synth import PopulationSpec, generate, sample


def abundance_dataset(groups):
    """group_by of records holding {group: {species: count}}."""
    records = [ObservationRecord(key, species, count, {"genre": key})
               for key, counts in groups.items()
               for species, count in counts.items()]
    return group_by(records, "genre", ABUNDANCE)


# Three samples, each holding genres X and Y.
SHARED_SAMPLES = [ObservationRecord(sample, species, 1, {"genre": genre})
                  for sample, species, genre in [
                      ("s1", "a", "X"), ("s1", "b", "Y"), ("s2", "a", "X"),
                      ("s2", "c", "Y"), ("s3", "d", "X"), ("s3", "b", "Y")]]

grouped_records = st.lists(
    st.builds(
        ObservationRecord,
        sample_id=st.sampled_from(["m1", "m2", "m3", "m4"]),
        species_id=st.sampled_from(list("abcde")),
        count=st.integers(min_value=0, max_value=3),
        attrs=st.fixed_dictionaries({"genre": st.sampled_from(["X", "Y"])}),
    ),
    max_size=30,
)


@given(grouped_records, st.sampled_from([ABUNDANCE, INCIDENCE]),
       st.booleans())
@example(SHARED_SAMPLES, INCIDENCE, False)
@example(SHARED_SAMPLES, INCIDENCE, True)
def test_report_total_is_the_ungrouped_tally(records, mode, correction):
    # A sample that falls in several groups counts once in the Total.
    def grouped_report():
        return report(group_by(records, "genre", mode),
                      small_sample_correction=correction)

    try:
        want = summarize("Total", tally_records(records, mode), correction)
    except (EmptyDataset, InsufficientSamples) as error:
        with pytest.raises(type(error)):
            grouped_report()
        return
    try:
        rows = grouped_report()
    except InsufficientSamples:  # a group of one sample, corrected
        assume(False)
    assert rows[-1] == want


@pytest.mark.parametrize("flags, total", [
    ([], "Total,4,3,0.750,2,2,0.800,5.000,chao2,0"),
    (["--correction"], "Total,4,3,0.750,2,2,0.857,4.667,chao2,0"),
], ids=["plain", "corrected"])
def test_report_counts_a_sample_of_several_groups_once(flags, total,
                                                       tmp_path, capsys):
    path = tmp_path / "shared.csv"
    path.write_text("sample_id,species_id,count,genre\n" + "".join(
        f"{r.sample_id},{r.species_id},{r.count},{r.attrs['genre']}\n"
        for r in SHARED_SAMPLES))
    common = ["--input", str(path), "--mode", INCIDENCE, "--format", "csv",
              *flags]
    assert run(["report", "--group-by", "genre", *common]) == 0
    assert run(["estimate", *common]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert total in lines
    assert total.replace("Total", "all") in lines


class TestReport:
    def test_total_is_pooled_not_summed(self):
        ds = abundance_dataset(
            {"g1": {"a": 2, "b": 1}, "g2": {"a": 3, "c": 1, "d": 1}}
        )
        rows = report(ds)
        total = rows[-1]
        assert total.group_key == "Total"
        # species a is shared, so pooled types < sum of per-group types
        assert total.types == 4
        assert total.types <= sum(r.types for r in rows[:-1])
        assert total.tokens_or_samples == 8

    def test_single_group_matches_total(self):
        ds = abundance_dataset({"only": {"a": 2, "b": 1, "c": 1}})
        rows = report(ds)
        assert len(rows) == 2
        only, total = rows
        assert (only.types, only.coverage, only.s_hat) == (
            total.types,
            total.coverage,
            total.s_hat,
        )

    def test_unknown_sort_column_rejected(self):
        ds = abundance_dataset({"g1": {"a": 2, "b": 1}})
        with pytest.raises(ValueError, match="^unknown sort column 'nope'$"):
            report(ds, sort_by="nope")

    def test_default_sort_is_coverage_descending(self):
        ds = abundance_dataset(
            {
                "low": {f"s{i}": 1 for i in range(10)},  # all singletons
                "high": {"a": 5, "b": 5, "c": 5},
            }
        )
        rows = report(ds)
        coverages = [r.coverage for r in rows[:-1]]
        assert coverages == sorted(coverages, reverse=True)

    def test_sort_by_ttr_ascending(self):
        ds = abundance_dataset(
            {"x": {"a": 9, "b": 1}, "y": {"a": 1, "b": 1, "c": 1}}
        )
        rows = report(ds, sort_by="ttr_or_str", ascending=True)
        ttrs = [r.ttr_or_str for r in rows[:-1]]
        assert ttrs == sorted(ttrs)

    def test_csv_is_byte_identical_across_runs(self):
        ds = abundance_dataset(
            {"g1": {"a": 2, "b": 1}, "g2": {"a": 3, "c": 1, "d": 1}}
        )
        outputs = []
        for _ in range(2):
            buf = stdio.StringIO()
            write_report_csv(report(ds), buf, metadata("cmd", seed=42))
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]

    def test_no_groups_refused(self):
        ds = dataclasses.replace(abundance_dataset({"g": {"a": 2}}), groups={})
        with pytest.raises(EmptyDataset, match="^grouped dataset has no "
                           "groups$"):
            report(ds)

    def test_fallback_marker_in_row(self):
        ds = abundance_dataset({"g": {"a": 1, "b": 1}})  # f2 = 0
        rows = report(ds)
        assert rows[0].estimator_name == "chao1-bc"
        assert rows[0].used_fallback


class TestPerGroupCorrelation:
    def test_identical_groups_degenerate(self):
        ds = abundance_dataset(
            {f"g{i}": {"a": 2, "b": 1, "c": 1} for i in range(4)}
        )
        with pytest.raises(DegenerateVariance):
            per_group_correlation(ds)

    def test_planted_negative_association(self):
        # high-TTR groups are singleton-heavy (low coverage); low-TTR groups
        # are deeply sampled with no singletons (full coverage)
        groups = {}
        for i in range(25):
            counts = {f"g{i}s{j}": 1 for j in range(10 + i)}
            counts[f"g{i}d"] = 2  # keep f2 > 0
            groups[f"sparse{i}"] = counts
        for i in range(25):
            counts = {f"e{i}x{j}": 10 + i for j in range(5 + i)}
            groups[f"deep{i}"] = counts
        ds = abundance_dataset(groups)
        res = per_group_correlation(ds, x="ttr", y="coverage")
        assert res.r < 0
        assert res.n_points == 50

    def test_one_minus_ttr_flips_sign(self):
        population = generate(PopulationSpec(80, "zipf", alpha=1.2))
        ds = abundance_dataset(
            {f"g{i}": sample(population, 400 + 150 * i, seed=i).counts
             for i in range(8)},
        )
        a = per_group_correlation(ds, x="ttr")
        b = per_group_correlation(ds, x="one-minus-ttr")
        assert b.r == pytest.approx(-a.r, abs=1e-12)


def test_summarize_consistent_with_report_row():
    tally = Tally({"a": 3, "b": 1, "c": 1, "d": 2}, 7, ABUNDANCE)
    row = summarize("k", tally)
    assert row.types == 4
    assert row.f1 == 2 and row.f2 == 1
    assert row.ttr_or_str == pytest.approx(4 / 7)


@pytest.mark.parametrize("mode", [ABUNDANCE, INCIDENCE])
@pytest.mark.parametrize("correction", [False, True])
def test_group_xy_reads_summarize_rows_in_key_order(mode, correction):
    records = [
        ObservationRecord(f"m{i % 3}", species, count, {"genre": genre})
        for i, (genre, species, count) in enumerate([
            ("b", "a", 3), ("b", "b", 1), ("b", "c", 1), ("b", "d", 2),
            ("b", "a", 1), ("a", "a", 1), ("a", "b", 1), ("a", "e", 1),
            ("c", "a", 4), ("c", "c", 2), ("c", "f", 2), ("c", "g", 1),
            ("c", "c", 1), ("c", "f", 3), ("a", "e", 2), ("a", "b", 1),
        ])
    ]
    ds = group_by(records, "genre", mode)
    rows = [summarize(k, ds.groups[k], correction) for k in sorted(ds.groups)]
    for x in ("ttr", "str", "one-minus-ttr"):
        want_x = [row.ttr_or_str for row in rows]
        if x == "one-minus-ttr":
            want_x = [1.0 - v for v in want_x]
        for y in ("coverage", "s_hat"):
            xs, ys = group_xy(ds, x, y, correction)
            assert xs == want_x
            assert ys == [getattr(row, y) for row in rows]
    with pytest.raises(ValueError, match="'tokens'"):
        group_xy(ds, x="tokens")
    with pytest.raises(ValueError, match="'f1'"):
        group_xy(ds, y="f1")

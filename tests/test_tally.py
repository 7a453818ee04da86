import csv
import io as stdio
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from silentspecies import (
    ABUNDANCE,
    INCIDENCE,
    EmptyDataset,
    ObservationRecord,
    Observations,
    SchemaError,
    group_by,
    spectrum,
    tally_abundance,
    tally_incidence,
    tally_records,
)
from silentspecies.io import read_records

records_strategy = st.lists(
    st.builds(
        ObservationRecord,
        sample_id=st.sampled_from(["m1", "m2", "m3", "m4", "m5"]),
        species_id=st.sampled_from(list("abcdefgh")),
        count=st.integers(min_value=0, max_value=5),
    ),
    max_size=50,
)


def rec(sample, species, count=1, **attrs):
    return ObservationRecord(sample, species, count, attrs)


class TestTallyAbundance:
    def test_hand_summation(self):
        t = tally_abundance([rec("m1", "a", 2), rec("m1", "b", 1), rec("m2", "a", 1)])
        assert t.counts == {"a": 3, "b": 1}
        assert t.total == 4

    def test_single_record(self):
        t = tally_abundance([rec("m1", "a", 1)])
        assert t.counts == {"a": 1}
        assert t.total == 1

    def test_all_zero_counts_is_empty(self):
        with pytest.raises(EmptyDataset):
            tally_abundance([rec("m1", "a", 0)])

    def test_zero_count_rows_dropped_not_errors(self):
        t = tally_abundance([rec("m1", "a", 0), rec("m1", "b", 2)])
        assert t.counts == {"b": 2}

    def test_negative_count_rejected(self):
        with pytest.raises(SchemaError, match="row 1"):
            tally_abundance([rec("m1", "a", -1)])

    @pytest.mark.parametrize("count, message", [
        (2**63, "count 9223372036854775808 outside the int64 range"),
        (10**5000, "count 1" + "0" * 39 + "... (5001 characters) outside "
         "the int64 range"),
        (-(10**5000), "count -1" + "0" * 38 + "... (5002 characters) "
         "outside the int64 range"),
    ], ids=["int64-max-plus-1", "5001-digits", "negative-5001-digits"])
    def test_count_beyond_int64_is_bounded(self, count, message):
        records = [rec("m1", "a", 1), rec("m1", "b", count)]
        with pytest.raises(SchemaError) as info:
            Observations.from_records(records)
        assert str(info.value) == f"row 2: {message}"

    def test_identifiers_trimmed_not_case_folded(self):
        t = tally_abundance([rec("m1", " a ", 1), rec("m1", "a", 1), rec("m1", "A", 1)])
        assert t.counts == {"a": 2, "A": 1}


class TestTallyIncidence:
    def test_duplicates_within_sample_collapse(self):
        t = tally_incidence(
            [rec("m1", "a", 2), rec("m1", "a", 5), rec("m2", "a", 1), rec("m2", "b", 1)]
        )
        assert t.counts == {"a": 2, "b": 1}
        assert t.total == 2

    def test_single_record(self):
        t = tally_incidence([rec("m1", "a", 1)])
        assert t.counts == {"a": 1}
        assert t.total == 1

    def test_repeated_use_in_one_source_is_still_singleton(self):
        # used twice in the same source: still one incidence
        t = tally_incidence([rec("m1", "chant", 2)])
        assert t.counts["chant"] == 1

    def test_missing_sample_is_schema_error(self):
        with pytest.raises(SchemaError, match="sample_id"):
            tally_incidence([rec("", "a", 1)])


class TestSpectrum:
    def test_value_multiplicities(self):
        from silentspecies import ABUNDANCE, Tally

        spec = spectrum(Tally({"a": 3, "b": 1, "c": 1, "d": 2}, 7, ABUNDANCE))
        assert spec.get(1, 0) == 2 and spec.get(2, 0) == 1 and spec.get(3, 0) == 1
        assert sum(spec.values()) == 4

    def test_singleton_dataset(self):
        from silentspecies import ABUNDANCE, Tally

        spec = spectrum(Tally({"a": 1}, 1, ABUNDANCE))
        assert spec.get(1, 0) == 1 and sum(spec.values()) == 1

    def test_zero_counts_are_not_species_seen(self):
        from silentspecies import Tally

        assert spectrum(Tally({"a": 0, "b": 1, "c": 2}, 3, ABUNDANCE)) == {
            1: 1, 2: 1}
        with pytest.raises(EmptyDataset):
            spectrum(Tally({"a": 0}, 0, INCIDENCE))


class TestGroupBy:
    def test_partition_sizes(self):
        records = [
            rec("m1", "a", 1, genre="Reel"),
            rec("m1", "b", 1, genre="Reel"),
            rec("m2", "c", 1, genre="Jig"),
        ]
        ds = group_by(records, "genre", "abundance")
        assert set(ds.groups) == {"Reel", "Jig"}
        assert ds.groups["Reel"].total == 2
        assert ds.groups["Jig"].total == 1

    def test_missing_group_attribute_names_row(self):
        records = [rec("m1", "a", 1, genre="Reel"), rec("m1", "b", 1)]
        with pytest.raises(SchemaError, match="row 2"):
            group_by(records, "genre", "abundance")

    def test_fault_named_by_position_in_whole_input(self):
        records = [
            rec("m1", "a", 1, genre="Reel"),
            rec("m1", "b", 1, genre="Reel"),
            rec("m2", "c", 1, genre="Jig"),
            rec("", "d", 1, genre="Reel"),
        ]
        with pytest.raises(SchemaError, match="row 4: missing sample_id"):
            group_by(records, "genre", "incidence")

    def test_first_fault_in_input_order_named(self):
        records = [
            rec("m1", "a", 1, genre="Reel"),
            rec("", "b", 1, genre="Jig"),
            rec("", "c", 1, genre="Reel"),
        ]
        with pytest.raises(SchemaError, match="row 2: missing sample_id"):
            group_by(records, "genre", "incidence")

    def test_group_by_sample_id(self):
        records = [rec("m1", "a", 2), rec("m1", "b", 1), rec("m2", "a", 1)]
        ds = group_by(records, "sample_id", ABUNDANCE)
        assert {key: (t.counts, t.total) for key, t in ds.groups.items()} == {
            "m1": ({"a": 2, "b": 1}, 3),
            "m2": ({"a": 1}, 1),
        }

    def test_record_field_wins_over_attrs_of_same_name(self):
        records = [rec("m1", "a", 1, sample_id="x", species_id="y")]
        ds = group_by(records, "sample_id", ABUNDANCE)
        assert {key: t.counts for key, t in ds.groups.items()} == {
            "m1": {"a": 1}}

    def test_zero_only_group_dropped(self):
        records = [rec("m1", "a", 1, genre="Reel"), rec("m2", "b", 0, genre="Jig")]
        ds = group_by(records, "genre", "abundance")
        assert set(ds.groups) == {"Reel"}


def brute_force_spectrum(records):
    """Independent oracle: nested-loop count of species with each total."""
    totals = {}
    for r in records:
        key = r.species_id.strip()
        totals[key] = totals.get(key, 0) + r.count
    totals = {k: v for k, v in totals.items() if v > 0}
    freqs = {}
    for value in set(totals.values()):
        freqs[value] = sum(1 for v in totals.values() if v == value)
    return freqs, len(totals), sum(totals.values())


@given(records_strategy)
def test_spectrum_matches_brute_force(records):
    try:
        tally = tally_abundance(records)
    except EmptyDataset:
        freqs, s_obs, _ = brute_force_spectrum(records)
        assert s_obs == 0
        return
    spec = spectrum(tally)
    freqs, s_obs, n = brute_force_spectrum(records)
    assert spec == freqs
    assert sum(spec.values()) == s_obs
    assert sum(r * f for r, f in spec.items()) == n == tally.total


@given(records_strategy)
def test_token_sum_round_trip(records):
    try:
        tally = tally_abundance(records)
    except EmptyDataset:
        return
    spec = spectrum(tally)
    assert sum(r * f for r, f in spec.items()) == sum(
        r.count for r in records
    )


@given(records_strategy, st.randoms())
def test_permutation_invariance(records, rnd):
    shuffled = list(records)
    rnd.shuffle(shuffled)
    try:
        a = tally_abundance(records)
    except EmptyDataset:
        with pytest.raises(EmptyDataset):
            tally_abundance(shuffled)
        return
    assert tally_abundance(shuffled) == a
    b = tally_incidence(records)
    assert tally_incidence(shuffled) == b


@given(records_strategy)
def test_incidence_bounded_by_m_and_dedup_stable(records):
    try:
        t = tally_incidence(records)
    except EmptyDataset:
        return
    assert all(1 <= v <= t.total for v in t.counts.values())
    # collapsing duplicate (sample, species) pairs first changes nothing
    seen = set()
    collapsed = []
    for r in records:
        if r.count == 0:
            continue
        key = (r.sample_id.strip(), r.species_id.strip())
        if key in seen:
            continue
        seen.add(key)
        collapsed.append(ObservationRecord(key[0], key[1], 1))
    assert tally_incidence(collapsed) == t


def padded(names):
    """Ids drawn from `names`, with whitespace around them."""
    pad = st.sampled_from(["", " ", "  ", "\t"])
    return st.tuples(pad, st.sampled_from(names), pad).map("".join)


grouped_records_strategy = st.lists(
    st.builds(
        ObservationRecord,
        sample_id=padded(["m1", "m2", "m3"]),
        species_id=padded(list("abcd")),
        count=st.integers(min_value=0, max_value=4),
        attrs=st.fixed_dictionaries({"genre": padded(["Reel", "Jig"])}),
    ),
    max_size=40,
)


def counter_oracle(records, mode):
    """(counts, total) by Counter and set, or None when nothing is left."""
    kept = [(r.sample_id.strip(), r.species_id.strip(), r.count)
            for r in records if r.count > 0]
    if mode == ABUNDANCE:
        counts = Counter()
        for _, species, count in kept:
            counts[species] += count
        total = sum(counts.values())
    else:
        pairs = {(sample, species) for sample, species, _ in kept}
        counts = Counter(species for _, species in pairs)
        total = len({sample for sample, _ in pairs})
    return (dict(counts), total) if counts else None


def csv_table(records):
    """The records written as sample_id,species_id,count,genre CSV text and
    read back."""
    buf = stdio.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["sample_id", "species_id", "count", "genre"])
    writer.writerows((r.sample_id, r.species_id, r.count, r.attrs["genre"])
                     for r in records)
    buf.seek(0)
    return read_records(buf)


@pytest.mark.parametrize("build", [list, csv_table], ids=["records", "csv"])
@given(grouped_records_strategy, st.sampled_from([ABUNDANCE, INCIDENCE]))
def test_columnar_tally_matches_counter_oracle(build, records, mode):
    table = build(records)
    expected = counter_oracle(records, mode)
    if expected is None:
        with pytest.raises(EmptyDataset):
            tally_records(table, mode)
    else:
        tally = tally_records(table, mode)
        assert (tally.counts, tally.total) == expected
    parts = {}
    for r in records:
        parts.setdefault(r.attrs["genre"].strip(), []).append(r)
    expected_groups = {key: counter_oracle(part, mode)
                       for key, part in parts.items()}
    expected_groups = {k: v for k, v in expected_groups.items() if v}
    if not expected_groups:
        with pytest.raises(EmptyDataset):
            group_by(table, "genre", mode)
        return
    ds = group_by(table, "genre", mode)
    assert {key: (t.counts, t.total) for key, t in ds.groups.items()} == (
        expected_groups)

import csv
import io as stdio
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from silentspecies import (
    ObservationRecord,
    Observations,
    SchemaError,
    tally_abundance,
)
from silentspecies.io import (
    _CHUNK_ROWS,
    LONG_COLUMNS,
    _write_table,
    metadata,
    read_records,
    write_record_blocks,
    write_report_json,
)
from silentspecies.tally import Column


def parse(text):
    return list(read_records(stdio.StringIO(text)))


class TestReadRecords:
    def test_basic_long_format(self):
        records = parse(
            "sample_id,species_id,count\nm1,a,2\nm1,b,1\nm2,a,1\n"
        )
        assert len(records) == 3
        tally = tally_abundance(records)
        assert tally.counts == {"a": 3, "b": 1}

    def test_count_defaults_to_one(self):
        records = parse("sample_id,species_id\nm1,a\nm2,a\n")
        assert all(r.count == 1 for r in records)

    def test_extra_columns_become_attrs(self):
        records = parse(
            "sample_id,species_id,count,genre\nm1,a,1,Reel\n"
        )
        assert records[0].attrs == {"genre": "Reel"}

    def test_duplicate_header_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            parse("sample_id,species_id,species_id\nm1,a,b\n")

    def test_non_integer_count_names_row(self):
        with pytest.raises(SchemaError, match="row 3"):
            parse("sample_id,species_id,count\nm1,a,1\nm1,b,two\n")

    def test_negative_count_names_row(self):
        with pytest.raises(SchemaError, match="row 2"):
            parse("sample_id,species_id,count\nm1,a,-3\n")

    def test_empty_species_names_file_row(self):
        with pytest.raises(SchemaError, match="row 4: empty species_id"):
            parse("sample_id,species_id,count\nm1,a,1\nm1,b,1\nm2, ,1\n")

    def test_missing_header(self):
        with pytest.raises(SchemaError, match="header"):
            parse("")

    def test_missing_species_column(self):
        with pytest.raises(SchemaError, match="species_id"):
            parse("sample_id,thing\nm1,a\n")

    def test_field_count_mismatch_names_row(self):
        with pytest.raises(SchemaError, match="row 2"):
            parse("sample_id,species_id,count\nm1,a\n")

    def test_comment_lines_skipped(self):
        records = parse("# seed: 42\nsample_id,species_id,count\nm1,a,1\n")
        assert len(records) == 1

    def test_hash_row_after_header_is_data(self):
        records = parse(
            "# seed: 42\nsample_id,species_id,count\nm1,tuneA,2\n#s2,tuneB,1\n"
        )
        assert [(r.sample_id, r.species_id) for r in records] == [
            ("m1", "tuneA"),
            ("#s2", "tuneB"),
        ]

    def test_rows_are_file_lines(self):
        obs = read_records(stdio.StringIO(
            "# tool: x\n# seed: 1\nsample_id,species_id,count\n"
            'm1,a,1\n\n"m\n2",b,1\nm3,c,1\n'
        ))
        assert obs.rows.tolist() == [4, 6, 8]

    def test_peak_stays_within_twice_the_table(self, tmp_path):
        # 60,000 records over 1,000 samples and 500 species, read as the
        # CLI reads a file. The traced peak stays within twice the table's
        # int64 arrays (1.9x here): the rows are collected in a typed array
        # that the table then holds. A list of the rows, one int object per
        # record, read 3.1x.
        path = tmp_path / "records.csv"
        path.write_text("sample_id,species_id,count\n" + "".join(
            f"site{i // 60},sp{i * 7919 % 500},{i % 7 + 1}\n"
            for i in range(60_000)), encoding="utf-8")

        def read():
            with open(path, encoding="utf-8", newline="") as f:
                return read_records(f)

        read()  # untraced, so that first-use allocations fall outside
        tracemalloc.start()
        try:
            obs = read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = [obs.counts, obs.rows,
                  *(column.codes for column in obs.columns.values())]
        assert len(obs) == 60_000
        assert peak <= 2 * sum(array.nbytes for array in arrays)

    def test_row_after_metadata_names_file_line(self):
        with pytest.raises(SchemaError, match="row 5: negative count"):
            parse("# tool: x\n# seed: 1\nsample_id,species_id,count\n"
                  "m1,a,1\nm2,b,-1\n")

    @pytest.mark.parametrize("text, row", [
        ("# seed: 1\n" + "x" * 200_000 + ",species_id\nm1,a\n", 2),
        ("sample_id,species_id\nm1,a\nm2," + "b" * 200_000 + "\n", 3),
    ])
    def test_overlong_field_names_row(self, text, row):
        with pytest.raises(SchemaError, match=f"row {row}: field larger"):
            parse(text)

    def test_count_beyond_int64_names_row(self):
        with pytest.raises(SchemaError, match="row 3: count .* int64"):
            parse(f"sample_id,species_id,count\nm1,a,1\nm2,b,{2**63}\n")

    @pytest.mark.parametrize("count, message", [
        ("9" * 5000, "count " + "9" * 40 + "... (5000 characters) outside "
         "the int64 range"),
        ("0" * 30 + str(2**63), "count " + "0" * 30 + "9223372036... (49 "
         "characters) "
         "outside the int64 range"),
        ("-" + "9" * 5000, "negative count -" + "9" * 39
         + "... (5001 characters)"),
        ("9" * 4999 + "x", "non-integer count '" + "9" * 40
         + "'... (5000 characters)"),
    ], ids=["digits", "zero-padded", "negative", "non-integer"])
    def test_long_count_error_is_bounded(self, count, message):
        with pytest.raises(SchemaError) as info:
            parse(f"sample_id,species_id,count\nm1,a,{count}\n")
        assert str(info.value) == "row 2: " + message

    def test_zero_padded_count_in_range(self):
        (record,) = parse("sample_id,species_id,count\nm1,a,"
                          + "0" * 5000 + "7\n")
        assert record.count == 7

    @pytest.mark.parametrize("meta", ["", "# tool: x\n# seed: 1\n"],
                             ids=["bare", "metadata"])
    def test_byte_order_mark_dropped(self, meta):
        obs = read_records(stdio.StringIO(
            "\ufeff" + meta + "sample_id,species_id,count\nm1,a,2\nm2,b,1\n"
        ))
        assert [(r.sample_id, r.species_id, r.count, r.attrs) for r in obs] == [
            ("m1", "a", 2, {}),
            ("m2", "b", 1, {}),
        ]
        first = 2 + meta.count("\n")
        assert obs.rows.tolist() == [first, first + 1]

    def test_whitespace_trimmed(self):
        records = parse("sample_id,species_id,count\n m1 , a ,1\n")
        assert records[0].sample_id == "m1"
        assert records[0].species_id == "a"

    @pytest.mark.parametrize("text, column", [
        ("sample_id,species_id\nm1,a\nm2, \udcff \nm3,\udcff\n",
         "species_id"),
        ("sample_id,species_id\nm1,a\n \udcff ,b\n\udcff,c\n", "sample_id"),
    ], ids=["species_id", "sample_id"])
    def test_undecodable_label_first_seen_padded_names_that_row(self, text,
                                                                column):
        with pytest.raises(SchemaError, match=(
                f"^row 3: undecodable byte 0xff in '{column}'$")):
            parse(text)

    def test_blank_species_id_named_after_a_skipped_row_of_that_text(self):
        # Row 3 is blank and skipped; row 4 holds the same species_id text
        # beside a sample and a count.
        with pytest.raises(SchemaError, match="^row 4: empty species_id$"):
            parse("sample_id,species_id,count\nm1,a,1\n , , \nm2, ,1\n")

    def test_padded_and_zero_padded_counts(self):
        obs = read_records(stdio.StringIO(
            "sample_id,species_id,count\nm1,a, 2\nm2,a,2 \nm3,a,02\nm4,a,2\n"))
        assert obs.counts.tolist() == [2, 2, 2, 2]


class TestReadHistogram:
    """A species_id,count histogram is a long-format file without
    sample_id."""

    def test_basic(self):
        records = read_records(stdio.StringIO("species_id,count\na,3\nb,1\n"))
        tally = tally_abundance(records)
        assert tally.counts == {"a": 3, "b": 1}
        assert all(r.sample_id == "" for r in records)

    def test_wrong_header(self):
        with pytest.raises(SchemaError, match="species_id"):
            read_records(stdio.StringIO("a,b\n1,2\n"))


def test_json_report_round_trips(tmp_path):
    from silentspecies import ABUNDANCE, Tally, summarize

    rows = [summarize("g", Tally({"a": 2, "b": 1}, 3, ABUNDANCE))]
    buf = stdio.StringIO()
    write_report_json(rows, buf, metadata("cmd", seed=42))
    payload = json.loads(buf.getvalue())
    # parsing and re-serializing is idempotent
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == buf.getvalue()
    assert payload["rows"][0]["coverage"] == rows[0].coverage


# Ids as the reader returns them: stripped and non-empty, built from pieces
# that need CSV quoting (comma, quote, CR/LF) or look like a comment line.
ids = (
    st.lists(
        st.one_of(
            st.sampled_from([",", '"', "\n", "\r\n", "#", " ", "Smith, J."]),
            st.text(
                st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
                max_size=3,
            ),
        ),
        min_size=1,
        max_size=6,
    )
    .map("".join)
    .map(str.strip)
    .filter(bool)
)
record_lists = st.lists(
    st.builds(
        ObservationRecord,
        sample_id=ids,
        species_id=ids,
        count=st.integers(min_value=0, max_value=10**6),
    ),
    max_size=10,
)


@given(record_lists)
def test_records_csv_round_trip(records):
    buf = stdio.StringIO(newline="")
    write_record_blocks([Observations.from_records(records)], buf,
                        metadata("cmd", seed=1))
    buf.seek(0)
    assert list(read_records(buf)) == records


@given(record_lists)
def test_table_writer_matches_per_record_rows(records):
    assert_writes_like_per_record_rows(records)


def test_table_writer_across_chunks():
    records = [ObservationRecord(f"s{i % 7}", f"sp{i % 13}", i)
               for i in range(2 * _CHUNK_ROWS + 5)]
    assert_writes_like_per_record_rows(records)


def assert_writes_like_per_record_rows(records):
    """The list's table writes what one row per record does."""
    meta = metadata("cmd", seed=1)
    expected = stdio.StringIO(newline="")
    _write_table(expected, meta, LONG_COLUMNS,
                 ((r.sample_id, r.species_id, r.count) for r in records))
    buf = stdio.StringIO(newline="")
    write_record_blocks([Observations.from_records(records)], buf, meta)
    assert buf.getvalue() == expected.getvalue()


# Labels as a table built directly may hold them: unstripped, empty, or made
# of pieces that need CSV quoting or look like a comment line.
raw_labels = st.lists(
    st.one_of(
        st.sampled_from([",", '"', "\r", "\n", "\r\n", "#", " ", "Smith, J."]),
        st.text(max_size=2),
    ),
    max_size=4,
).map("".join)


def field_text(value):
    """A field as csv writes it: floats by repr, other values by str."""
    return repr(value) if isinstance(value, float) else str(value)


@given(st.lists(st.lists(st.one_of(raw_labels, st.integers(), st.floats()),
                         min_size=1, max_size=4),
                min_size=1, max_size=6))
def test_table_rows_read_back(table):
    """csv itself reads back every row _write_table writes, and the only CRs
    written are those inside the fields."""
    header, *rows = table
    meta = metadata("cmd", seed=1)
    buf = stdio.StringIO(newline="")
    _write_table(buf, meta, header, rows)
    text = buf.getvalue()
    data = text.split("\n", len(meta))[-1]
    assert (list(csv.reader(stdio.StringIO(data, newline="")))
            == [[field_text(value) for value in row] for row in table])
    assert text.count("\r") == sum(value.count("\r") for row in table
                                   for value in row if isinstance(value, str))


def distinct(draw, labels):
    """Distinct labels for a Column."""
    return draw(st.lists(labels, min_size=1, max_size=5, unique=True))


@st.composite
def long_tables(draw):
    """An Observations table of 2-3 chunks: a drawn run of rows repeated."""
    samples = distinct(draw, st.one_of(st.just(""), raw_labels))
    species = distinct(draw, raw_labels)
    pattern = draw(st.lists(st.tuples(
        st.integers(0, len(samples) - 1),
        st.integers(0, len(species) - 1),
        st.one_of(st.sampled_from([0, 1, 10**18]),
                  st.integers(0, 10**18)),
    ), min_size=1, max_size=20))
    n = 2 * _CHUNK_ROWS + draw(st.integers(1, _CHUNK_ROWS))
    sample_codes, species_codes, counts = np.resize(
        np.array(pattern, dtype=np.int64), (n, 3)).T
    return Observations.of(
        {"sample_id": Column(samples, sample_codes),
         "species_id": Column(species, species_codes)},
        counts, np.arange(1, n + 1))


@given(long_tables())
def test_records_writer_matches_table_rows(obs):
    meta = metadata("cmd", seed=1)
    sample, species = obs.column("sample_id"), obs.column("species_id")
    expected = stdio.StringIO(newline="")
    _write_table(expected, meta, LONG_COLUMNS, zip(
        [sample.labels[c] for c in sample.codes],
        [species.labels[c] for c in species.codes],
        obs.counts.tolist(),
    ))
    buf = stdio.StringIO(newline="")
    write_record_blocks([obs], buf, meta)
    # As lines: pytest reports the first differing line of a list, quickly.
    assert (buf.getvalue().splitlines(keepends=True)
            == expected.getvalue().splitlines(keepends=True))


# Outer whitespace as a field may carry it: none, spaces, tabs or a mix.
pads = st.sampled_from(["", " ", "\t", "  ", " \t", "\t "])
# Labels that need CSV quoting, span lines or are not ASCII; a label can
# hold inner spaces and, being drawn with outer newlines, strip to another.
padded_labels = st.text(alphabet='ab ,"\n\u00e9', min_size=1, max_size=3)


@st.composite
def padded_tables(draw):
    """The text of a long-format CSV and the file line each of its rows
    starts on. Each field spells one of a few labels (or a count) with outer
    spaces and tabs, so one label has several spellings. Counts may be
    zero-padded or blank; some rows are empty lines or hold only
    whitespace."""
    header = draw(st.permutations(["sample_id", "species_id", "count",
                                   "genre"]))
    labels = {h: draw(st.lists(padded_labels.filter(str.strip)
                               if h == "species_id"
                               else st.one_of(st.just(""), padded_labels),
                               min_size=1, max_size=4, unique=True))
              for h in header if h != "count"}

    def field(h):
        if h == "count":
            value = draw(st.one_of(st.just(""), st.builds(
                lambda zeros, n: "0" * zeros + str(n),
                st.integers(0, 3), st.integers(0, 10**6))))
        else:
            value = draw(st.sampled_from(labels[h]))
        return draw(pads) + value + draw(pads)

    rows = [[draw(pads) + h + draw(pads) for h in header]]
    for kind in draw(st.lists(st.sampled_from(["data"] * 4 + ["blank",
                                                               "empty"]),
                              max_size=30)):
        if kind == "data":
            rows.append([field(h) for h in header])
        elif kind == "blank":
            rows.append([draw(pads) for _ in header])
        else:
            rows.append([])
    buf = stdio.StringIO(newline="")
    csv.writer(buf, lineterminator="\n").writerows(rows)
    starts = [1]
    for row in rows:
        starts.append(starts[-1] + 1 + sum(f.count("\n") for f in row))
    return buf.getvalue(), starts[1:-1]


def reference_read(text, starts):
    """What read_records returns, by csv.reader, str.strip and
    first-appearance interning: labels and codes per column, counts and
    rows."""
    reader = csv.reader(stdio.StringIO(text, newline=""))
    header = [h.strip() for h in next(reader)]
    ids = {h: {} for h in header if h != "count"}
    codes = {h: [] for h in ids}
    counts, rows = [], []
    for row, start in zip(reader, starts, strict=True):
        fields = dict(zip(header, map(str.strip, row)))
        if not any(fields.values()):
            continue
        for h in ids:
            codes[h].append(ids[h].setdefault(fields[h], len(ids[h])))
        counts.append(int(fields["count"] or 1))
        rows.append(start)
    return {h: list(ids[h]) for h in ids}, codes, counts, rows


@given(padded_tables())
def test_read_records_matches_reference(table):
    text, starts = table
    obs = read_records(stdio.StringIO(text, newline=""))
    labels, codes, counts, rows = reference_read(text, starts)
    assert {h: column.labels for h, column in obs.columns.items()} == labels
    assert {h: column.codes.tolist()
            for h, column in obs.columns.items()} == codes
    assert obs.counts.tolist() == counts
    assert obs.rows.tolist() == rows

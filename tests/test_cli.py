import gc
import io as stdio
import json
import os
import re
import select
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from itertools import chain
from pathlib import Path

import pytest

import silentspecies
from silentspecies import ObservationRecord
from silentspecies import resampling, synth
from silentspecies.cli import run
from silentspecies.io import write_record_blocks

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"

# About 400 KB of output, more than a pipe buffer holds.
LARGE_SYNTH = ["synth", "--distribution", "zipf", "--species", "5000",
               "--sites", "200", "--seed", "7"]


def cli_process(argv, redirect="", **popen):
    """The CLI in a child process, importing this checkout's package; a
    `redirect` such as "<&-" is applied to it by the shell."""
    src = str(Path(silentspecies.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "silentspecies.cli", *argv]
    if redirect:
        command = ["sh", "-c", f'exec "$@" {redirect}', "sh", *command]
    return subprocess.Popen(command, env=dict(os.environ, PYTHONPATH=path),
                            **popen)


@pytest.fixture
def sessions_csv(tmp_path):
    path = tmp_path / "sessions.csv"
    path.write_text(
        "sample_id,species_id,count,genre\n"
        "m1,tuneA,3,Reel\n"
        "m1,tuneB,1,Reel\n"
        "m2,tuneA,2,Reel\n"
        "m2,tuneC,1,Jig\n"
        "m3,tuneD,1,Jig\n"
        "m3,tuneE,2,Jig\n",
        encoding="utf-8",
    )
    return path


def test_estimate_markdown_grouped(sessions_csv, capsys):
    code = run(
        [
            "estimate",
            "--input",
            str(sessions_csv),
            "--mode",
            "abundance",
            "--group-by",
            "genre",
            "--format",
            "markdown",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "| genre | Types | Tokens | TTR | f1 | f2 | Coverage |" in out
    assert "| Total |" in out
    assert "<!-- seed: 42 -->" in out


def test_estimate_empty_input_exits_1(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("sample_id,species_id,count\n", encoding="utf-8")
    code = run(["estimate", "--input", str(empty), "--mode", "abundance"])
    assert code == 1
    assert "EmptyDataset" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    assert run(["estimate"]) == 2  # neither --input nor --stdin
    assert run(["bogus-command"]) == 2


def test_schema_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("sample_id,species_id,count\nm1,a,xyz\n", encoding="utf-8")
    code = run(["estimate", "--input", str(bad), "--mode", "abundance"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaError")
    assert "row 2" in err


def test_grouped_schema_error_names_file_row(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "sample_id,species_id,count,genre\n"
        "m1,tuneA,3,Reel\n"
        "m1,tuneB,1,Reel\n"
        "m2,tuneC,1,Jig\n"
        "m2, ,1,Reel\n",
        encoding="utf-8",
    )
    assert run(["report", "--input", str(bad), "--group-by", "genre"]) == 1
    assert "row 5: empty species_id" in capsys.readouterr().err


def test_synth_pipe_into_estimate(tmp_path, monkeypatch, capsys):
    out = tmp_path / "synthetic.csv"
    code = run(
        [
            "synth",
            "--distribution",
            "zipf",
            "--alpha",
            "1.0",
            "--species",
            "500",
            "--tokens",
            "20000",
            "--seed",
            "7",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    monkeypatch.setattr(
        "sys.stdin", stdio.StringIO(out.read_text(encoding="utf-8"))
    )
    code = run(["estimate", "--stdin", "--mode", "abundance", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    coverage = payload["rows"][0]["coverage"]
    assert 0.0 < coverage <= 1.0


@pytest.mark.parametrize("draw", [["--sites", "20"], ["--tokens", "500"]])
def test_synth_builds_no_record_objects(draw, monkeypatch, capsys):
    def refuse(self, *args, **kwargs):
        raise AssertionError("ObservationRecord built")

    monkeypatch.setattr(ObservationRecord, "__init__", refuse)
    code = run(["synth", "--distribution", "zipf", "--species", "50", *draw,
                "--seed", "7"])
    assert code == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if not line.startswith("#")]
    assert lines[0] == "sample_id,species_id,count"
    assert len(lines) > 1


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_synth_output_to_a_fifo_completes(tmp_path, capsys):
    argv = ["synth", "--distribution", "zipf", "--species", "50",
            "--sites", "5", "--seed", "7"]
    assert run(argv) == 0
    expected = capsys.readouterr().out
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    got = {}

    def read_to_eof():
        # Like `cat`, this stops at the first end of file, which a writer
        # that opened and closed the pipe before writing would cause.
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        chunks = []
        while True:
            poller.poll()
            try:
                chunk = os.read(fd, 1 << 16)
            except BlockingIOError:
                continue
            if not chunk:
                break
            chunks.append(chunk)
        os.close(fd)
        got["text"] = b"".join(chunks).decode("utf-8")

    threads = [
        threading.Thread(target=read_to_eof, daemon=True),
        threading.Thread(target=lambda: got.update(
            code=run([*argv, "--output", str(fifo)])), daemon=True),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert got["code"] == 0

    def data(text):
        return [line for line in text.splitlines() if not line.startswith("#")]

    assert data(got["text"]) == data(expected)


def test_reader_closing_stdout_early_is_not_an_error():
    # As `synth ... | head -2` does under `set -o pipefail`.
    proc = cli_process(LARGE_SYNTH, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"# tool: silentspecies")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


def test_console_entry_writes_what_run_writes(capsys):
    # main() exits with the heap frozen and the collector off: the whole
    # output still reaches the pipe.
    assert run(LARGE_SYNTH) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    proc = cli_process(LARGE_SYNTH, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")
    assert len(out) > 1 << 16
    assert out == expected


# Computing commands run in one process, as a library caller or a test
# runs them, each with its exit code.
IN_PROCESS_RUNS = [
    (["tally", "--input", "abundance.csv", "--output", "tally.csv"], 0),
    (["estimate", "--input", "grouped.csv", "--mode", "incidence",
      "--format", "json"], 0),
    (["report", "--input", "grouped.csv", "--group-by", "genre",
      "--output", "report.md"], 0),
    (["accumulate", "--input", "abundance.csv", "--sizes", "100,500",
      "--replicates", "20", "--output", "accumulate.csv"], 0),
    (["bootstrap", "--input", "abundance.csv", "--replicates", "100",
      "--output", "bootstrap.csv"], 0),
    (["bootstrap", "--input", "grouped.csv", "--mode", "incidence",
      "--replicates", "100"], 0),
    (["correlate", "--input", "grouped.csv", "--group-by", "genre",
      "--trend-replicates", "20", "--output", "c.csv", "--trend-out",
      "t.csv"], 0),
    (["synth", "--species", "50", "--sites", "20", "--output", "s.csv"], 0),
    (["synth", "--species", "50", "--tokens", "500"], 0),
    (["estimate", "--input", "missing.csv", "--output", "e.csv"], 1),
    (["correlate", "--input", "grouped.csv", "--group-by", "genre",
      "--trend-degree", "9", "--output", "c9.csv", "--trend-out",
      "t9.csv"], 1),
]


@pytest.fixture
def golden_inputs(tmp_path, monkeypatch):
    for src in GOLDEN_INPUTS.iterdir():
        shutil.copy(src, tmp_path / src.name)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_run_leaves_the_collector_alone(golden_inputs, capsys):
    # Only main() turns the collector off and freezes the heap.
    for argv, code in IN_PROCESS_RUNS:
        assert run(argv) == code
        assert gc.isenabled() and gc.get_freeze_count() == 0, argv


def test_no_command_leaves_a_file_for_the_collector(golden_inputs, capsys):
    # main() exits with the heap frozen, so nothing at exit would close and
    # flush a file that a cycle kept open.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for argv, code in IN_PROCESS_RUNS:
            assert run(argv) == code
            gc.collect()
    assert [str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)] == []
    assert "unclosed" not in capsys.readouterr().err


# (argv, the value of its last flag at a small and at a large size)
GARBAGE_PAIRS = {
    "synth-sites": (["synth", "--distribution", "zipf", "--species", "500",
                     "--output", os.devnull, "--sites"], "200", "2000"),
    "bootstrap": (["bootstrap", "--input", str(GOLDEN_INPUTS / "grouped.csv"),
                   "--output", os.devnull, "--replicates"], "100", "1000"),
    "correlate-trend": (["correlate", "--input",
                         str(GOLDEN_INPUTS / "grouped.csv"), "--group-by",
                         "genre", "--output", os.devnull, "--trend-out",
                         os.devnull, "--trend-replicates"], "20", "200"),
}


@pytest.mark.parametrize("case", sorted(GARBAGE_PAIRS))
def test_cyclic_garbage_does_not_grow_with_the_input(case, capsys):
    # main() runs a command with the collector off, which is safe while no
    # command makes a reference cycle per record, site or replicate.
    argv, small, large = GARBAGE_PAIRS[case]
    assert run([*argv, small]) == 0  # imports what the command needs
    gc.collect()
    gc.disable()
    try:
        found = []
        for size in (small, large):
            assert run([*argv, size]) == 0
            found.append(gc.collect())
    finally:
        gc.enable()
    assert found[0] == found[1]


CORRELATE_TREND_FILE = ["correlate", "--input", "three.csv", "--group-by",
                        "genre", "--trend-degree", "1", "--trend-replicates",
                        "0", "--trend-out", "t.csv"]
# (argv, the shell's redirection, an existing trend file): each run starts
# with one standard stream closed.
CLOSED_STREAMS = {
    "estimate-stdin": (["estimate", "--stdin"], "<&-", False),
    "synth-tokens-stdout": (["synth", "--species", "5", "--tokens", "10"],
                            ">&-", False),
    "synth-sites-stdout": (["synth", "--species", "5", "--sites", "10"],
                           ">&-", False),
    "correlate-stdout": (CORRELATE_TREND_FILE, ">&-", False),
    "correlate-stdout-existing": (CORRELATE_TREND_FILE, ">&-", True),
}


@pytest.mark.skipif(os.name != "posix", reason="needs a POSIX shell")
@pytest.mark.parametrize("case", sorted(CLOSED_STREAMS))
def test_closed_standard_stream_is_one_error_line(case, tmp_path):
    # Checked before any output is opened: no trend file is made or cut.
    argv, redirect, existing = CLOSED_STREAMS[case]
    (tmp_path / "three.csv").write_text(THREE_GENRES, encoding="utf-8")
    if existing:
        (tmp_path / "t.csv").write_bytes(b"kept\n")
    proc = cli_process(argv, redirect, cwd=tmp_path, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=60)
    stream = "input" if redirect == "<&-" else "output"
    assert (proc.returncode, out) == (1, "")
    assert err.splitlines() == [f"error: OSError: standard {stream} is closed"]
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["t.csv", "three.csv"] if existing else ["three.csv"])
    if existing:
        assert (tmp_path / "t.csv").read_bytes() == b"kept\n"


# (argv, exit code): a run that only warns and a run that fails.
DIAGNOSED_RUNS = {
    "warning": (["bootstrap", "--input", "sessions.csv", "--replicates", "20"],
                0),
    "error": (["estimate", "--input", "sessions.csv", "--group-by", "nope"],
              1),
}


@pytest.mark.parametrize("case", sorted(DIAGNOSED_RUNS))
def test_diagnostics_with_stderr_closed_stay_off_stdout(case, sessions_csv,
                                                        capsys, monkeypatch):
    # A process started with descriptor 2 closed sees sys.stderr as None,
    # and print(file=None) writes to stdout.
    argv, code = DIAGNOSED_RUNS[case]
    monkeypatch.chdir(sessions_csv.parent)
    assert run(argv) == code
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    with monkeypatch.context() as patch:
        patch.setattr("sys.stderr", None)
        assert run(argv) == code
    assert capsys.readouterr().out == captured.out
    assert (captured.out == "") == bool(code)


@pytest.mark.skipif(os.name != "posix", reason="needs a POSIX shell")
@pytest.mark.parametrize("case", sorted(DIAGNOSED_RUNS))
def test_diagnostics_with_stderr_read_only_stay_off_stdout(case,
                                                           sessions_csv):
    argv, code = DIAGNOSED_RUNS[case]

    def stdout(redirect):
        proc = cli_process(argv, redirect, cwd=sessions_csv.parent,
                           stdout=subprocess.PIPE)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == code
        return out

    out = stdout("2</dev/null")
    assert out == stdout("2>/dev/null")
    assert (out == b"") == bool(code)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_reader_closing_an_output_fifo_early_is_an_error(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    proc = cli_process([*LARGE_SYNTH, "--output", str(fifo)],
                       stderr=subprocess.PIPE)
    try:
        data, deadline = b"", time.monotonic() + 60
        while not data and time.monotonic() < deadline:
            select.select([fd], [], [], 1)
            try:
                data = os.read(fd, 100)
            except BlockingIOError:
                continue
            if not data:  # the writer has not opened the pipe yet
                time.sleep(0.01)
        assert data.startswith(b"# tool: silentspecies")
    finally:
        os.close(fd)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err.startswith(b"error: BrokenPipeError") and err.count(b"\n") == 1


def test_accumulate_rejects_a_billion_tokens(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("species_id,count\na,600000000\nb,500000000\n")
    assert run(["accumulate", "--input", str(path), "--sizes", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: InvalidSize: accumulate needs fewer than "
                            "1,000,000,000 tokens, got n=1,100,000,000\n")
    assert captured.out == ""


def test_library_warning_is_one_stderr_line(sessions_csv, capsys):
    code = run(["bootstrap", "--input", str(sessions_csv),
                "--replicates", "10"])
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: bootstrap with 10 replicates")


def test_byte_order_mark_on_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", stdio.StringIO(
        "\ufeffsample_id,species_id,count\nm1,a,2\nm2,b,1\n"
    ))
    code = run(["estimate", "--stdin", "--mode", "incidence", "--format", "json"])
    assert code == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert (row["types"], row["tokens_or_samples"]) == (2, 2)


def test_report_grouped_by_sample_id(tmp_path, capsys):
    path = tmp_path / "input.csv"
    path.write_text("sample_id,species_id,count,genre\n"
                    "m1,a,2,Reel\nm2,b,1,Jig\n", encoding="utf-8")
    code = run(["report", "--input", str(path), "--group-by", "sample_id",
                "--format", "csv"])
    assert code == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if not line.startswith("#")]
    assert sorted(line.split(",")[:3] for line in lines[1:]) == [
        ["Total", "2", "3"], ["m1", "1", "2"], ["m2", "1", "1"],
    ]


def test_tally_emits_spectrum(sessions_csv, capsys):
    code = run(["tally", "--input", str(sessions_csv), "--mode", "abundance"])
    assert code == 0
    out = capsys.readouterr().out
    assert "r,f_r" in out


def test_report_requires_group_by(sessions_csv):
    assert run(["report", "--input", str(sessions_csv)]) == 2


def test_correlate_with_trend(tmp_path, capsys):
    # 8 groups of varying size from a synthetic population
    lines = ["sample_id,species_id,count,block"]
    from silentspecies.synth import PopulationSpec, generate, sample

    probs = generate(PopulationSpec(60, "zipf", alpha=1.1))
    for g in range(8):
        tally = sample(probs, 300 + 200 * g, seed=g)
        for species, count in sorted(tally.counts.items()):
            lines.append(f"m{g},{species},{count},b{g}")
    path = tmp_path / "blocks.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    trend = tmp_path / "trend.csv"
    code = run(
        [
            "correlate",
            "--input",
            str(path),
            "--mode",
            "abundance",
            "--group-by",
            "block",
            "--x",
            "ttr",
            "--trend-out",
            str(trend),
            "--trend-degree",
            "2",
            "--trend-replicates",
            "50",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "x_name,y_name,n,slope,intercept,r,p_value" in out
    trend_text = trend.read_text(encoding="utf-8")
    assert "x,fit,lower,upper" in trend_text
    assert len(trend_text.strip().splitlines()) > 4


THREE_GENRES = (
    "sample_id,species_id,count,genre\n"
    "m1,a,3,Reel\nm1,b,1,Reel\n"
    "m2,a,1,Jig\nm2,c,1,Jig\nm2,d,2,Jig\n"
    "m3,a,2,Polka\nm3,e,1,Polka\nm3,f,1,Polka\nm3,g,2,Polka\n"
)


def test_correlate_writes_nothing_when_the_trend_fails(tmp_path, capsys):
    path = tmp_path / "three.csv"
    path.write_text(THREE_GENRES, encoding="utf-8")
    out, trend = tmp_path / "c.csv", tmp_path / "t.csv"
    code = run(["correlate", "--input", str(path), "--group-by", "genre",
                "--output", str(out), "--trend-out", str(trend),
                "--trend-degree", "5"])
    assert code == 1
    assert "InsufficientPoints" in capsys.readouterr().err
    assert not out.exists()
    assert not trend.exists()


def test_correlate_on_groups_tied_in_ttr_writes_nothing(tmp_path, capsys):
    # Four genres whose TTRs tie in pairs: two distinct x do not determine
    # the default degree-2 trend.
    path = tmp_path / "tied.csv"
    path.write_text("sample_id,species_id,count,genre\n"
                    "m1,a,1,Reel\nm1,b,1,Reel\nm2,c,1,Jig\nm2,d,1,Jig\n"
                    "m3,a,2,Polka\nm4,b,2,Waltz\n", encoding="utf-8")
    code = run(["correlate", "--input", str(path), "--group-by", "genre",
                "--output", str(tmp_path / "c.csv"),
                "--trend-out", str(tmp_path / "t.csv")])
    assert code == 1
    assert capsys.readouterr() == ("", "error: InsufficientPoints: degree 2 "
                                   "fit needs 3 distinct x values, got 2\n")
    assert [p.name for p in tmp_path.iterdir()] == ["tied.csv"]


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("bad", ["--output", "--trend-out"])
def test_correlate_writes_nothing_when_an_output_cannot_open(
        tmp_path, capsys, bad, existing):
    path, good = tmp_path / "three.csv", tmp_path / "good.csv"
    path.write_text(THREE_GENRES, encoding="utf-8")
    if existing:
        good.write_text("kept\n", encoding="utf-8")
    outputs = {"--output": str(good), "--trend-out": str(good)}
    outputs[bad] = str(tmp_path / "nodir" / "x.csv")
    code = run(["correlate", "--input", str(path), "--group-by", "genre",
                "--trend-degree", "1", *chain(*outputs.items())])
    assert code == 1
    assert "FileNotFoundError" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["good.csv", "three.csv"] if existing else ["three.csv"])
    if existing:
        assert good.read_text(encoding="utf-8") == "kept\n"


def test_an_output_that_cannot_open_is_named_before_the_run(tmp_path,
                                                           monkeypatch,
                                                           capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("bootstrap_ci called")

    monkeypatch.setattr(resampling, "bootstrap_ci", refuse)
    code = run(["bootstrap", "--input", str(GOLDEN_INPUTS / "grouped.csv"),
                "--replicates", "20000",
                "--output", str(tmp_path / "nodir" / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: FileNotFoundError")
    assert list(tmp_path.iterdir()) == []


CORRELATE_THREE = ["correlate", "--input", "three.csv", "--group-by", "genre",
                   "--trend-degree", "1", "--trend-replicates", "0"]


def test_two_outputs_on_one_new_file_leave_no_file(tmp_path, monkeypatch,
                                                   capsys):
    (tmp_path / "three.csv").write_text(THREE_GENRES, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = run([*CORRELATE_THREE, "--output", "same.csv",
                "--trend-out", "./same.csv"])
    assert code == 1
    assert capsys.readouterr() == ("", "error: OSError: 'same.csv' and "
                                   "'./same.csv' are one file\n")
    assert [p.name for p in tmp_path.iterdir()] == ["three.csv"]


@pytest.mark.filterwarnings("always")  # as a fresh interpreter shows them
def test_two_outputs_on_one_file_are_named_before_the_trend_band(
        tmp_path, monkeypatch, capsys):
    # The band's 200 replicates would warn that one is left out.
    shutil.copy(GOLDEN_INPUTS / "grouped.csv", tmp_path)
    monkeypatch.chdir(tmp_path)
    code = run(["correlate", "--input", "grouped.csv", "--group-by", "genre",
                "--output", "same.csv", "--trend-out", "./same.csv"])
    assert code == 1
    assert capsys.readouterr() == ("", "error: OSError: 'same.csv' and "
                                   "'./same.csv' are one file\n")
    assert [p.name for p in tmp_path.iterdir()] == ["grouped.csv"]


def test_an_output_hard_linked_to_the_other_keeps_its_bytes(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    (tmp_path / "three.csv").write_text(THREE_GENRES, encoding="utf-8")
    (tmp_path / "kept.csv").write_bytes(b"kept\n")
    os.link(tmp_path / "kept.csv", tmp_path / "link.csv")
    monkeypatch.chdir(tmp_path)
    code = run([*CORRELATE_THREE, "--output", "kept.csv",
                "--trend-out", "link.csv"])
    assert code == 1
    errors = capsys.readouterr().err.splitlines()
    assert errors == ["error: OSError: 'kept.csv' and 'link.csv' are one file"]
    assert (tmp_path / "kept.csv").read_bytes() == b"kept\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                    reason="needs /dev/stdout")
def test_an_output_on_the_file_stdout_writes_is_an_error(tmp_path):
    # Standard output is a regular file, and the trend names it again.
    (tmp_path / "three.csv").write_text(THREE_GENRES, encoding="utf-8")
    out = tmp_path / "out.csv"
    with open(out, "wb") as stdout:
        proc = cli_process([*CORRELATE_THREE, "--trend-out", "/dev/stdout"],
                           cwd=tmp_path, stdout=stdout,
                           stderr=subprocess.PIPE, text=True)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err.splitlines() == ["error: OSError: standard output and "
                                "'/dev/stdout' are one file"]
    assert out.read_bytes() == b""


def test_correlate_trend_without_band_writes_the_fit(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text(THREE_GENRES, encoding="utf-8")

    def trend_rows(replicates):
        trend = tmp_path / f"t{replicates}.csv"
        assert run(["correlate", "--input", str(path), "--group-by", "genre",
                    "--output", str(tmp_path / "c.csv"),
                    "--trend-out", str(trend), "--trend-degree", "1",
                    "--trend-replicates", str(replicates)]) == 0
        return [line.split(",") for line in
                trend.read_text(encoding="utf-8").splitlines()
                if not line.startswith("#")]

    rows, banded = trend_rows(0), trend_rows(20)
    assert rows[0] == ["x", "fit", "lower", "upper"]
    assert len(rows) == 4  # one row per genre's distinct x
    assert [r[:2] for r in rows] == [r[:2] for r in banded]
    assert all(lower == upper == "" for _, _, lower, upper in rows[1:])


@pytest.mark.filterwarnings("always")  # as a fresh interpreter shows them
def test_trend_replicate_warnings_are_one_line(tmp_path, capsys):
    # Some of the 200 resamples of three points repeat one x; each such
    # replicate is left out, and they are reported once, counted.
    path = tmp_path / "three.csv"
    path.write_text(THREE_GENRES, encoding="utf-8")
    assert run(["correlate", "--input", str(path), "--group-by", "genre",
                "--output", str(tmp_path / "c.csv"),
                "--trend-out", str(tmp_path / "t.csv"),
                "--trend-degree", "1"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"warning: \d+ of 200 trend replicates left out: "
                        r"fewer than 2 distinct x values", err[0])


# Five groups of distinct TTR: THREE_GENRES and two more.
FIVE_GENRES = (THREE_GENRES + "m4,a,1,Waltz\nm4,h,1,Waltz\nm4,i,3,Waltz\n"
               "m5,j,1,Hornpipe\nm5,a,1,Hornpipe\n")


@pytest.mark.filterwarnings("always")
@pytest.mark.parametrize("text, left_out", [
    # A degree-2 fit needs 3 distinct x: most resamples of 3 points lack
    # them, so no band is left; most resamples of 5 points have them.
    (THREE_GENRES, "166 of 200 trend replicates left out: fewer than 3 "
                   "distinct x values; no band, as fewer than half remain"),
    (FIVE_GENRES, "15 of 200 trend replicates left out: fewer than 3 "
                  "distinct x values"),
], ids=["3-points", "5-points"])
def test_trend_band_leaves_out_underdetermined_replicates(text, left_out,
                                                          tmp_path, capsys):
    path = tmp_path / "groups.csv"
    path.write_text(text, encoding="utf-8")

    def trend_rows(replicates):
        trend = tmp_path / f"t{replicates}.csv"
        assert run(["correlate", "--input", str(path), "--group-by", "genre",
                    "--output", str(tmp_path / "c.csv"),
                    "--trend-out", str(trend),
                    "--trend-replicates", str(replicates)]) == 0
        return [line.split(",") for line in data_lines(
            trend.read_text(encoding="utf-8"))[1:]]

    unbanded, banded = trend_rows(0), trend_rows(200)
    assert capsys.readouterr().err.splitlines() == [f"warning: {left_out}"]
    assert [row[:2] for row in banded] == [row[:2] for row in unbanded]
    if "no band" in left_out:
        assert banded == unbanded
    else:
        # Left in, the underdetermined replicates put the upper bound at
        # x = 1 at 11.34.
        assert all(-4 < float(lower) <= float(upper) < 4
                   for _, _, lower, upper in banded)


def test_outputs_embed_reproducible_metadata(sessions_csv, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = [
        "estimate",
        "--input",
        str(sessions_csv),
        "--mode",
        "abundance",
        "--group-by",
        "genre",
    ]
    assert run(argv + ["--output", str(out1)]) == 0
    assert run(argv + ["--output", str(out2)]) == 0
    a = out1.read_bytes()
    b = out2.read_bytes()
    # identical modulo the --output path recorded in the command line
    assert a.replace(b"a.csv", b"") == b.replace(b"b.csv", b"")
    text = out1.read_text(encoding="utf-8")
    assert "# tool: silentspecies" in text
    assert "# seed: 42" in text
    assert "# estimator:" in text


HUGE_REPLICATES = str(10**13)  # 218 TiB of results
BEYOND_INT64 = "99999999999999999999"

# (argv, environment, exit code, text the one `error:` line must name)
BOUNDARY_CASES = {
    "threads-env": (
        ["bootstrap", "--input", "sessions.csv", "--replicates", "100"],
        {"SILENTSPECIES_THREADS": "abc"}, 1, "SILENTSPECIES_THREADS"),
    "threads-env-negative": (
        ["bootstrap", "--input", "sessions.csv", "--replicates", "100"],
        {"SILENTSPECIES_THREADS": "-1"}, 1, "SILENTSPECIES_THREADS"),
    # An Arabic-Indic digit three: str.isdecimal and int() take it as 3.
    "threads-env-non-ascii-digit": (
        ["bootstrap", "--input", "sessions.csv", "--replicates", "100"],
        {"SILENTSPECIES_THREADS": "\u0663"}, 1, "SILENTSPECIES_THREADS"),
    "sort-by-flag": (
        ["report", "--input", "sessions.csv", "--group-by", "genre",
         "--sort-by", "nope"], {}, 2, "argument --sort-by"),
    "sizes-flag": (
        ["accumulate", "--input", "sessions.csv", "--sizes", "1,x"], {}, 2,
        "argument --sizes"),
    "synth-draw": (
        ["synth", "--species", "10"], {}, 2, "--tokens --sites is required"),
    "level-flag": (
        ["bootstrap", "--input", "sessions.csv", "--level", "1.5"], {}, 1,
        "level"),
    "missing-input": (
        ["estimate", "--input", "missing.csv"], {}, 1, "missing.csv"),
    "missing-group-column": (
        ["estimate", "--input", "sessions.csv", "--group-by", "nope"], {}, 1,
        "'nope'"),
    # An empty option value is a path or a column name like any other.
    "empty-output": (
        ["estimate", "--input", "sessions.csv", "--output", ""], {}, 1,
        "No such file or directory: ''"),
    "empty-trend-out": (
        ["correlate", "--input", "sessions.csv", "--group-by", "sample_id",
         "--trend-out", "", "--trend-degree", "1", "--trend-replicates", "0"],
        {}, 1, "No such file or directory: ''"),
    "empty-group-by": (
        ["report", "--input", "sessions.csv", "--group-by", ""], {}, 1,
        "no group column ''"),
    # Zero replicates pass the parser and are refused by the layer (exit 1);
    # a negative --trend-replicates is a usage error (exit 2).
    "zero-replicates-bootstrap": (
        ["bootstrap", "--input", "sessions.csv", "--replicates", "0"], {}, 1,
        "InvalidSize"),
    "zero-replicates-accumulate": (
        ["accumulate", "--input", "sessions.csv", "--sizes", "2",
         "--replicates", "0"], {}, 1, "InvalidSize"),
    "empty-sizes": (
        ["accumulate", "--input", "sessions.csv", "--sizes", ","], {}, 1,
        "InvalidSize"),
    "negative-seed": (
        ["estimate", "--input", "sessions.csv", "--seed", "-1"], {}, 2,
        "argument --seed"),
    "negative-seed-synth": (
        ["synth", "--species", "10", "--tokens", "50", "--seed", "-1"], {}, 2,
        "argument --seed"),
    "synth-alpha-nan": (
        ["synth", "--distribution", "zipf", "--alpha", "nan", "--species", "5",
         "--tokens", "5"], {}, 1, "alpha"),
    "synth-sigma-overflow": (
        ["synth", "--distribution", "lognormal", "--sigma", "1e308",
         "--species", "5", "--tokens", "5"], {}, 1, "sigma"),
    # numpy's multinomial cannot take a count beyond int64.
    "synth-huge-tokens": (
        ["synth", "--species", "10", "--tokens", BEYOND_INT64], {}, 1,
        "int64"),
    "synth-huge-per-site": (
        ["synth", "--species", "10", "--sites", "2", "--per-site",
         BEYOND_INT64], {}, 1, "int64"),
    "negative-trend-replicates": (
        ["correlate", "--input", "sessions.csv", "--group-by", "genre",
         "--trend-out", "trend.csv", "--trend-replicates", "-5"], {}, 2,
        "argument --trend-replicates"),
    "zero-trend-degree": (
        ["correlate", "--input", "sessions.csv", "--group-by", "genre",
         "--trend-out", "trend.csv", "--trend-degree", "0"], {}, 2,
        "argument --trend-degree"),
    "negative-trend-degree": (
        ["correlate", "--input", "sessions.csv", "--group-by", "genre",
         "--trend-degree", "-1"], {}, 2, "argument --trend-degree"),
    # The (replicates x 3) result array cannot be allocated, which is
    # reported before any replicate is drawn.
    "huge-replicates-bootstrap": (
        ["bootstrap", "--input", "sessions.csv", "--replicates",
         HUGE_REPLICATES], {}, 1, "MemoryError"),
    "huge-replicates-incidence": (
        ["bootstrap", "--input", "sessions.csv", "--mode", "incidence",
         "--replicates", HUGE_REPLICATES], {}, 1, "MemoryError"),
    "huge-replicates-accumulate": (
        ["accumulate", "--input", "sessions.csv", "--sizes", "2",
         "--replicates", HUGE_REPLICATES], {}, 1, "MemoryError"),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_bad_flag_or_environment_gives_one_error_line(
    case, sessions_csv, monkeypatch, capsys
):
    argv, env, code, named = BOUNDARY_CASES[case]
    monkeypatch.chdir(sessions_csv.parent)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert run(argv) == code
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert named in errors[0]
    assert captured.out == ""


@pytest.mark.parametrize("detection", ["1", "0.5"])
def test_synth_refuses_an_impossible_site_count_at_once(detection):
    # Three species take the multinomial sampler, which draws site by site
    # (and thins each site right after its draw) once its per-site row
    # counts are allocated.
    proc = cli_process(["synth", "--species", "3", "--sites", BEYOND_INT64,
                        "--detection", detection, "--output", os.devnull],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    try:
        out, err = proc.communicate(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        pytest.fail("synth --sites beyond int64 still ran after 20 s")
    assert proc.returncode == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


# Each refused before the output is opened, though synth --sites draws its
# sites only as the writer asks for them.
BAD_SITE_ARGUMENTS = {
    "detection-0": ["--sites", "5", "--detection", "0"],
    "per-site-0": ["--sites", "5", "--per-site", "0"],
    "per-site-beyond-int64": ["--sites", "5", "--per-site", BEYOND_INT64],
    "sites-0": ["--sites", "0"],
    "sites-beyond-int64": ["--sites", BEYOND_INT64],
}


@pytest.mark.parametrize("exists", [True, False], ids=["existing", "absent"])
@pytest.mark.parametrize("case", sorted(BAD_SITE_ARGUMENTS))
def test_synth_bad_site_argument_leaves_the_output_alone(case, exists,
                                                         tmp_path, capsys):
    out = tmp_path / "out.csv"
    if exists:
        out.write_bytes(b"kept,as,is\r\n")
    assert run(["synth", "--species", "10", *BAD_SITE_ARGUMENTS[case],
                "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if exists:
        assert out.read_bytes() == b"kept,as,is\r\n"
    else:
        assert not out.exists()


def data_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


# (species, per-site tokens, detection, sites): a site block of `budget`
# tokens is budget // min(per-site, species) sites.
BLOCKED_SHAPES = {
    "categorical": (200, 5, 1.0, 50),
    "categorical-thinned": (200, 5, 0.7, 50),
    "multinomial": (20, 40, 1.0, 10),
    "multinomial-thinned": (20, 40, 0.7, 10),
    "one-site": (200, 5, 0.7, 1),
    # One token a site, mostly thinned away: sites 0, 3, 4, 8 and 11, each
    # first or last of its block of 4, end up with no row.
    "empty-edge-sites": (200, 1, 0.3, 15),
}


@pytest.mark.parametrize("shape", sorted(BLOCKED_SHAPES))
def test_synth_blocks_write_what_one_block_does(shape, monkeypatch, capsys):
    species, per_site, detection, sites = BLOCKED_SHAPES[shape]
    population = synth.generate(synth.PopulationSpec(species, "zipf"))
    expected = stdio.StringIO()
    # At the default budget, each shape here is one block.
    table = synth.sample_site_records(population, sites, per_site, detection,
                                      seed=21)
    write_record_blocks([table], expected, {})
    budget = 4 * min(per_site, species)
    step = budget // min(per_site, species)
    monkeypatch.setattr(synth, "_BLOCK_TOKENS", budget)
    if sites > 1:
        assert sites > 2 * step and sites % step  # 3 or more, the last cut
    assert run(["synth", "--distribution", "zipf", "--species", str(species),
                "--sites", str(sites), "--per-site", str(per_site),
                "--detection", str(detection), "--seed", "21"]) == 0
    assert data_lines(capsys.readouterr().out) == data_lines(
        expected.getvalue())
    if shape == "empty-edge-sites":
        seen = set(table.column("sample_id").codes.tolist())
        empty = sorted(set(range(sites)) - seen)
        assert any(site % step in (0, step - 1) for site in empty)


@pytest.mark.parametrize("args", [
    ["--species", "5000", "--per-site", "100"],
    ["--species", "40", "--per-site", "200", "--detection", "0.7"],
], ids=["categorical", "multinomial-thinned"])
def test_synth_sites_peak_is_flat_in_the_site_count(args, tmp_path):
    # The traced peak of the whole command, at 2 and at 8 blocks of sites:
    # each block is written before the next is drawn, so the peak does not
    # grow with --sites. Drawing every site before writing read 3.7x
    # (categorical) and 3.9x (multinomial).
    species, per_site = int(args[1]), int(args[3])
    step = synth._BLOCK_TOKENS // min(species, per_site)

    def peak(blocks):
        argv = ["synth", "--distribution", "zipf", *args,
                "--sites", str(blocks * step), "--output",
                str(tmp_path / "out.csv")]
        assert run(argv) == 0  # untraced: first-use allocations fall outside
        tracemalloc.start()
        try:
            assert run(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8) <= 1.1 * peak(2)


HEADER = "sample_id,species_id,count\n"
GROUPED = "sample_id,species_id,count,genre\n"
INCIDENCE_BY_GENRE = ["--mode", "incidence", "--group-by", "genre"]

# (file text, extra estimate flags, text the one `error:` line must name)
MALFORMED_FILES = {
    "empty-file": ("", [], "missing header row"),
    "duplicate-header": ("sample_id,species_id,species_id\nm1,a,b\n", [],
                         "duplicate header"),
    "no-species-column": ("sample_id,count\nm1,1\n", [],
                          "missing species_id column"),
    "wrong-field-count": (HEADER + "m1,a,1\nm2,b\n", [],
                          "row 3: expected 3 fields, got 2"),
    "non-integer-count": (HEADER + "m1,a,1\nm1,b,two\n", [],
                          "row 3: non-integer count 'two'"),
    "negative-count": ("# tool: x\n# seed: 1\n" + HEADER + "m1,a,1\nm2,b,-1\n",
                       [], "row 5: negative count -1"),
    "empty-species": (HEADER + "m1,a,1\nm1, ,1\n", [], "row 3: empty species_id"),
    "blank-sample-incidence": (GROUPED + "m1,a,1,J\n\n,c,1,J\n",
                               INCIDENCE_BY_GENRE, "row 4: missing sample_id"),
    "blank-sample-before-blank-group": (
        GROUPED + "m1,a,1,J\n,b,1,J\nm3,c,1,J\nm4,d,1, \n",
        INCIDENCE_BY_GENRE, "row 3: missing sample_id in incidence mode"),
    "missing-group-value": (GROUPED + "m1,a,1,J\nm2,b,1, \n",
                            INCIDENCE_BY_GENRE,
                            "row 3: missing group attribute 'genre'"),
    "all-counts-zero": (HEADER + "m1,a,0\nm2,b,0\n", [],
                        "no records with positive counts"),
    "overlong-field": (HEADER + "m1,a,1\nm2," + "b" * 200_000 + ",1\n", [],
                       "row 3: field larger than field limit"),
    "count-beyond-int64": (HEADER + f"m1,a,{2**63}\n", [],
                           "row 2: count 9223372036854775808 outside"),
    "total-count-beyond-int64": (HEADER + f"m1,a,{2**62}\nm2,b,{2**62}\n", [],
                                 "total count 9223372036854775808 exceeds "
                                 "the int64 range"),
    # Every group's total fits; the pooled Total's does not.
    "grouped-total-count-beyond-int64": (
        GROUPED + f"m1,a,{2**62},X\nm2,b,{2**62},Y\n", ["--group-by", "genre"],
        "total count 9223372036854775808 exceeds the int64 range"),
    "count-of-5000-digits": (HEADER + "m1,a," + "9" * 5000 + "\n", [],
                             "row 2: count " + "9" * 40 + "... (5000 "
                             "characters) outside the int64 range\n"),
    "count-of-5000-letters": (HEADER + "m1,a," + "x" * 5000 + "\n", [],
                              "row 2: non-integer count '" + "x" * 40
                              + "'... (5000 characters)\n"),
    "count-with-underscore": (HEADER + "m1,a,1\nm1,b,1_000\n", [],
                              "row 3: non-integer count '1_000'"),
    "count-with-plus-sign": (HEADER + "m1,a,+3\n", [],
                             "row 2: non-integer count '+3'"),
    "count-in-non-ascii-digits": (HEADER + "m1,a,1\nm1,b,\u0663\n", [],
                                  "row 3: non-integer count '\u0663'"),
    "group-column-absent": (GROUPED + "m1,a,1,J\n", ["--group-by", "nope"],
                            "the input has no group column 'nope'"),
    "group-by-count": (GROUPED + "m1,a,1,J\n", ["--group-by", "count"],
                       "the input has no group column 'count'"),
    # The first bad byte by row, not by column: sample_id comes first.
    "undecodable-byte-input": (
        HEADER.encode() + b"m1,a,1\nm2,a\xff,1\nm\xfe3,b,1\n", [],
        "row 3: undecodable byte 0xff in 'species_id'"),
    "undecodable-byte-stdin": (
        HEADER.encode() + b"m1,a,1\nm2,a\xff,1\nm\xfe3,b,1\n", ["--stdin"],
        "row 3: undecodable byte 0xff in 'species_id'"),
    # One pass: a bad label fails at its own row, before a later bad count.
    "undecodable-before-bad-count": (
        HEADER.encode() + b"m1,a,1\nm2,\xff,1\nm3,b,1\nm4,c,x\n", [],
        "row 3: undecodable byte 0xff in 'species_id'"),
    # Within a row, the columns after species_id in header order.
    "undecodable-sample-and-group": (
        GROUPED.encode() + b"m1,a,1,J\nm\xfe2,b,1,R\xff\n", [],
        "row 3: undecodable byte 0xfe in 'sample_id'"),
    "undecodable-count": (HEADER.encode() + b"m1,a,1\nm2,b,1\xc3\n", [],
                          "row 3: undecodable byte 0xc3 in 'count'"),
    "undecodable-header": (b"sample_id,species_id,c\xe9\nm1,a,1\n",
                           ["--stdin"],
                           "row 1: undecodable byte 0xe9 in the header"),
    # The outputs are opened before the input is read.
    "bad-row-and-output-in-missing-dir": (
        HEADER + "m1,a,1\nm1,b,two\n",
        ["--output", os.path.join(os.sep, "no-such-dir", "x.csv")],
        "FileNotFoundError"),
}


def utf8_mode_stdin(data: bytes):
    """Standard input as Python opens it on POSIX in UTF-8 mode."""
    return stdio.TextIOWrapper(stdio.BytesIO(data), encoding="utf-8",
                               errors="surrogateescape", newline="\n")


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_gives_one_error_line(case, tmp_path, monkeypatch,
                                             capsys):
    text, flags, named = MALFORMED_FILES[case]
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    if "--stdin" in flags:
        monkeypatch.setattr("sys.stdin", utf8_mode_stdin(data))
    else:
        flags = ["--input", str(path), *flags]
    assert run(["estimate", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert named in captured.err
    assert captured.out == ""


def test_stdin_reads_like_input(tmp_path, monkeypatch, capsys):
    # Old Mac line ends, and a line break inside a quoted id.
    data = b'sample_id,species_id,count\rm1,"a\r\nb",2\rm2,c,1\r'
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    flags = ["estimate", "--group-by", "species_id", "--format", "json"]
    assert run([*flags, "--input", str(path)]) == 0
    from_file = json.loads(capsys.readouterr().out)["rows"]
    monkeypatch.setattr("sys.stdin", utf8_mode_stdin(data))
    assert run([*flags, "--stdin"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == from_file
    assert sorted(row["group_key"] for row in from_file) == [
        "Total", "a\r\nb", "c"]


def test_markdown_report_escapes_cells(tmp_path, capsys):
    path = tmp_path / "input.csv"
    path.write_text('sample_id,species_id,count,genre\n'
                    'm1,a,2,x|y\nm2,b,1,"two\nlines"\n', encoding="utf-8")
    assert run(["report", "--input", str(path), "--group-by", "genre"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("|")]
    assert len(rows) == 5  # header, rule, two groups and Total
    assert sorted(rows[2:4]) == [
        "| two<br>lines | 1 | 1 | 1.000 | 1 | 0 | 1.000 |",
        "| x\\|y | 1 | 2 | 0.500 | 0 | 1 | 1.000 |",
    ]
    for row in rows:
        assert len(re.split(r"(?<!\\)\|", row)) == 9  # 7 cells and 2 ends


def test_metadata_with_line_break_reads_back(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    name = "a\nb.csv"
    assert run(["synth", "--species", "5", "--tokens", "20",
                "--output", name]) == 0
    assert run(["estimate", "--input", name]) == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
    assert lines[1] == "# command: silentspecies synth --species 5 --tokens " \
                       "20 --output 'a\\nb.csv'"


def test_markdown_metadata_comment_is_not_ended_early(sessions_csv,
                                                      monkeypatch):
    monkeypatch.chdir(sessions_csv.parent)
    assert run(["report", "--input", "sessions.csv", "--group-by", "genre",
                "--output", "x-->y.md"]) == 0
    text = (sessions_csv.parent / "x-->y.md").read_text(encoding="utf-8")
    comments = [line for line in text.splitlines() if line.startswith("<!--")]
    assert len(comments) == 4
    for line in comments:
        assert line.endswith(" -->")
        assert "-->" not in line[:-len(" -->")]
    assert "--output 'x--&gt;y.md' -->" in comments[1]

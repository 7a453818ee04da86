"""The README's quick tour runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def first_python_block(text: str) -> str:
    """The text between the first ```python fence and the next closing
    fence."""
    start = text.index("```python\n") + len("```python\n")
    return text[start:text.index("```", start)]


def test_quick_tour_runs(capsys):
    exec(compile(first_python_block(README.read_text(encoding="utf-8")),
                 str(README), "exec"), {})
    s_obs, s_hat, coverage = capsys.readouterr().out.split()
    assert int(s_obs) == 3 and float(s_hat) >= 3
    assert 0 < float(coverage) <= 1

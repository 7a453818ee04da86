"""The package's public names and what each entry point imports.

Every check runs in a fresh interpreter, so that modules imported by other
tests cannot hide a name that resolves only by accident.
"""

import importlib.metadata
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import silentspecies

SRC = str(Path(silentspecies.__file__).resolve().parents[1])

# The submodules that `import silentspecies` alone makes attributes.
SUBMODULES = ("analysis", "choices", "errors", "estimators", "resampling",
              "stats", "synth", "tally", "version")


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """`python *args` in a new interpreter importing this checkout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))


def check_in_fresh_python(code: str) -> None:
    result = fresh_python("-c", code)
    assert result.returncode == 0, result.stderr


def test_bare_import_resolves_the_submodules():
    check_in_fresh_python(f"""
import silentspecies
for name in {SUBMODULES!r}:
    module = getattr(silentspecies, name)
    assert module.__name__ == "silentspecies." + name, name
""")


def test_public_names_are_their_submodules_objects():
    check_in_fresh_python(f"""
import importlib
import silentspecies
assert set(silentspecies.__all__) <= set(dir(silentspecies))
modules = [importlib.import_module("silentspecies." + name)
           for name in {SUBMODULES!r}]
for name in silentspecies.__all__:
    value = getattr(silentspecies, name)
    homes = [module for module in modules if name in vars(module)]
    assert homes, name
    for module in homes:
        assert getattr(module, name) is value, (name, module.__name__)
""")


def test_unknown_name_raises_attribute_error():
    check_in_fresh_python("""
import silentspecies
try:
    silentspecies.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("no AttributeError")
assert not hasattr(silentspecies, "no_such_name")
""")


def test_star_import_binds_every_public_name():
    check_in_fresh_python("""
namespace = {}
exec("from silentspecies import *", namespace)
import silentspecies
for name in silentspecies.__all__:
    assert namespace[name] is getattr(silentspecies, name), name
""")


# Prepended to each script: on exit, the names of every imported module as
# the last line of stderr. sys.modules sees each import, also those that
# -X importtime does not list.
SHOW_MODULES = """import atexit, json, sys
atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))
"""
# Runs the script's arguments as `python -m silentspecies.cli` does.
RUN_CLI = """import runpy
runpy.run_module("silentspecies.cli", run_name="__main__", alter_sys=True)
"""


def imported(code: str, *argv: str) -> tuple[int, set[str]]:
    """The exit code of `code` run with `argv` in a fresh interpreter, and
    the modules it imported."""
    result = fresh_python("-c", SHOW_MODULES + code, *argv)
    return result.returncode, set(json.loads(result.stderr.splitlines()[-1]))


# (script, arguments, exit code): entry points that run no layer.
WITHOUT_NUMPY = {
    "import": ("import silentspecies", (), 0),
    "import-cli": ("import silentspecies.cli", (), 0),
    "vocabulary": ("from silentspecies import ABUNDANCE, INCIDENCE, "
                   "GroupReportRow", (), 0),
    "version": (RUN_CLI, ("--version",), 0),
    "help": (RUN_CLI, ("--help",), 0),
    "usage-error": (RUN_CLI, ("bootstrap", "--input", "x", "--replicates",
                              "abc"), 2),
}


@pytest.mark.parametrize("case", sorted(WITHOUT_NUMPY))
def test_entry_points_that_run_no_layer_import_no_numpy(case):
    code, argv, exit_code = WITHOUT_NUMPY[case]
    returncode, modules = imported(code, *argv)
    assert returncode == exit_code
    assert "silentspecies" in modules
    assert "numpy" not in modules


def layers(*names: str) -> set[str]:
    return {f"silentspecies.{name}" for name in names}


# (CLI arguments after the input, modules the command must not import)
COMMANDS = {
    "report": (["report", "--group-by", "genre"],
               layers("resampling", "stats", "synth")),
    "estimate": (["estimate"], layers("resampling", "stats", "synth")),
    "tally": (["tally"], layers("resampling", "stats", "synth")),
    "report-incidence": (["report", "--mode", "incidence", "--group-by",
                          "genre"],
                         layers("resampling", "stats", "synth")),
    "estimate-incidence": (["estimate", "--mode", "incidence"],
                           layers("resampling", "stats", "synth")),
    "tally-incidence": (["tally", "--mode", "incidence"],
                        layers("resampling", "stats", "synth")),
    "bootstrap": (["bootstrap", "--replicates", "100"],
                  layers("stats", "synth", "analysis")),
    "bootstrap-incidence": (["bootstrap", "--mode", "incidence",
                             "--replicates", "100"],
                            layers("stats", "synth", "analysis")),
    "accumulate": (["accumulate", "--sizes", "2,4", "--replicates", "100"],
                   layers("stats", "synth", "analysis")),
    # The trend band draws on `streams`, which imports neither.
    "correlate-incidence": (["correlate", "--mode", "incidence",
                             "--group-by", "genre", "--trend-out",
                             os.devnull],
                            layers("resampling", "synth")),
    # Without a band the trend file's grid is the sorted distinct x alone.
    "correlate-no-band": (["correlate", "--group-by", "genre",
                           "--trend-replicates", "0", "--trend-out",
                           os.devnull],
                          layers("resampling", "synth")),
}
# No successful command imports decimal: only the error for a count beyond
# int64 needs it. Nor numpy.ma, which np.unique and np.quantile import and
# which costs over 1 MB: the package's own `_unique` and `_quantile` stand
# in for them. Nor concurrent.futures or logging: the resampling workers
# are plain threads.
NEVER = {"concurrent.futures", "decimal", "logging", "numpy.ma"}

# Top-level import name -> the installed distributions that provide it. The
# stdlib, and Cython's `_cython_*` and `cython_runtime` modules, have none.
OWNERS = importlib.metadata.packages_distributions()


def distributions(modules: set[str]) -> set[str]:
    return {dist for name in modules
            for dist in OWNERS.get(name.partition(".")[0], ())}


@pytest.fixture(scope="module")
def needs_only_numpy():
    """Assert that imported modules need no distribution but numpy at run
    time, beside this package and what a bare interpreter imports (`.pth`
    files may import some, such as certifi)."""
    ignored = (distributions(imported("pass")[1])
               | set(OWNERS.get("silentspecies", ())))

    def check(modules: set[str]) -> None:
        assert distributions(modules) - ignored == {"numpy"}
    return check


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "tiny.csv"
    # Three genres, the fewest that correlate fits a trend to, each of its
    # own TTR and STR: a degree-2 trend needs three distinct x.
    path.write_text("sample_id,species_id,count,genre\n"
                    "m1,a,3,Reel\nm1,b,1,Reel\nm2,a,2,Reel\n"
                    "m2,c,1,Jig\nm3,d,1,Jig\nm3,e,2,Jig\n"
                    "m4,a,1,Polka\nm4,f,2,Polka\nm5,b,1,Polka\n"
                    "m6,g,1,Polka\n",
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_each_command_imports_only_its_layers(case, tiny_csv,
                                              needs_only_numpy):
    argv, forbidden = COMMANDS[case]
    returncode, modules = imported(RUN_CLI, *argv, "--input", str(tiny_csv),
                                   "--output", os.devnull)
    assert returncode == 0
    assert not modules & (forbidden | NEVER)
    needs_only_numpy(modules)


# synth reads no CSV, so it does not load the array module that
# read_records collects row numbers in.
SYNTH_FORBIDDEN = (layers("resampling", "stats", "analysis", "estimators")
                   | {"array"} | NEVER)


def test_synth_imports_only_its_layers(needs_only_numpy):
    returncode, modules = imported(RUN_CLI, "synth", "--species", "10",
                                   "--tokens", "50", "--output", os.devnull)
    assert returncode == 0
    assert not modules & SYNTH_FORBIDDEN
    needs_only_numpy(modules)


# synth --sites arguments per site sampler; detection < 1 runs the thinning.
SYNTH_SITES = {
    "categorical": ["--species", "500", "--per-site", "30",
                    "--detection", "0.7"],
    "multinomial": ["--species", "40", "--per-site", "200"],
}


@pytest.mark.parametrize("sampler", sorted(SYNTH_SITES))
def test_synth_sites_import_only_its_layers(sampler, needs_only_numpy):
    returncode, modules = imported(RUN_CLI, "synth", *SYNTH_SITES[sampler],
                                   "--sites", "20", "--output", os.devnull)
    assert returncode == 0
    assert not modules & SYNTH_FORBIDDEN
    needs_only_numpy(modules)

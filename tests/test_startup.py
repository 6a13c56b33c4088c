"""What a cold run loads: each subcommand imports only the mexcrank modules
it runs, and no module loads ``typing``, ``dataclasses`` or ``inspect``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mexcrank

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs `mexcrank ARGS...` in this fresh interpreter and prints, one a line,
# the modules the run added to those the interpreter started with.
PROBE = """
import io, sys
start = set(sys.modules)
from mexcrank import cli
sys.stdout = io.StringIO()
code = cli.main(sys.argv[1:])
loaded = sorted(set(sys.modules) - start)
sys.stdout = sys.__stdout__
print(code, *loaded, sep="\\n")
"""

MODULES = {"mexcrank.partitions", "mexcrank.counting", "mexcrank.qseries", "mexcrank.verify"}

# Each subcommand, and the mexcrank modules it must load.
RUNS = {
    "stat 3 1": {"mexcrank.partitions"},
    "series --kind distinct --order 5": {"mexcrank.qseries"},
    "table --fn M --m 1 --n-max 5": {"mexcrank.counting", "mexcrank.partitions"},
    "table --fn q --n-max 5": {"mexcrank.counting", "mexcrank.partitions"},
    "verify --check EWELL_ODD --n-max 2 --format json": MODULES,
}


def loaded_by(args: str) -> set[str]:
    result = subprocess.run(
        [sys.executable, "-c", PROBE, *args.split()], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert result.returncode == 0, result.stderr
    code, *loaded = result.stdout.splitlines()
    assert code == "0"
    return set(loaded)


@pytest.mark.parametrize("args", sorted(RUNS))
def test_each_subcommand_loads_only_its_modules(args):
    loaded = loaded_by(args)
    assert loaded & MODULES == RUNS[args]
    assert not loaded & {"dataclasses", "inspect"}
    if "--format json" not in args and not args.startswith("stat"):
        assert "json" not in loaded


def test_no_module_loads_typing():
    # -I -S: no site, so no .pth file has loaded typing before mexcrank runs.
    # -I also ignores PYTHONDONTWRITEBYTECODE, so -B keeps __pycache__ out of src.
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "from mexcrank import cli, counting, partitions, qseries, verify; "
             "print(*sorted({'typing', 'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", probe, str(SRC)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"


# Imports the package alone, then one name, then every name.
PACKAGE_PROBE = """
import sys
import mexcrank
print(*sorted(name for name in sys.modules if name.startswith("mexcrank.")))
assert mexcrank.crank is sys.modules["mexcrank.partitions"].crank
print(*sorted(name for name in sys.modules if name.startswith("mexcrank.")))
namespace = {}
exec("from mexcrank import *", namespace)
print(*sorted(set(namespace) - {"__builtins__"}))
"""


def test_package_imports_a_module_on_first_use():
    result = subprocess.run(
        [sys.executable, "-c", PACKAGE_PROBE], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert result.returncode == 0, result.stderr
    alone, after_crank, star = result.stdout.split("\n")[:3]
    assert (alone, after_crank) == ("", "mexcrank.partitions")
    assert star.split() == mexcrank.__all__


def test_package_names_are_their_modules_names():
    for name in mexcrank.__all__:
        module = getattr(mexcrank, mexcrank._EXPORTS[name])
        assert getattr(mexcrank, name) is getattr(module, name)
    for module in ("counting", "partitions", "qseries", "verify"):
        assert getattr(mexcrank, module) is sys.modules[f"mexcrank.{module}"]
        assert module in dir(mexcrank)
    assert set(mexcrank.__all__) <= set(dir(mexcrank))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        mexcrank.no_such_name

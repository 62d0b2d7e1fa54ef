"""Imports: numpy loads only where arrays are used, and none is unused.

Every CLI command but `mc` works on floats, and `import numpy` used to be
most of a cold start. These checks run in fresh interpreters, because the
test session itself has long since imported numpy.
"""

import ast
import os
import subprocess
import sys

import pytest

import splitloop

SRC = os.path.dirname(os.path.dirname(splitloop.__file__))
ENV = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
           OMP_NUM_THREADS="1")

LAZY_NAMES = ("GENERATOR_NAME", "EnsembleEstimate", "PhotonPath", "Side",
              "StepAgreement", "agreement_report", "ensemble_frequencies",
              "sample_path")

# Runs the CLI on its arguments, then reports on stderr whether numpy is
# loaded; `finally` runs before click's sys.exit ends the process.
CLI_PROBE = """\
import sys
from splitloop.cli import main
try:
    main(sys.argv[1:])
finally:
    print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
"""


def python(code, *argv):
    return subprocess.run([sys.executable, "-c", code, *argv], env=ENV,
                          capture_output=True, text=True, timeout=120,
                          check=False)


def run_cli(argv):
    """(exit code, stdout, stderr without the probe line, numpy loaded)."""
    proc = python(CLI_PROBE, *argv)
    *stderr, probe = proc.stderr.splitlines(keepends=True)
    assert probe.startswith("numpy loaded: "), proc.stderr[-500:]
    return (proc.returncode, proc.stdout, "".join(stderr),
            probe.strip() == "numpy loaded: True")


@pytest.mark.parametrize("statement", ["import splitloop",
                                       "import splitloop.cli"])
def test_import_leaves_numpy_unloaded(statement):
    proc = python(f"{statement}; import sys; "
                  "print(sorted({'numpy', 'splitloop.montecarlo'} "
                  "& sys.modules.keys()))")
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv,code", [
    (["run", "--mode", "unitary", "--wl1", "0.9", "--steps", "4"], 0),
    (["run", "--mode", "measure", "--a1sq", "0.7", "--steps", "4",
      "--format", "json"], 0),
    (["paper"], 0),
    (["compare", "--wl1", "0.9"], 0),
    (["sweep", "--mode", "unitary", "--grid", "0.2:0.8:0.2"], 0),
    (["run", "--mode", "unitary"], 2),
    (["sweep", "--mode", "measure"], 2),
    (["run", "--mode", "unitary", "--wl1", "nan"], 2),
    (["compare", "--wl1", "0.5", "--a1sq", "7"], 2),
    (["sweep", "--mode", "unitary", "--a1sq", "7"], 2),
], ids=["run-csv", "run-json", "paper", "compare", "sweep", "config-error",
        "sweep-no-a1sq", "run-flag-range", "compare-flag-range",
        "sweep-flag-range"])
def test_non_mc_commands_leave_numpy_unloaded(argv, code):
    exit_code, stdout, stderr, numpy_loaded = run_cli(argv)
    assert exit_code == code, stderr[-500:]
    assert "Traceback" not in stderr
    assert not numpy_loaded


# The flags come last, so that they override the default --paths and --seed.
@pytest.mark.parametrize("flags", [
    ["--mode", "unitary", "--a1sq", "0.9"],
    ["--a1sq", "0.9", "--sigma", "nan"],
    ["--a1sq", "1.5"],
    ["--a1sq", "0.9", "--steps", "0"],
    ["--a1sq", "0.9", "--paths", "0"],
    ["--a1sq", "0.9", "--seed", "-1"],
    ["--a1sq", "0.9", "--seed", str(2 ** 128 - 1), "--paths", "2"],
], ids=["mode", "sigma", "a1sq", "steps", "paths", "seed", "key-range"])
def test_mc_config_errors_leave_numpy_unloaded(flags):
    exit_code, stdout, stderr, numpy_loaded = run_cli(
        ["mc", "--paths", "10", "--seed", "1", *flags])
    assert exit_code == 2
    assert stdout == ""
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error: ")
    assert not numpy_loaded


def test_mc_loads_numpy_and_still_works():
    exit_code, stdout, stderr, numpy_loaded = run_cli(
        ["mc", "--a1sq", "0.9", "--steps", "3", "--paths", "50",
         "--seed", "5"])
    assert exit_code == 0, stderr[-500:]
    assert stdout.startswith("step,empirical_w_left,analytic_w_left,")
    assert len(stdout.splitlines()) == 1 + 3
    assert numpy_loaded


def test_montecarlo_names_load_on_first_access():
    proc = python(f"""\
import sys
import splitloop
assert "splitloop.montecarlo" not in sys.modules
for name in {LAZY_NAMES!r}:
    value = getattr(splitloop, name)
    assert value is getattr(splitloop.montecarlo, name), name
assert "numpy" in sys.modules
""")
    assert proc.returncode == 0, proc.stderr[-500:]


def test_montecarlo_submodule_resolves_after_a_plain_import():
    proc = python("""\
import sys
import splitloop
assert "montecarlo" in dir(splitloop)
assert "splitloop.montecarlo" not in sys.modules
assert splitloop.montecarlo is sys.modules["splitloop.montecarlo"]
""")
    assert proc.returncode == 0, proc.stderr[-500:]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from splitloop import *", namespace)
    assert set(splitloop.__all__) <= namespace.keys()
    assert set(LAZY_NAMES) <= set(splitloop.__all__)


def test_dir_lists_the_lazy_names():
    listed = dir(splitloop)
    assert set(LAZY_NAMES) <= set(listed)
    assert {"iterate", "maps", "__version__"} <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        splitloop.nope
    assert not hasattr(splitloop, "nope")


def test_kernel_array_path_binds_numpy_on_first_use():
    # maps is loaded before numpy exists in the process, so each array
    # branch below resolves numpy through its own deferred import
    proc = python("""\
import sys
from splitloop import maps
assert "numpy" not in sys.modules
from splitloop.errors import NumericDomainError
points = [(0.6, 0.8), (0.28, 0.96), (1.0, 0.0), (0.0, 1.0)]
splitter = (0.7, 0.30000000000000004)
floats = {}
for name in ("unitary_both", "unitary_right_half", "unitary_left_half"):
    floats[name] = [getattr(maps, name + "_kernel")(a, b) for a, b in points]
for name in ("measure_both", "measure_right_half", "measure_left_half"):
    floats[name] = [getattr(maps, name + "_kernel")(a * a, b * b, *splitter)
                    for a, b in points]
assert "numpy" not in sys.modules
import numpy as np
a = np.array([p[0] for p in points])
b = np.array([p[1] for p in points])
for name, expected in floats.items():
    kernel = getattr(maps, name + "_kernel")
    args = (a, b) if name.startswith("unitary") else (a * a, b * b, *splitter)
    out = kernel(*args)
    for k in (0, 1):
        got = np.asarray(out[k], dtype=float).tobytes()
        assert got == np.array([e[k] for e in expected]).tobytes(), name
zero = np.zeros(2)
try:
    maps.unitary_right_half_kernel(zero, zero)
except NumericDomainError:
    pass
else:
    raise AssertionError("array denominator guard did not fire")
""")
    assert proc.returncode == 0, proc.stderr[-500:]


def _unused_imports(path):
    """Names an import binds in the file at path that nothing there reads.

    A name listed in `__all__` counts as read: it is a re-export.
    """
    with open(path) as source:
        tree = ast.parse(source.read())
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{os.path.basename(path)}:{line}: {name}"
                  for name, line in bound.items() if name not in read)


def test_no_unused_imports():
    package = os.path.dirname(splitloop.__file__)
    found = [hit for name in sorted(os.listdir(package))
             if name.endswith(".py")
             for hit in _unused_imports(os.path.join(package, name))]
    assert found == []


def test_unused_import_check_sees_an_unused_name(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import math\nimport os as system\n"
                      "from typing import Any, List\n"
                      "__all__ = ['Any']\nsystem.getcwd()\n")
    assert _unused_imports(str(source)) == ["sample.py:1: math",
                                            "sample.py:3: List"]

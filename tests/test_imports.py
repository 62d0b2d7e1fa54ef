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

LAZY_NAMES = ("GENERATOR_NAME", "EnsembleEstimate", "StepAgreement",
              "agreement_report", "ensemble_frequencies")

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


# Imports the CLI, runs it on its arguments if there are any, then reports
# on stderr whether `decimal` is loaded.
DECIMAL_PROBE = """\
import sys
from splitloop.cli import main
try:
    if sys.argv[1:]:
        main(sys.argv[1:])
finally:
    print("decimal loaded:", "decimal" in sys.modules, file=sys.stderr)
"""


# `states._shown` imports decimal only to show an int too long for a repr.
@pytest.mark.parametrize("argv", [
    [], ["run", "--mode", "unitary", "--wl1", "0.9", "--steps", "4"],
], ids=["import-cli", "run"])
def test_decimal_stays_unloaded(argv):
    proc = python(DECIMAL_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stderr.splitlines() == ["decimal loaded: False"]


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
    root = os.path.dirname(SRC)
    folders = [package] + [os.path.join(root, top)
                           for top in ("tests", "perfbench")]
    found = [hit for folder in folders for name in sorted(os.listdir(folder))
             if name.endswith(".py")
             for hit in _unused_imports(os.path.join(folder, name))]
    assert found == []


def _unread_private_names(paths):
    """Module-level private functions, classes and constants in the files at
    paths that none of those files reads.

    A bare name is a read only in the file that defines it. An attribute of
    an imported module, or a name imported from one, is a read of that
    module's name only. Any other attribute or imported name, and a string
    constant equal to the name (`maps` looks its kernels up by name), is a
    read of that name in every file.
    """
    modules = {os.path.basename(path)[:-3]: path for path in paths}
    defined = {}
    read = set()  # (path, name); path None: the name in every file
    for path in paths:
        with open(path) as source:
            tree = ast.parse(source.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.endswith("__"):
                    defined[path, name] = node.lineno
        aliases = {}  # local name -> path of the module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in modules:
                        aliases[alias.asname or alias.name] = modules[
                            alias.name]
            elif isinstance(node, ast.ImportFrom):
                origin = modules.get((node.module or "").rpartition(".")[2])
                for alias in node.names:
                    if origin is None and alias.name in modules:
                        aliases[alias.asname or alias.name] = modules[
                            alias.name]
                    else:
                        read.add((origin, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((path, node.id))
            elif isinstance(node, ast.Attribute):
                owner = (aliases.get(node.value.id)
                         if isinstance(node.value, ast.Name) else None)
                read.add((owner, node.attr))
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                read.add((None, node.value))
    return sorted(f"{os.path.basename(path)}:{line}: {name}"
                  for (path, name), line in defined.items()
                  if (path, name) not in read and (None, name) not in read)


def test_no_unread_private_names():
    package = os.path.dirname(splitloop.__file__)
    assert _unread_private_names(
        [os.path.join(package, name) for name in sorted(os.listdir(package))
         if name.endswith(".py")]) == []


def test_unread_private_name_check_sees_a_dead_helper(tmp_path):
    first = tmp_path / "first.py"
    first.write_text("_SEEN = 1\n_DEAD = 2\n_TWIN = 3\n"
                     "def _kernel():\n    pass\n"
                     "def _dead(x):\n    _DEAD = x\n"
                     "class _Imported:\n    pass\n"
                     "def _by_attribute():\n    pass\n"
                     "def public():\n    return globals()['_kernel'], _SEEN\n")
    second = tmp_path / "second.py"
    # each of second's two names is read only as first's
    second.write_text("import first\nfrom first import _Imported\n"
                      "_SEEN = 4\n_TWIN = 5\n"
                      "first._by_attribute(first._TWIN)\n")
    assert _unread_private_names([str(first), str(second)]) == [
        "first.py:2: _DEAD", "first.py:6: _dead",
        "second.py:3: _SEEN", "second.py:4: _TWIN"]


def _unread_public_methods(package, paths):
    """Public methods and properties of the classes in the files at package
    that no file at paths reads as an attribute or a string constant."""
    read, defined = set(), []
    for path in paths:
        with open(path) as source:
            tree = ast.parse(source.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                read.add(node.value)
            elif isinstance(node, ast.ClassDef) and path in package:
                defined += [(path, node.name, item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")]
    return sorted(f"{os.path.basename(path)} {owner}.{name}"
                  for path, owner, name in defined if name not in read)


def test_no_public_method_without_a_reader():
    package = os.path.dirname(splitloop.__file__)
    root = os.path.dirname(SRC)
    paths = [os.path.join(folder, name)
             for top in ("src", "tests", "perfbench")
             for folder, _, names in os.walk(os.path.join(root, top))
             for name in sorted(names) if name.endswith(".py")]
    defining = {path for path in paths if os.path.dirname(path) == package}
    assert defining  # the package is the one under src/
    assert _unread_public_methods(defining, paths) == []


def test_unread_public_method_check_sees_a_dead_method(tmp_path):
    first = tmp_path / "first.py"
    first.write_text("class Thing:\n"
                     "    def dead(self):\n        def inner():\n"
                     "            pass\n"
                     "    @property\n    def shown(self):\n        pass\n"
                     "    def named(self):\n        pass\n"
                     "    def _private(self):\n        pass\n"
                     "getattr(Thing(), 'named')\n")
    second = tmp_path / "second.py"
    # second's own class is not checked, and it reads first's property
    second.write_text("import first\nfirst.Thing().shown\n"
                      "class Helper:\n    def unread(self):\n        pass\n")
    paths = [str(first), str(second)]
    assert _unread_public_methods({str(first)}, paths) == [
        "first.py Thing.dead"]


def test_unused_import_check_sees_an_unused_name(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import math\nimport os as system\n"
                      "from typing import Any, List\n"
                      "__all__ = ['Any']\nsystem.getcwd()\n")
    assert _unused_imports(str(source)) == ["sample.py:1: math",
                                            "sample.py:3: List"]


# The functions every pass runs besides the kernels, by file. With the
# kernels they use only + - * / and sqrt, which IEEE 754 rounds correctly, so
# no C library's pow, exp or log decides a bit of a pass.
PER_PASS = {"maps.py": {"raw_step", "_sqrt", "_check_denominator"},
            "states.py": {"normalize_pair", "_violation"},
            "trajectory.py": {"_passes", "_records"}}
NOT_CORRECTLY_ROUNDED = {"pow", "float_power", "power", "exp", "exp2",
                         "expm1", "log", "log2", "log10", "log1p"}


def _library_rounding(path, names):
    """(functions checked, uses of `**`, pow, exp or log in them) in the file
    at path: the functions named in names and every `*_kernel`."""
    with open(path) as source:
        tree = ast.parse(source.read())
    checked, found = set(), []
    for node in tree.body:
        if not (isinstance(node, ast.FunctionDef)
                and (node.name in names or node.name.endswith("_kernel"))):
            continue
        checked.add(node.name)
        for inner in ast.walk(node):
            if (isinstance(inner, (ast.BinOp, ast.AugAssign))
                    and isinstance(inner.op, ast.Pow)):
                found.append(f"{node.name}:{inner.lineno}: **")
            elif isinstance(inner, ast.Call):
                func = inner.func
                called = (func.attr if isinstance(func, ast.Attribute)
                          else getattr(func, "id", None))
                if called in NOT_CORRECTLY_ROUNDED:
                    found.append(f"{node.name}:{inner.lineno}: {called}")
    return checked, found


def test_per_pass_arithmetic_is_correctly_rounded():
    package = os.path.dirname(splitloop.__file__)
    checked, found = set(), []
    for name, names in PER_PASS.items():
        seen, hits = _library_rounding(os.path.join(package, name), names)
        checked |= seen
        found += hits
    kernels = {f"{mode}_{wiring}_kernel" for mode in ("unitary", "measure")
               for wiring in ("both", "right_half", "left_half")}
    assert checked == kernels.union(*PER_PASS.values())
    assert found == []


def test_rounding_check_sees_pow_exp_and_log(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import math\n"
                      "def step_kernel(a, b):\n"
                      "    return a ** 2, math.pow(b, 2.0)\n"
                      "def loop(x):\n    x **= 2\n    return np.exp(log(x))\n"
                      "def elsewhere(x):\n    return x ** 0.5\n")
    assert _library_rounding(str(source), {"loop"}) == (
        {"step_kernel", "loop"},
        ["step_kernel:3: **", "step_kernel:3: pow", "loop:5: **",
         "loop:6: exp", "loop:6: log"])


# The modules whose refusals show a caller's value, and the functions in
# them that may render a value themselves: `_shown`, which is the rendering
# the others go through, and the two that show only the engine's own floats.
SHOWING = ("states.py", "trajectory.py", "analysis.py", "maps.py",
           "montecarlo.py")
SHOWN_BY_ITSELF = {"_shown", "_violation", "raw_step.measure"}


def _values_shown_by_hand(path, exempt):
    """`!r` conversions and `repr(` calls in the message of a `raise` or of
    a `Violation(...)` in the file at path, outside the functions whose
    qualified names are in exempt."""
    with open(path) as source:
        tree = ast.parse(source.read())
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            if scope in exempt:
                return
        messages = []
        if isinstance(node, ast.Raise) and node.exc is not None:
            messages = [node.exc]
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "Violation"):
            messages = node.args + [k.value for k in node.keywords]
        for message in messages:
            for inner in ast.walk(message):
                if (isinstance(inner, ast.FormattedValue)
                        and inner.conversion == ord("r")):
                    found.add((inner.lineno, "!r"))
                elif (isinstance(inner, ast.Call)
                      and getattr(inner.func, "id", None) == "repr"):
                    found.add((inner.lineno, "repr("))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return [f"{os.path.basename(path)}:{line}: {what}"
            for line, what in sorted(found)]


def test_refusals_show_values_through_shown():
    package = os.path.dirname(splitloop.__file__)
    assert [hit for name in SHOWING
            for hit in _values_shown_by_hand(os.path.join(package, name),
                                             SHOWN_BY_ITSELF)] == []


def test_shown_by_hand_check_sees_a_repr(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "def check(x):\n"
        "    raise ValueError(f'bad {x!r}')\n"
        "def rule(x):\n"
        "    return Violation('range', 0.0, message='bad ' + repr(x))\n"
        "class Pair:\n"
        "    def make(self, x):\n"
        "        raise Error(f'{x} {_shown(x)} {x!s}', str(x), f'{x!r}')\n"
        "def _shown(x):\n"
        "    raise ValueError(repr(x))\n"
        "def outer(x):\n"
        "    def inner(y):\n"
        "        raise ValueError(f'{y!r}')\n"
        "    print(f'{x!r}', repr(x))\n"
        "    raise ValueError(Violation('range', 0.0, f'{x!r}').message)\n")
    assert _values_shown_by_hand(str(source), {"_shown", "outer.inner"}) == [
        "sample.py:2: !r", "sample.py:4: repr(", "sample.py:7: !r",
        "sample.py:14: !r"]

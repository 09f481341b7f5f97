import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import percband

PACKAGE = pathlib.Path(percband.__file__).parent
TESTS = pathlib.Path(__file__).parent
ROOT = TESTS.parent


def private_imports(path: pathlib.Path) -> list[str]:
    """The underscore names ``path`` imports from other percband modules."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("percband")):
            found += [f"{path.name}:{node.lineno}: {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_another_modules_private_names():
    # A private name is its module's own business; a module that needs one
    # from elsewhere needs a public function instead.
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [hit for path in modules for hit in private_imports(path)] == []


# The literal references the tests compare the engine against; src calls
# them nowhere else.
REFERENCES = ("LabeledExampleSource", "rejection_sample_band")


def unused_public_definitions(modules: list[pathlib.Path]) -> list[str]:
    """Module-level public functions and classes that no other src
    definition or statement names in its code. Docstrings are strings, not
    names, so a mention there does not count."""
    definitions, named = [], set()
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(node, "name", None)  # set on def and class statements only
            if own is not None and not own.startswith("_"):
                definitions.append((path.name, own))
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name is not None and name != own:
                    named.add(name)
    exempt = named | set(percband.__all__) | set(REFERENCES)
    return [f"{module}: {name}" for module, name in definitions if name not in exempt]


def test_every_public_definition_is_used_exported_or_a_reference():
    # A public name that only tests call is a test helper living in src.
    assert unused_public_definitions(sorted(PACKAGE.glob("*.py"))) == []


def unused_imports(path: pathlib.Path) -> list[str]:
    """Names ``path`` imports and never reads. ``__future__`` imports are
    directives, not names; the package's exports are read by its importers."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported += [(node.lineno, alias.asname or alias.name.partition(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    exempt = read | (set(percband.__all__) if path.name == "__init__.py" else set())
    return [f"{path.name}:{line}: {name}" for line, name in imported if name not in exempt]


def test_no_module_or_test_imports_a_name_it_never_uses():
    files = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert len(files) > 15
    assert [hit for path in files for hit in unused_imports(path)] == []


def readme_code_names() -> list[tuple[str, str]]:
    """Every (owner, NAME) of a code span in README.md that starts with
    `owner.NAME`."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return sorted(set(re.findall(r"`(\w+)\.(\w+)", text)))


def percband_classes() -> dict[str, type]:
    """Every class a percband module defines, by name."""
    modules = [importlib.import_module(f"percband.{path.stem}") for path in PACKAGE.glob("*.py")]
    return {name: obj for module in modules for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__}


def test_readme_names_only_what_src_defines():
    # A name the README gives a percband module or class must be there: a
    # constant, function or attribute src dropped leaves a stale name behind.
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"} | {"percband"}
    classes = percband_classes()
    names = readme_code_names()
    module_names = [(m, n) for m, n in names if m in modules]
    class_names = [(c, n) for c, n in names if c in classes]
    assert len(module_names) > 10
    assert len(class_names) >= 4
    missing = []
    for module, name in module_names:
        owner = importlib.import_module("percband" if module == "percband" else f"percband.{module}")
        if not (hasattr(owner, name) or module == "percband" and (PACKAGE / f"{name}.py").exists()):
            missing.append(f"{module}.{name}")
    missing += [f"{cls}.{name}" for cls, name in class_names if not hasattr(classes[cls], name)]
    assert missing == []


def run_with_benchmark_path(args: list[str]) -> str:
    """Run python with ``src`` and ``perfbench`` on its path, as the
    benchmark does, and return what it prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout


def test_benchmark_finds_every_name_it_uses():
    # The tracer looks up every function and method it wraps when it is
    # built, and the set-up probe builds each workload's configurations, so
    # a src change that removes a name the benchmark needs fails here.
    # A traced init query reads the noise level as ``NoiseModel.param``.
    run_with_benchmark_path(["-c", "import tracer; t = tracer.Tracer(); t.install(); t.uninstall(); "
                             "from percband import NoiseModel; "
                             "assert tracer._noise_spec(NoiseModel.bounded(0.2)) == 'bounded:0.2'"])
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert workloads
    for workload in workloads:
        out = run_with_benchmark_path(["perfbench/setup_probe.py", "--workload", workload["name"], "--seed", "1"])
        assert json.loads(out)["setup_s"] > 0.0

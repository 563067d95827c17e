"""What each entry point imports.

``repro``, ``repro.core`` and ``repro.pulsesim`` re-export their names
lazily, and NumPy is imported only inside the functions that use it, so
serving a ``dpu.dot`` group, compiling a spec, a sharded run and lint or
analysis of a shipped block never load NumPy (about 14 MB per process).
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGES = ("repro", "repro.core", "repro.pulsesim")

_ENTRY_POINTS = """
import sys
from pathlib import Path

from repro.analyze.blocks import analyze_shipped_block
from repro.cells.interconnect import Jtl
from repro.lint.blocks import lint_shipped_block
from repro.pulsesim.netlist import Circuit
from repro.serve.engine import ComputeEngine
from repro.shard import ShardSimulator, plan_partition
from repro.synth.api import analyze_program, compile_json, lint_program

config = {"bits": 5, "slot_fs": 40_000, "length": 8, "bipolar": True}
rows = [{"a_slots": [3] * 8, "b_counts": [5] * 8}] * 2
assert len(ComputeEngine().execute_group("dpu.dot", config, rows)) == 2

program = compile_json(Path(sys.argv[1]).read_text())
lint_program(program)
analyze_program(program)
program.simulate()

chain = Circuit("chain")
cells = [chain.add(Jtl(f"j{index}")) for index in range(4)]
for source, sink in zip(cells, cells[1:]):
    chain.connect(source, "q", sink, "a")
chain.probe(cells[-1], "q")
with ShardSimulator(chain, plan_partition(chain, 2), jobs=1) as sharded:
    sharded.schedule_train("j0", "a", [0, 50_000])
    sharded.run()
    assert sharded.stats.events_processed > 0

lint_shipped_block("dpu")
analyze_shipped_block("dpu")
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_serve_synth_shard_lint_and_analyze_never_import_numpy():
    spec = ROOT / "examples" / "specs" / "elementwise.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _ENTRY_POINTS, str(spec)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_importing_the_packages_loads_none_of_their_modules():
    script = (
        "import sys\n"
        "import repro, repro.core, repro.pulsesim\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "repro", "repro.core", "repro.lazy", "repro.pulsesim"
    ]


def _home(package, name, value):
    """The non-package module that defines ``value``."""
    module = getattr(value, "__module__", None)
    if module is None:  # a constant: the submodule that binds it
        module = next(
            loaded for loaded, mod in list(sys.modules.items())
            if loaded.startswith(f"{package}.")
            and not hasattr(mod, "__path__")
            and vars(mod).get(name) is value
        )
    return importlib.import_module(module)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_is_its_defining_modules_object(package):
    module = importlib.import_module(package)
    names = [name for name in module.__all__ if name != "__version__"]
    assert names and set(names) <= set(dir(module))
    for name in names:
        value = getattr(module, name)
        home = _home(package, name, value)
        assert home.__name__.startswith("repro.")
        assert not hasattr(home, "__path__"), (name, home.__name__)
        assert getattr(home, name) is value, name


@pytest.mark.parametrize("package", PACKAGES)
def test_an_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
    assert not hasattr(module, "no_such_name")


def test_star_import_binds_every_public_name():
    import repro

    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    dpu = importlib.import_module("repro.core.dpu")
    assert namespace["DotProductUnit"] is dpu.DotProductUnit

"""The package namespace: the README's six names, and every layer loaded."""
import json
import os
import subprocess
import sys
import types

import wienerlab
from wienerlab import (
    EnumFilter, cycle, enumerate_graphs, verify_claim, vertex_glued_cycles, wiener,
)

README_NAMES = {"EnumFilter", "cycle", "enumerate_graphs", "verify_claim",
                "vertex_glued_cycles", "wiener"}
LAYERS = ("canon", "families", "formulas", "generate", "graphs", "verify")


def test_the_namespace_holds_only_the_readme_names():
    public = {name for name, value in vars(wienerlab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == README_NAMES
    assert wienerlab.__version__


def test_importing_the_package_loads_every_layer():
    """In a fresh interpreter, so that no other test's imports count.
    dataclasses (with the inspect it pulls in) and fractions (with decimal)
    would add about 14 ms to the start-up of every process."""
    src = os.path.dirname(os.path.dirname(wienerlab.__file__))
    code = "import json, sys, wienerlab; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    loaded = set(json.loads(out))
    assert {f"wienerlab.{layer}" for layer in LAYERS} <= loaded
    assert not {"dataclasses", "inspect", "fractions", "decimal"} & loaded


def test_the_readme_library_example_holds():
    assert wiener(vertex_glued_cycles(26, 3)) == 2065
    assert sum(1 for _ in enumerate_graphs(EnumFilter(order=7))) == 37
    assert verify_claim("T2", n=9).status == "verified"
    assert wiener(cycle(26)) == 2197

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "mfgcoef").glob("*.py"))


def unused_imports(source: str):
    """Names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_guard_sees_an_unused_alias():
    source = "from __future__ import annotations\nfrom dataclasses import dataclass, field as f\n"
    assert unused_imports(source + "@dataclass\nclass C:\n    x: int\n") == ["f"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def record_writers(source: str):
    """The JSON dumps and 17-digit float formats a module holds, in walk order.

    ``fieldio`` writes every JSON and CSV file the commands produce, so no
    other module should restate either format.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.append(f"json.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [f"json.{a.name}" for a in node.names if a.name in ("dump", "dumps")]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and ".17g" in node.value:
            found.append(".17g")
    return found


def test_the_guard_sees_every_record_writer():
    source = (
        "import json\nfrom json import dumps\n"
        "json.dump({}, fh)\ntext = f'{x:.17g}'\nmore = format(y, '.17g')\n"
    )
    assert sorted(record_writers(source)) == [".17g", ".17g", "json.dump", "json.dumps"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_only_fieldio_writes_json_or_17_digit_floats(path):
    found = record_writers(path.read_text())
    assert bool(found) == (path.name == "fieldio.py"), found


# hashlib maps OpenSSL's libcrypto, about 3.6 MiB resident; numpy.random
# imports secrets, and with it hmac and hashlib, and seven bit-generator
# extensions, about 6 MiB; fractions imports decimal, about 0.44 MiB
HEAVY_MODULES = ("hashlib", "secrets", "fractions", "numpy.random")


def heavy_imports(source: str):
    """The imports of HEAVY_MODULES and the ``np.random`` references a module holds, in walk order.

    The output hashes use the interpreter's own SHA-256, the noise and the
    certification draw from ``streams``, and ``validate_exponent`` finds
    its fraction without ``fractions``.
    """

    def heavy(name):
        return any((name + ".").startswith(module + ".") for module in HEAVY_MODULES)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if heavy(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found += [f"{node.module}.{a.name}" for a in node.names
                      if heavy(node.module) or heavy(f"{node.module}.{a.name}")]
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append(f"{node.value.id}.random")
    return found


def test_the_guard_sees_every_hashlib_import():
    source = (
        "import hashlib\nimport hashlib as h\nfrom hashlib import sha256\nimport hmac\n"
        "import secrets\nfrom fractions import Fraction\nimport numpy.random\n"
        "from numpy import random\nfrom numpy.random import default_rng\n"
        "import numpy as np\nrng = np.random.default_rng(0)\nx = numpy.random.random()\n"
        "y = rng.random()\n"
    )
    assert sorted(heavy_imports(source)) == [
        "fractions.Fraction", "hashlib", "hashlib", "hashlib.sha256", "np.random",
        "numpy.random", "numpy.random", "numpy.random", "numpy.random.default_rng", "secrets",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_module_imports_hashlib(path):
    assert heavy_imports(path.read_text()) == []

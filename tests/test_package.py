"""The package's public names: eager ones from their modules' imports, the
verifier's and the decider's on first use."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import epipool


def _eager_homes() -> dict[str, str]:
    """Each name ``epipool/__init__.py`` imports, with the module it comes from."""
    tree = ast.parse(Path(epipool.__file__).read_text())
    return {
        alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_every_export_is_imported_eagerly_or_by_the_lazy_table_not_both():
    eager, lazy = _eager_homes(), epipool._LAZY
    assert not set(eager) & set(lazy)
    assert set(epipool.__all__) <= set(eager) | set(lazy)
    assert len(lazy) == 11 and set(lazy.values()) == {"decider", "verifier"}


@pytest.mark.parametrize("name", epipool.__all__)
def test_every_export_is_its_home_modules_object_and_dir_lists_it(name):
    home = {**_eager_homes(), **epipool._LAZY}[name]
    module = importlib.import_module(f"epipool.{home}")
    assert getattr(epipool, name) is getattr(module, name)
    assert name in vars(epipool)  # a lazy name is bound once it is read
    assert name in dir(epipool)


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'epipool' has no attribute 'nope'"):
        epipool.nope


PROBE = """
import sys, epipool
lazy = sorted(epipool._LAZY)
print(sorted({'epipool.verifier', 'epipool.decider'} & set(sys.modules)))
print(all(name in dir(epipool) for name in lazy), [name for name in lazy if name in vars(epipool)])
plan = epipool.TrialPlan()
print(sorted({'epipool.verifier', 'epipool.decider'} & set(sys.modules)), 'TrialPlan' in vars(epipool))
"""


def test_importing_the_package_loads_neither_verifier_nor_decider(subprocess_env):
    result = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, timeout=60,
        env=subprocess_env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\nTrue []\n['epipool.decider', 'epipool.verifier'] True\n"

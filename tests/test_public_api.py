"""The packages' public API, whether they re-export eagerly or lazily.

Each package ``__init__`` names its exports in ``__all__`` and imports
them ``from repro...`` (at module level or under ``TYPE_CHECKING``). The
checks here read those import statements, so they hold for either style:
every export is the object its defining module holds, star-imports bind
all of ``__all__``, ``dir()`` lists the exports, and an unknown name is
an ``AttributeError`` naming the package.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import Dict

import pytest

PACKAGES = (
    "repro",
    "repro.sim",
    "repro.core",
    "repro.pcm",
    "repro.workloads",
    "repro.telemetry",
    "repro.utils",
)


def reexports(package: str) -> Dict[str, str]:
    """Export name -> defining module, from the ``from repro... import``
    statements anywhere in *package*'s ``__init__``."""
    source = Path(importlib.import_module(package).__file__).read_text()
    origins = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "repro."
        ):
            for alias in node.names:
                origins[alias.asname or alias.name] = node.module
    return origins


@pytest.mark.parametrize("package", PACKAGES)
class TestPackageExports:
    def test_every_export_is_its_defining_modules_object(self, package):
        module = importlib.import_module(package)
        origins = reexports(package)
        assert module.__all__
        for name in module.__all__:
            value = getattr(module, name)
            if name in origins:
                defining = importlib.import_module(origins[name])
                assert value is getattr(defining, name), (package, name)

    def test_star_import_binds_all_exports(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(namespace)

    def test_dir_lists_exports(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_unknown_name_names_the_module(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=f"module '{package}'"):
            module.no_such_export  # noqa: B018 - the access is the test


def test_bare_import_reaches_subpackages_and_their_modules(fresh_python):
    fresh_python(
        "import repro\n"
        "assert repro.sim.System is repro.System\n"
        "assert repro.core.RegionRetentionMonitor is repro.RegionRetentionMonitor\n"
        "assert repro.sim.runner.ExperimentRunner is repro.ExperimentRunner\n"
        "assert repro.telemetry.summary.TraceSummary is repro.telemetry.TraceSummary\n"
        "assert repro.pcm.wear_leveling.StartGapLeveler is repro.pcm.StartGapLeveler\n"
        "assert not hasattr(repro, 'no_such_subpackage')\n"
    )

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import vanetconn

SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(vanetconn.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"vanetconn.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_every_package_import_exists():
    tree = ast.parse(Path(vanetconn.__file__).read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert imports
    # the root imports every library module, so `import vanetconn` loads them all
    assert {name for module, name in imports if module is None} == set(SUBMODULES) - {"cli"}
    for module, name in imports:
        if module is None:  # from . import <submodule>
            assert getattr(vanetconn, name) is importlib.import_module(f"vanetconn.{name}")
        else:
            assert hasattr(importlib.import_module(f"vanetconn.{module}"), name), (module, name)
            assert hasattr(vanetconn, name), name


@pytest.mark.parametrize("name", [*SUBMODULES, "__main__"])
def test_no_module_imports_a_name_it_never_uses(name):
    # the root's imports are its exports, checked above
    tree = ast.parse((Path(vanetconn.__file__).parent / f"{name}.py").read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and
                not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts}
    assert sorted(imported - used - exported) == []

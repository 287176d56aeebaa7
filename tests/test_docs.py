"""The README's references to the package stay current."""

import importlib
import pathlib
import re

import squeezelab

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = pathlib.Path(squeezelab.__file__).parent
MODULES = ["squeezelab", *sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")]


def test_readme_module_references_resolve():
    """Every `module.name` in README.md names an attribute of that
    squeezelab module (`squeezelab.name` one of the package); file names
    such as `bounds.py` are exempt."""
    refs = re.findall(r"`(%s)\.(\w+)" % "|".join(MODULES), README.read_text())
    assert len(refs) >= 10
    missing = []
    for module, name in refs:
        target = importlib.import_module(module if module == "squeezelab" else f"squeezelab.{module}")
        if name != "py" and not hasattr(target, name):
            missing.append(f"{module}.{name}")
    assert not missing

"""The README's references to the package stay current."""

import importlib
import pathlib
import re

import squeezelab
from squeezelab.cli import main

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


def test_readme_python_blocks_run():
    """Every python block of README.md runs, in order, in one namespace, as
    a reader would paste them one after another."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Every `squeezelab ...` line of the README's command-line block, with
    its backslash continuations joined, exits 0 when run through
    ``cli.main`` in order in one directory, so the files one example
    writes are there for the next."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, flags=re.S).group(1)
    commands = [line.split() for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("squeezelab ")]
    assert len(commands) >= 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, (" ".join(argv), capsys.readouterr().err)

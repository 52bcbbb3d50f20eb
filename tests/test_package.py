"""Public surface: ``peftlab.__all__`` and the README's library example."""

import ast
import re
from pathlib import Path

import peftlab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves():
    missing = [name for name in peftlab.__all__
               if not hasattr(peftlab, name)]
    assert missing == []
    assert len(set(peftlab.__all__)) == len(peftlab.__all__)


def test_readme_library_example_imports_only_public_names():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    imported = {alias.name
                for block in blocks
                for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "peftlab"
                for alias in node.names}
    assert "build_model" in imported
    assert imported - set(peftlab.__all__) == set()

"""Public surface: ``peftlab.__all__`` and the README's library example."""

import ast
import os
import re
import subprocess
import sys
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


def test_core_runs_without_scipy():
    """NumPy is the only runtime dependency: with SciPy unimportable, the
    package and its CLI import and a model runs a forward pass."""
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "import peftlab, peftlab.cli\n"
        "from peftlab import Batch, ModelConfig, build_model, forward\n"
        "model = build_model(ModelConfig(num_layers=1, hidden_dim=8,"
        " num_heads=2, ffn_dim=16, vocab_size=8, max_seq_len=4))\n"
        "out = forward(model, Batch(np.zeros((2, 4), dtype=np.int64),"
        " np.zeros(2, dtype=np.int64)))\n"
        "assert out.shape == (2, 2), out.shape\n"
    )
    src = str(Path(peftlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

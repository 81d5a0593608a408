"""Make ``src/`` importable in the ``python -m specgap`` child processes that
some tests start; ``pythonpath`` in pyproject.toml covers only this process."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

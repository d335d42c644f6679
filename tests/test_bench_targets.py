"""Every function the benchmark's tracer wraps still exists by that name.

``perfbench.layers.targets()`` names package functions by module and
attribute; a renamed or deleted one would otherwise surface only when a
traced benchmark run tries to wrap it.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.layers import targets  # noqa: E402


def test_every_traced_target_resolves():
    missing = [t.name for t in targets()
               if not callable(getattr(importlib.import_module(t.module),
                                       t.attr, None))]
    assert missing == []

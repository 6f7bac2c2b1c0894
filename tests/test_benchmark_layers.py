"""The benchmark's per-layer timing targets still exist where it looks.

``perfbench/layers.py`` wraps each layer's entry point by replacing
``owner.__dict__[name]``.  A refactor that deletes, renames or moves one
of those targets up an inheritance chain breaks every ``--trace 1`` run;
this test fails first.  The module is loaded by path and never edited.
"""

from __future__ import annotations

import types
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    # Executed from source so no bytecode cache lands beside it.
    module = types.ModuleType("perfbench_layers")
    module.__file__ = str(LAYERS_PATH)
    exec(compile(LAYERS_PATH.read_text(), str(LAYERS_PATH), "exec"), module.__dict__)
    return module


layers = _load_layers()


@pytest.mark.parametrize(
    "target",
    layers.SYNC_TARGETS + layers.ASYNC_TARGETS,
    ids=lambda target: f"{target[1]}:{target[2]}",
)
def test_layer_target_is_owned_and_callable(target):
    _, module_name, path = target
    owner, name = layers._resolve(module_name, path)
    assert name in owner.__dict__, f"{path} is not defined on {owner!r} itself"
    assert callable(owner.__dict__[name])

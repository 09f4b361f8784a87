"""Attribute a ``cProfile`` run's self time to the simulator's layers.

:data:`LAYER_OF_FILE` is the one table mapping ``src/repro`` files to
layers.  Files that are only build-time or glue code are listed as
``other`` on purpose; a ``src/repro`` file that shows up in a profile but
is missing from the table is reported by name (:attr:`Attribution.unmapped`)
so new code cannot hide in ``other`` unnoticed.  The emitted simulator
module is recognised by its path under the private codegen cache
directory and counts as ``codegen.step``.
"""

from __future__ import annotations

import os
import pstats
from dataclasses import dataclass, field

from checkout import PACKAGE

LAYERS = (
    "codegen.step",
    "core.engine",
    "core.token",
    "core.operands",
    "core.decoder",
    "describe.semantics.guard",
    "describe.semantics.action",
    "describe.semantics",
    "describe.substrate",
    "isa",
    "memory",
    "baseline.simplescalar",
    "other",
)

#: ``src/repro``-relative path (a file, or a directory ending in ``/``) -> layer.
LAYER_OF_FILE = {
    "codegen/engine.py": "codegen.step",
    "codegen/runtime.py": "codegen.step",
    "core/engine.py": "core.engine",
    "core/transition.py": "core.engine",
    "core/place.py": "core.engine",
    "core/stage.py": "core.engine",
    "core/arc.py": "core.engine",
    "core/net.py": "core.engine",
    "core/scheduler.py": "core.engine",
    "core/token.py": "core.token",
    "core/operands.py": "core.operands",
    "core/decoder.py": "core.decoder",
    "describe/semantics.py": "describe.semantics",
    "describe/substrate.py": "describe.substrate",
    "isa/": "isa",
    "memory/": "memory",
    "baseline/simplescalar.py": "baseline.simplescalar",
    # Build-time and glue code: deliberately "other".
    "__init__.py": "other",
    "analysis/metrics.py": "other",
    "codegen/cache.py": "other",
    "codegen/emit.py": "other",
    "core/exceptions.py": "other",
    "core/generator.py": "other",
    "core/operation_class.py": "other",
    "core/statistics.py": "other",
    "core/subnet.py": "other",
    "describe/elaborate.py": "other",
    "describe/spec.py": "other",
    "observe/": "other",
    "processors/": "other",
}


def layer_of_source(relative):
    """Layer of a ``src/repro``-relative path, or ``None`` when unmapped."""
    layer = LAYER_OF_FILE.get(relative)
    if layer is None and "/" in relative:
        directory = relative.split("/", 1)[0] + "/"
        layer = LAYER_OF_FILE.get(directory)
        if layer is None and relative.endswith("/__init__.py"):
            layer = "other"
    return layer


def _semantics_layer(function):
    if function.endswith("_guard"):
        return "describe.semantics.guard"
    if function.endswith("_action"):
        return "describe.semantics.action"
    return "describe.semantics"


@dataclass
class Attribution:
    """Self seconds and call counts per layer, plus a few call counts."""

    self_s: dict = field(default_factory=lambda: dict.fromkeys(LAYERS, 0.0))
    calls: dict = field(default_factory=lambda: dict.fromkeys(LAYERS, 0))
    token_getattr_calls: int = 0
    guard_calls: int = 0
    action_calls: int = 0
    #: ``src/repro``-relative files seen in the profile but not in the table.
    unmapped: set = field(default_factory=set)

    def share(self, layer):
        total = sum(self.self_s.values())
        return self.self_s[layer] / total if total > 0 else 0.0


def attribute(profiler, emitted_dir):
    """Fold ``profiler``'s per-function stats into an :class:`Attribution`.

    ``emitted_dir`` is the private codegen cache directory; files under it
    are emitted simulator modules.
    """
    package = PACKAGE + os.sep
    emitted = os.path.abspath(emitted_dir) + os.sep
    result = Attribution()
    for (filename, _line, function), entry in pstats.Stats(profiler).stats.items():
        _primitive, calls, self_seconds, _cumulative, _callers = entry
        path = os.path.abspath(filename) if not filename.startswith(("~", "<")) else filename
        if path.startswith(emitted):
            layer = "codegen.step"
        elif path.startswith(package):
            relative = path[len(package):].replace(os.sep, "/")
            layer = layer_of_source(relative)
            if layer is None:
                result.unmapped.add(relative)
                layer = "other"
            elif layer == "describe.semantics":
                layer = _semantics_layer(function)
            elif relative == "core/token.py" and function == "__getattr__":
                result.token_getattr_calls += calls
        else:
            layer = "other"
        if layer == "describe.semantics.guard":
            result.guard_calls += calls
        elif layer == "describe.semantics.action":
            result.action_calls += calls
        result.self_s[layer] += self_seconds
        result.calls[layer] += calls
    return result

"""Fold one cProfile run into self time per layer.

A layer is a package under ``src/repro/`` (``names.LAYERS``), plus
``numpy`` and ``python`` for what is left.  A function's self time
(``tottime``) goes to the layer its file belongs to.  Built-ins and
standard-library functions (``sorted``, ``repr``, ``sum``, ``heapq``,
dataclass-generated methods) belong to no layer, so their self time is
charged to whoever called them, one level up the pstats caller edges —
``len(repr(payload))`` inside ``Network.send`` is the net layer's cost.

cProfile taxes every Python call and no native work, so these shares
find candidates; only untraced repetitions produce end-to-end numbers.
"""

from __future__ import annotations

import cProfile
import functools
import pathlib
import pstats

from names import LAYERS

SRC_REPRO = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
TOP_FUNCTIONS = 25


@functools.cache  # asked once per function and once per caller edge
def _own_layer(func: tuple[str, int, str]) -> str | None:
    """The layer that owns ``func``'s self time; None to charge callers."""
    filename, _, name = func
    if filename == "~":
        return "numpy" if "numpy" in name else None
    path = pathlib.Path(filename)
    if SRC_REPRO in path.parents:
        package = path.relative_to(SRC_REPRO).parts[0]
        return package if package in LAYERS else "python"
    if "numpy" in path.parts:
        return "numpy"
    return None


def _label(func: tuple[str, int, str]) -> str:
    filename, line, name = func
    if filename == "~":
        return name
    path = pathlib.Path(filename)
    if SRC_REPRO in path.parents:
        filename = str(pathlib.Path("repro") / path.relative_to(SRC_REPRO))
    else:
        filename = path.name
    return f"{filename}:{line}({name})"


def fold(profile: cProfile.Profile) -> tuple[dict, list]:
    """``({layer: {"self_s", "calls", "self_share"}}, top functions)``."""
    stats = pstats.Stats(profile).stats
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    functions = []
    for func, (_, ncalls, self_s, _, callers) in stats.items():
        layer = _own_layer(func)
        if layer is not None:
            layers[layer]["self_s"] += self_s
            layers[layer]["calls"] += ncalls
            functions.append((self_s, ncalls, layer, func))
            continue
        if not callers:
            layers["python"]["self_s"] += self_s
            layers["python"]["calls"] += ncalls
            functions.append((self_s, ncalls, "python", func))
            continue
        charged: dict[str, float] = {}
        for caller, (edge_calls, _, edge_self_s, _) in callers.items():
            to = _own_layer(caller) or "python"
            layers[to]["self_s"] += edge_self_s
            layers[to]["calls"] += edge_calls
            charged[to] = charged.get(to, 0.0) + edge_self_s
        functions.append((self_s, ncalls,
                          "->" + max(charged, key=charged.get), func))
    total = sum(entry["self_s"] for entry in layers.values())
    for entry in layers.values():
        entry["self_share"] = entry["self_s"] / total if total else 0.0
    functions.sort(key=lambda item: item[0], reverse=True)
    top = [{"function": _label(func), "layer": layer, "self_s": self_s,
            "calls": ncalls}
           for self_s, ncalls, layer, func in functions[:TOP_FUNCTIONS]]
    return layers, top

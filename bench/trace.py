"""Outside-in host-time tracer.

The benchmark measures the simulator from outside: it wraps the public
entry points of each layer and attributes host time to them, without
any span inside the program.

* Each wrapped function is replaced under every ``repro.*`` module
  attribute, class attribute and module-level dict value that is
  *identical* to it.  That catches ``from x import f`` aliases
  (``compile_spec_loop``, ``write_result_doc``, the generator registry
  ``WORKLOAD_FACTORIES``) as well as the defining attribute.
* A span stack gives self time: a call's duration minus the part of it
  spent in nested wrapped calls.  Time outside every span is ``other``.
* Hot per-access boundaries (memory, branch) keep only aggregates per
  (layer, parent layer).  Span boundaries (one call per simulation
  point or experiment) also keep one full span each.
* Everything stays in memory until :meth:`Tracer.report`;
  :meth:`Tracer.uninstall` restores every patched attribute.

Wrapping only observes: arguments and return values pass through
unchanged, so simulated results are identical traced or untraced.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

ROOT = "(root)"


@dataclasses.dataclass(frozen=True)
class Boundary:
    """One wrapped entry point: ``module:qualname`` attributed to
    ``layer``.  ``spans`` keeps a full span per call."""

    layer: str
    module: str
    qualname: str
    spans: bool = False


def resolve(boundary: Boundary) -> Any:
    """The function object a boundary names (class attributes are read
    raw from the class dict, never through a descriptor)."""
    owner: Any = importlib.import_module(boundary.module)
    for part in boundary.qualname.split("."):
        owner = vars(owner)[part] if isinstance(owner, type) \
            else getattr(owner, part)
    return owner


class Tracer:
    """Wraps a set of boundaries while installed; see module docstring.

    ``on_return(layer, result)`` is called after every successful span
    boundary call, so callers can read counts from the results without
    the tracer knowing their types.
    """

    def __init__(self, boundaries: Iterable[Boundary], *,
                 packages: Tuple[str, ...] = ("repro",),
                 clock: Callable[[], float] = time.perf_counter,
                 on_return: Optional[Callable[[str, Any], None]] = None):
        self.boundaries = tuple(boundaries)
        self.packages = packages
        self._clock = clock
        self._on_return = on_return
        # Frames are [layer, seconds spent in wrapped children, span id].
        self._stack: List[list] = [[ROOT, 0.0, 0]]
        self._ids = itertools.count(1)
        # (layer, parent layer) -> [calls, total seconds, self seconds]
        self.aggregates: Dict[Tuple[str, str], List[float]] = {}
        # (span id, parent span id, layer, start, end, self seconds)
        self.spans: List[Tuple[int, int, str, float, float, float]] = []
        self._patches: List[Tuple[Any, Any, Any]] = []
        self.started: Optional[float] = None
        self.stopped: Optional[float] = None

    # -- installation ---------------------------------------------------

    def _in_packages(self, name: str) -> bool:
        return any(name == package or name.startswith(package + ".")
                   for package in self.packages)

    def install(self) -> "Tracer":
        if self._patches or self.started is not None:
            raise RuntimeError("a Tracer installs once")
        wrappers: Dict[int, Tuple[Any, Any]] = {}
        for boundary in self.boundaries:
            original = resolve(boundary)
            if id(original) in wrappers:
                raise ValueError(f"{boundary.qualname} wrapped twice")
            wrappers[id(original)] = (
                original, self._wrap(original, boundary.layer,
                                     boundary.spans))
        self._replace_aliases(wrappers)
        missing = set(wrappers) - {id(original)
                                   for _, _, original in self._patches}
        if missing:
            self.uninstall()
            raise RuntimeError(f"{len(missing)} boundaries have no "
                               f"attribute to patch")
        self.started = self._clock()
        return self

    def _replace_aliases(self, wrappers: Dict[int, Tuple[Any, Any]]) -> None:
        """Patch module attributes, and one level down the attributes of
        package classes and the values of module-level dicts."""
        seen = set()

        def patch_matches(owner: Any, items: Iterable[Tuple[Any, Any]]
                          ) -> None:
            for key, value in list(items):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(owner, key, value, hit[1])

        for name, module in list(sys.modules.items()):
            if module is None or not self._in_packages(name):
                continue
            namespace = vars(module)
            patch_matches(module, namespace.items())
            for value in list(namespace.values()):
                if id(value) in seen:
                    continue
                if isinstance(value, type) and self._in_packages(
                        value.__module__):
                    seen.add(id(value))
                    patch_matches(value, vars(value).items())
                elif isinstance(value, dict):
                    seen.add(id(value))
                    patch_matches(value, value.items())

    def _patch(self, owner: Any, key: Any, original: Any,
               wrapper: Any) -> None:
        if isinstance(owner, dict):
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        if self.started is not None and self.stopped is None:
            self.stopped = self._clock()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, keep_spans: bool) -> Callable:
        stack = self._stack
        aggregates = self.aggregates
        spans = self.spans
        ids = self._ids
        clock = self._clock
        on_return = self._on_return if keep_spans else None

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            frame = [layer, 0.0, next(ids) if keep_spans else 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                own = elapsed - frame[1]
                parent[1] += elapsed
                key = (layer, parent[0])
                aggregate = aggregates.get(key)
                if aggregate is None:
                    aggregate = aggregates[key] = [0, 0.0, 0.0]
                aggregate[0] += 1
                aggregate[1] += elapsed
                aggregate[2] += own
                if keep_spans:
                    spans.append((frame[2], parent[2], layer, start, end,
                                  own))
            if on_return is not None:
                on_return(layer, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__qualname__ = getattr(fn, "__qualname__", layer)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- results ----------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """Wall time, per-(layer, parent) aggregates, per-layer totals,
        ``other`` self time and the full spans, as plain JSON data."""
        if self.started is None or self.stopped is None:
            raise RuntimeError("report() needs an installed-then-"
                               "uninstalled tracer")
        wall = self.stopped - self.started
        layers: Dict[str, Dict[str, float]] = {}
        for (layer, _parent), (calls, total, own) in self.aggregates.items():
            entry = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += own
        return {
            "wall_s": wall,
            "other_self_s": wall - self._stack[0][1],
            "layers": layers,
            "aggregates": [
                {"layer": layer, "parent": parent, "calls": calls,
                 "total_s": total, "self_s": own}
                for (layer, parent), (calls, total, own)
                in sorted(self.aggregates.items())
            ],
            "spans": [
                {"id": span_id, "parent": parent_id, "layer": layer,
                 "start_s": start - self.started,
                 "end_s": end - self.started, "self_s": own}
                for span_id, parent_id, layer, start, end, own in self.spans
            ],
        }

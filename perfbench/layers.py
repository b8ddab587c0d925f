"""Per-layer cost from a traced run: cProfile grouped by package, plus spans.

Self time and call counts are grouped by ``repro.<package>``.  A C builtin
has no package of its own (``heapq``, ``len``, ...), so its time is charged
to the packages of its callers, split as cProfile measured it per caller.

cProfile adds a fixed cost to every Python call, so it inflates call-heavy
code more than code that spends its time inside builtins.  Shares are a
guide to where to look; a claim must rest on an A/B wall-time comparison
with tracing off.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.experiments import cache, parallel
from repro.obs.export import ObsDirWriter

#: The layers a packet crosses, in the order the report lists them.
LAYERS = ("sim", "net", "traffic", "core", "mbac", "obs", "experiments")

_Func = Tuple[str, int, str]


@dataclass
class LayerCost:
    """Self time and call count of one package in one profile."""

    self_s: float = 0.0
    calls: int = 0


@dataclass
class ProfileSummary:
    """A profile reduced to per-package totals."""

    layers: Dict[str, LayerCost] = field(default_factory=dict)
    total_s: float = 0.0
    #: Calls to ``heapq`` functions made from ``repro.sim``.
    heap_ops: int = 0

    def cost(self, layer: str) -> LayerCost:
        """The cost of ``repro.<layer>`` (zero when it never ran)."""
        return self.layers.get(f"repro.{layer}", LayerCost())

    def share(self, layer: str) -> float:
        """``repro.<layer>``'s fraction of all profiled self time."""
        return self.cost(layer).self_s / self.total_s if self.total_s else 0.0


def package_of(filename: str, src: Path) -> str:
    """``repro.<package>`` for a file under ``src/repro``, else ``other``."""
    try:
        parts = Path(filename).resolve().relative_to(src / "repro").parts
    except ValueError:
        return "other"
    return "repro" if len(parts) == 1 else f"repro.{parts[0]}"


def summarize(profile: cProfile.Profile, src: Path) -> ProfileSummary:
    """Group a finished profile's self time and calls by package."""
    stats: Dict[_Func, Any] = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    summary = ProfileSummary()
    packages: Dict[str, str] = {}

    def package(func: _Func) -> str:
        name = packages.get(func[0])
        if name is None:
            name = packages[func[0]] = "other" if func[0] == "~" else package_of(func[0], src)
        return name

    for func, (_cc, calls, self_s, _cum, callers) in stats.items():
        summary.total_s += self_s
        if func[0] != "~":
            cost = summary.layers.setdefault(package(func), LayerCost())
            cost.self_s += self_s
            cost.calls += calls
            continue
        heap = "_heapq." in func[2]
        for caller, (_ccc, caller_calls, caller_self_s, _ccum) in callers.items():
            owner = package(caller)
            summary.layers.setdefault(owner, LayerCost()).self_s += caller_self_s
            if heap and owner == "repro.sim":
                summary.heap_ops += caller_calls
    return summary


class SpanRecorder:
    """Spans kept in memory: name, start, end and the enclosing span.

    Times are ``perf_counter`` seconds relative to the recorder's creation.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"id": index, "name": name, "parent": parent,
                           "start": time.perf_counter() - self._origin})
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.perf_counter() - self._origin

    def wrap(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """``func`` with every call recorded as a span called ``name``."""
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return func(*args, **kwargs)
        return traced

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total seconds, and self seconds."""
        child_s: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_s[span["parent"]] = child_s.get(span["parent"], 0.0) + \
                    span["end"] - span["start"]
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span["end"] - span["start"]
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_s.get(span["id"], 0.0)
        return out

    def total_s(self, *names: str) -> float:
        """Summed duration of every span with one of ``names``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] in names)

    def write(self, path: Path) -> None:
        """Write every span as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=1) + "\n")


@contextmanager
def harness_spans(spans: SpanRecorder) -> Iterator[None]:
    """Record spans around the sweep harness's calls into the layers below it.

    Covers ``run_scenario`` (as the harness calls it), ``cache.lookup``,
    ``cache.store``, ``ObsDirWriter.write_run`` and ``write_manifest``.  The
    wrappers are installed for the block only; they see calls made in this
    process, so the traced sweep runs with ``jobs=1``.
    """
    targets: List[Tuple[Any, str, str]] = [
        (parallel, "run_scenario", "run_scenario"),
        (cache, "lookup", "cache.lookup"),
        (cache, "store", "cache.store"),
        (ObsDirWriter, "write_run", "ObsDirWriter.write_run"),
        (ObsDirWriter, "write_manifest", "ObsDirWriter.write_manifest"),
    ]
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for owner, attr, name in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, spans.wrap(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


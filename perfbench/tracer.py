"""In-memory spans recorded by wrapping module attributes of the program.

A hook names an attribute as the calling module looks it up, for example
``("rankflow.fit", "_pareto_y_grid")``: the fitter calls the curve through
its own module global, so replacing that global sees every call. No file of
the program changes; hooks are removed again when tracing ends.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str                     # dotted below the module, e.g. "Cls.method"
    span: str                     # span name, "<layer>.<what>"
    attrs: Callable[[tuple, dict, Any], dict] | None = None

    @property
    def target(self) -> str:
        return f"{self.module}.{self.attr}"


class Tracer:
    """Span recorder. Each span is [name, start, end, parent, job, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: str | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, hook: Hook) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [hook.span, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook.attrs is not None:
                try:
                    rec[5] = hook.attrs(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    rec[5] = {}  # the metrics that read it report it missing
            return result

        return traced

    def install(self, hooks: list[Hook]) -> None:
        """Wrap every hook that resolves; record the others as missing."""
        for hook in hooks:
            *path, name = hook.attr.split(".")
            try:
                owner = importlib.import_module(hook.module)
                for part in path:
                    owner = getattr(owner, part)
                current = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(hook.target)
                continue
            if isinstance(owner, type):
                # keep the raw descriptor (e.g. classmethod) so it can be restored
                raw = owner.__dict__.get(name, current)
                setattr(owner, name, staticmethod(self._wrap(current, hook)))
            else:
                raw = current
                setattr(owner, name, self._wrap(current, hook))
            self._installed.append((owner, name, raw))

    def uninstall(self) -> None:
        while self._installed:
            owner, name, raw = self._installed.pop()
            setattr(owner, name, raw)

    def self_times(self) -> list[float]:
        """Duration of each span minus the part its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "job", "attrs"]
        with open(path, "w") as fh:
            json.dump({**meta, "fields": fields, "spans": self.spans}, fh,
                      separators=(",", ":"))

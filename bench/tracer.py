"""Per-function call counts and self time, measured from outside.

`Tracer` replaces every module-level binding of an apsquares function,
in every apsquares module and in module-level dicts such as the CLI's
handler table, with one timing wrapper per function. Calls are
aggregated per name into [calls, self seconds, extra], so memory does
not grow with the number of calls. Self time is a call's duration minus
the durations of the wrapped calls made beneath it. `remove` restores
the original bindings exactly.
"""

from __future__ import annotations

import sys
import time
import types
from typing import Any, Callable

# Extra per-call quantities, keyed by traced name.
Hook = Callable[[tuple, dict, Any], int]


def _scan_row_cells(args: tuple, kwargs: dict, result: Any) -> int:
    _k, _d, n_lo, n_hi = args[:4]
    step = args[4] if len(args) > 4 else kwargs.get("step", 1)
    return len(range(n_lo, n_hi + 1, step))


def _rendered_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result.encode())


HOOKS: dict[str, Hook] = {
    "search._scan_row": _scan_row_cells,
    "cli.render_json": _rendered_bytes,
}


def _module_short(name: str) -> str:
    return name.split(".", 1)[1] if "." in name else name


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []
        self._saved: list[tuple[dict, str, Any]] = []

    def _wrap(self, fn: types.FunctionType, name: str) -> Callable:
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        hook = HOOKS.get(name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf() - start
                stat[0] += 1
                stat[1] += took - stack.pop()
                if stack:
                    stack[-1] += took
            if hook is not None:
                stat[2] += hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items()) if key == "apsquares" or key.startswith("apsquares.")]
        wrappers: dict[int, Callable] = {}

        def wrapped(value: Any) -> Callable | None:
            if not isinstance(value, types.FunctionType) or not value.__module__.startswith("apsquares."):
                return None
            if id(value) not in wrappers:
                name = f"{_module_short(value.__module__)}.{value.__qualname__}"
                wrappers[id(value)] = self._wrap(value, name)
            return wrappers[id(value)]

        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                targets = [(namespace, key, value)]
                if isinstance(value, dict):
                    targets = [(value, k, v) for k, v in value.items()]
                for container, k, v in targets:
                    replacement = wrapped(v)
                    if replacement is not None:
                        self._saved.append((container, k, v))
                        container[k] = replacement

    def remove(self) -> None:
        for container, key, original in reversed(self._saved):
            container[key] = original
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()

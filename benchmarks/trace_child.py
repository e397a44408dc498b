"""Run one mfgcoef CLI command with layer spans recorded.

Usage: python trace_child.py SPANS_JSON CLI_ARG...

Wraps every function in ``layers.TARGETS`` with a ``time.perf_counter``
span, calls ``mfgcoef.cli.main`` with the remaining arguments, then
writes the spans (kept in memory until then) to SPANS_JSON and exits
with the command's exit code.  ``mfgcoef`` is imported from PYTHONPATH.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import layers


class Recorder:
    """Spans of one single-threaded command, parents taken from a stack."""

    def __init__(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, label, func, info):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(func) if info else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = info(bound.arguments, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Patch every binding of each target that exists."""
        found = [
            (getattr(importlib.import_module(module), attr, None), label, info)
            for module, attr, label, info in targets
        ]
        modules = [m for name, m in sys.modules.items() if name.startswith("mfgcoef")]
        for func, label, info in found:
            if func is None:
                continue
            traced = self.wrap(label, func, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, key, traced)


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import mfgcoef.cli as cli

    recorder = Recorder()
    recorder.install(layers.TARGETS)
    try:
        code = cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="ascii") as fh:
            json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Traced runs for the rclab benchmark, one fresh process each.

    python3 perfbench/traced.py cli SUMMARY.json -- verify --preset example1
    python3 perfbench/traced.py nsweep SUMMARY.json

`cli` wraps every public function of the rclab layers in a timing span,
runs one CLI command in this process through `rclab.cli.main`, and writes
per-function call counts, total and self times, the step durations and the
counts that the harness checks for drift to SUMMARY.json. Its exit status
is the command's.

`nsweep` solves the ESD and times semi-implicit steps on the example1
geometry at several trait-grid sizes N, and writes the figures to
SUMMARY.json.

Nothing under src/ is changed: the wrappers are installed on the imported
modules. `rclab` must be importable (run with PYTHONPATH=src).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
import warnings
from dataclasses import replace

LAYERS = ("cli", "scenarios", "model", "integrator", "esd", "steady", "csvio", "svgplot")
STEP_FUNCTIONS = ("integrator.step_semi_implicit", "integrator.step_fully_implicit")
NSWEEP_SIZES = (40, 160, 640, 1280)
NSWEEP_STEP_BUDGET_S = 0.5
NSWEEP_METRICS = tuple(f"{metric}.N{n}" for n in NSWEEP_SIZES
                       for metric in ("esd.iterations", "esd.solve_esd_s", "integrator.step_us"))


def _solve_esd_note(result, args, kwargs):
    f_init = kwargs.get("f_init", args[1] if len(args) > 1 else None)
    return [result.iterations, f_init is None]


# Facts about a call that the harness needs beyond its duration.
NOTES = {
    "esd.solve_esd": _solve_esd_note,
    "integrator.step_fully_implicit": lambda result, args, kwargs: result[1],
    "csvio.trajectory_csv": lambda result, args, kwargs: len(result.encode("utf-8")),
}


class Tracer:
    """Records one span per call of a wrapped function, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, note]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(result, args, kwargs)
            return result

        return traced

    def install(self) -> int:
        """Wrap the public functions of every layer at each of their bindings.

        `from .esd import check_K_nonsingular` leaves a second name in the
        importing module; a wrapper installed only on `rclab.esd` would miss
        the calls made through it. Returns the number of names rebound.
        """
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"rclab.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        rebound = 0
        for name, module in list(sys.modules.items()):
            if name != "rclab" and not name.startswith("rclab."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    rebound += 1
        return rebound

    def summary(self) -> dict:
        """Per-function calls, total and self seconds; step times; notes."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _note in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        functions: dict[str, dict[str, float]] = {}
        notes: dict[str, list] = {}
        step_us = []
        for idx, (name, start, end, _parent, note) in enumerate(self.spans):
            entry = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[idx]
            if name in STEP_FUNCTIONS:
                step_us.append((end - start) * 1e6)
            if note is not None:
                notes.setdefault(name, []).append(note)
        return {"functions": functions, "notes": notes, "step_us": step_us}


def run_cli(summary_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    rebound = tracer.install()
    cli = sys.modules["rclab.cli"]
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    summary = {"command": argv[0], "exit": code, "wall_s": wall, "rebound": rebound,
               **tracer.summary()}
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


def run_nsweep(summary_path: str) -> int:
    from rclab.esd import solve_esd
    from rclab.integrator import step_semi_implicit
    from rclab.scenarios import build_params, builtin_presets

    base = builtin_presets()["example1"]
    figures: dict[str, float] = {}
    with warnings.catch_warnings():
        # K is numerically singular at every N; the warning is expected
        warnings.simplefilter("ignore")
        for n in NSWEEP_SIZES:
            params, state = build_params(replace(base, N=n))
            start = time.perf_counter()
            esd = solve_esd(params)
            figures[f"esd.solve_esd_s.N{n}"] = time.perf_counter() - start
            figures[f"esd.iterations.N{n}"] = esd.iterations
            steps: list[float] = []
            budget_end = time.perf_counter() + NSWEEP_STEP_BUDGET_S
            while len(steps) < 50 or (len(steps) < 2000 and time.perf_counter() < budget_end):
                start = time.perf_counter()
                state = step_semi_implicit(params, state, base.dt)
                steps.append((time.perf_counter() - start) * 1e6)
            figures[f"integrator.step_us.N{n}"] = statistics.median(steps)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(figures, fh)
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 4 and argv[0] == "cli" and argv[2] == "--":
        return run_cli(argv[1], argv[3:])
    if len(argv) == 2 and argv[0] == "nsweep":
        return run_nsweep(argv[1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

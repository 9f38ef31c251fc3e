"""Benchmark harness for rclab.

    python3 perfbench/run.py --workload verify-flagship --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root (any directory works; paths are resolved from
this file). A workload is the sequence of `rclab` CLI commands a user types.
One client issues them one after another and waits for each (a closed loop),
every command in a fresh process with the BLAS thread pool pinned to one
thread, every pass with a fresh output directory.

--trace 0 repeats the workload's commands until --seconds have passed and
reports the end-to-end metrics as medians over the passes. Before each pass
it also times the set-up of a fresh process, at least MIN_SETUPS times; the
host's speed drifts over seconds, so these samples are spread over the run.
Pass k draws its random inputs from pass_seed(--seed, k).

The harness and every command it starts run on one CPU, beside a probe
thread that measures that CPU's speed (see SpeedProbe). Times are reported
in reference seconds: each command's measured time scaled to a CPU on which
the probe unit it follows takes PROBE_REF_S of CPU time.

--trace 1 alternates untraced passes with traced ones (traced.py wraps the
public functions of every rclab layer) and reports per-layer figures from
the traced passes and the tracing overhead. Every pass uses --seed itself,
so that counts repeat exactly. On equilibria-fine it also runs an N sweep
of the ESD solve and the semi-implicit step. The per-layer times, taken
inside the commands, are not scaled; the tracing overhead is.

The metric names and units are those of BENCHMARK.json at the repository
root; a metric named there that the run does not produce is a self-check
failure.

Every pass checks the program's outputs; a command fails on an unexpected
exit status or a failed check. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Work files go
to .perfbench_work/ under the repository root and are removed at exit.

--smoke runs every workload once in both modes, briefly, and checks that
each metric named in BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from traced import NSWEEP_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACED = HERE / "traced.py"
BENCHMARK = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"

# With a two-thread BLAS pool on a 2-CPU machine, an N=160 SVD of K took
# 0.4 s instead of 3 ms in some fresh processes.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_SETUPS = 5
PROBE_INTERVAL_S = 0.01
PROBE_MIN_UNITS = 10
# CPU seconds of each probe unit on the reference CPU; they set the scale of
# reported times and are near the medians seen on the machine of README.md
PROBE_REF_S = {"interpreter": 150e-6, "memory": 170e-6}
MIN_TRACED_PASSES = 2
COMMAND_TIMEOUT_S = 120.0
MB = 1e6

# Counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = (
    "integrator.steps", "integrator.fp_sweeps_mean", "model.compute_diagnostics_calls",
    "model.validate_params_calls", "csvio.trajectory_csv_calls", "csvio.trajectory_csv_mb",
    "csvio.read_csv_calls", "esd.solve_esd_calls", "esd.iterations",
    "esd.iterations.default_start", "esd.check_K_nonsingular_calls",
    "steady.dirac_steady_state_calls",
)
CLI_COMMANDS = ("simulate", "esd", "verify", "analyze", "plot")
SETUP_CODE = (
    "import sys, rclab.cli\n"
    "from rclab.model import validate_params\n"
    "from rclab.scenarios import build_params, load_scenario\n"
    "params, state0 = build_params(load_scenario(sys.argv[1]))\n"
    "validate_params(params, state0)\n"
)


def metric_units(key: str) -> dict[str, str]:
    """Name to unit of the BENCHMARK.json metrics under key."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Finished:
    """One command run to completion in its own process."""

    exit_code: int
    start: float
    wall_s: float
    cpu_s: float
    max_rss_kb: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


CHILD_ENV = child_env()


def spawn(argv: list[str], log: Path) -> Finished:
    """Run argv to completion; usage comes from wait4, output goes to log."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(proc.returncode, start, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss)


def machine_facts() -> dict[str, object]:
    facts: dict[str, object] = {
        "cpu_model": "unknown", "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), **PINNED_ENV,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy\n"
         "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
         "print(json.dumps({'numpy': numpy.__version__, 'blas': '%s %s' % "
         "(blas.get('name'), blas.get('version'))}))"],
        env=CHILD_ENV, capture_output=True, text=True, timeout=60)
    if probe.returncode == 0:
        facts.update(json.loads(probe.stdout))
    try:
        # the ceiling keeps git from reporting a repository that encloses ROOT
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        facts["git_commit"] = git.stdout.strip() if git.returncode == 0 else "not a git checkout"
    except OSError:
        facts["git_commit"] = "git not available"
    return facts


# ---------------------------------------------------------------------------
# host speed


class SpeedProbe(threading.Thread):
    """Samples the speed of the CPU that runs the commands, while they run.

    The speed of this host's CPUs drifts by up to a factor of 1.7 within
    seconds to minutes, and the drift reaches wall and CPU time alike. This
    thread shares the one CPU of the harness and its commands. Every
    PROBE_INTERVAL_S it runs two fixed units of work and records the CPU
    time each took: an interpreter unit (formatting and parsing floats in
    Python) and a memory unit (copying 1 MB with numpy). Commands that spend
    their time in the interpreter slow down with the first, and those that
    stream a large matrix through mat-vecs with the second, each with a
    log-log slope near 1. The units cost about 3 % of the CPU.
    """

    def __init__(self) -> None:
        super().__init__(name="speed-probe", daemon=True)
        import numpy

        self._source = numpy.random.default_rng(0).random(125_000)
        self._target = numpy.empty_like(self._source)
        self._copyto = numpy.copyto
        self._done = threading.Event()
        # (end time, interpreter unit CPU seconds, memory unit CPU seconds)
        self.samples: list[tuple[float, float, float]] = []

    @staticmethod
    def interpreter_unit() -> None:
        parts, x = [], 0.1
        for _ in range(90):
            x = x * 1.0000001 + 1e-9
            parts.append(f"{x:.17g}")
        [float(v) for v in ",".join(parts).split(",")]

    def memory_unit(self) -> None:
        self._copyto(self._target, self._source)

    def run(self) -> None:
        clock = time.thread_time
        while not self._done.wait(PROBE_INTERVAL_S):
            start = clock()
            self.interpreter_unit()
            middle = clock()
            self.memory_unit()
            self.samples.append((time.perf_counter(), middle - start, clock() - middle))

    def stop(self) -> None:
        self._done.set()
        if self.is_alive():
            self.join()

    def scale(self, start: float, end: float, kind: str = "interpreter") -> float:
        """Factor from seconds measured from start to end to reference seconds.

        kind names the unit to follow. Uses the units that ended in the
        interval, or the PROBE_MIN_UNITS nearest to it when fewer did.
        """
        column = 1 if kind == "interpreter" else 2
        by_distance = sorted((max(start - sample[0], sample[0] - end, 0.0), sample[column])
                             for sample in list(self.samples))
        inside = sum(1 for distance, _unit in by_distance if distance == 0.0)
        units = [unit for _distance, unit in by_distance[:max(inside, PROBE_MIN_UNITS)]]
        if not units:
            raise RuntimeError("the speed probe recorded no unit")
        return PROBE_REF_S[kind] / statistics.fmean(units)


# ---------------------------------------------------------------------------
# workloads


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_report(path: Path, reasons: list[str]) -> dict:
    """The parsed report, or {} with a reason when it is missing or invalid."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        reasons.append(f"unreadable {path.name}: {err}")
        return {}


def verdicts_pass(report: dict) -> bool:
    verdicts = [v for k, v in report.items() if k.startswith("verdicts.")]
    return bool(verdicts) and all(v is True for v in verdicts)


class Workload:
    """A named command sequence, its scenario, and the checks on its output.

    `commands` returns (tag, argv after `rclab`) pairs for one pass whose
    outputs go under `out` and whose random draws use `seed`; `check` returns
    one list of failure reasons per command. The time of a command whose tag
    is in `memory_bound` follows the probe's memory unit, that of any other
    its interpreter unit. `identical` holds digests of the files that must be
    byte-identical across the passes of one run. `reported` returns counts
    that report.json states, named as the per-layer figure they must equal.
    """

    name = ""
    nsweep = False  # whether its traced runs also run the N sweep
    memory_bound: tuple[str, ...] = ()

    def __init__(self, scenario_path: Path, seed: int) -> None:
        self.scenario_path = scenario_path
        self.seed = seed
        self.identical: dict[str, str] = {}

    @staticmethod
    def scenario(presets: dict):
        raise NotImplementedError

    def commands(self, out: Path, seed: int) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check(self, out: Path, exits: list[int]) -> list[list[str]]:
        raise NotImplementedError

    def reported(self, out: Path) -> dict[str, int]:
        raise NotImplementedError

    def same_as_before(self, path: Path, reasons: list[str]) -> None:
        if not path.is_file() or path.stat().st_size == 0:
            reasons.append(f"{path.name} missing or empty")
            return
        digest = sha256(path)
        if self.identical.setdefault(path.name, digest) != digest:
            reasons.append(f"{path.name} differs from the first pass")

    @staticmethod
    def exited(code: int, reasons: list[str]) -> bool:
        if code != 0:
            reasons.append(f"exit status {code}")
        return code == 0


class VerifyFlagship(Workload):
    name = "verify-flagship"

    @staticmethod
    def scenario(presets):
        return replace(presets["example1"], scheme="implicit")

    def commands(self, out, seed):
        return [("verify", ["verify", "--preset", "example1", "--scheme", "implicit",
                            "--out", str(out)])]

    def check(self, out, exits):
        reasons: list[str] = []
        if self.exited(exits[0], reasons):
            report = read_report(out / "report.json", reasons)
            if not verdicts_pass(report):
                reasons.append("a verdict failed")
            if report.get("esd.persistence_count") != 2:
                reasons.append("persistence count is not 2")
            for name in ("report.json", "profile.svg", "entropy.svg"):
                self.same_as_before(out / name, reasons)
        return [reasons]

    def reported(self, out):
        report = read_report(out / "report.json", [])
        return {"integrator.steps": report.get("trajectory.steps"),
                "esd.iterations.default_start": report.get("esd.iterations")}


class EquilibriaFine(Workload):
    name = "equilibria-fine"
    nsweep = True
    # the ESD solves stream the 3.3 MB matrix K through mat-vecs
    memory_bound = ("esd",)

    @staticmethod
    def scenario(presets):
        return replace(presets["example1"], N=640)

    def commands(self, out, seed):
        return [
            ("esd", ["esd", "--scenario", str(self.scenario_path), "--seed", str(seed),
                     "--out", str(out / "esd")]),
            ("analyze", ["analyze", "--scenario", str(self.scenario_path),
                         "--out", str(out / "analyze")]),
        ]

    def check(self, out, exits):
        esd: list[str] = []
        if self.exited(exits[0], esd):
            report = read_report(out / "esd" / "report.json", esd)
            if not verdicts_pass(report):
                esd.append("a verdict failed")
            if not report.get("esd.kkt_residual", 1.0) <= 1e-10:
                esd.append("kkt residual above 1e-10")
            if report.get("esd.persistence_count") != 2:
                esd.append("persistence count is not 2")
        analyze: list[str] = []
        if self.exited(exits[1], analyze):
            report = read_report(out / "analyze" / "report.json", analyze)
            if not str(report.get("analysis.two_peak", "")).startswith("rho1 = "):
                analyze.append("no two-peak steady state found")
        return [esd, analyze]

    def reported(self, out):
        report = read_report(out / "esd" / "report.json", [])
        return {"esd.iterations.default_start": report.get("esd.iterations")}


class SimulatePlotWide(Workload):
    name = "simulate-plot-wide"
    N = 320
    T = 400.0

    @classmethod
    def scenario(cls, presets):
        return replace(presets["example1"], N=cls.N, T_final=cls.T, scheme="semi")

    def commands(self, out, seed):
        csv = str(out / "trajectory.csv")
        return [
            ("simulate", ["simulate", "--scenario", str(self.scenario_path),
                          "--out", str(out)]),
            ("plot", ["plot", "--csv", csv, "--kind", "waterfall",
                      "--out-svg", str(out / "waterfall.svg")]),
            ("plot", ["plot", "--csv", csv, "--kind", "profile",
                      "--out-svg", str(out / "profile.svg")]),
        ]

    def check(self, out, exits):
        simulate: list[str] = []
        if self.exited(exits[0], simulate):
            try:
                with open(out / "trajectory.csv", encoding="utf-8") as fh:
                    header = fh.readline()
                    rows = sum(1 for _ in fh)
            except OSError as err:
                header, rows = "", 0
                simulate.append(f"unreadable trajectory.csv: {err}")
            if rows != 1001:
                simulate.append(f"trajectory.csv has {rows} data rows, not 1001")
            if header.count(",") + 1 != 2 * self.N + 6:
                simulate.append("trajectory.csv has the wrong number of columns")
        plots = []
        for code, name in zip(exits[1:], ("waterfall.svg", "profile.svg")):
            reasons: list[str] = []
            if self.exited(code, reasons):
                self.same_as_before(out / name, reasons)
            plots.append(reasons)
        return [simulate, *plots]

    def reported(self, out):
        return {"integrator.steps": read_report(out / "report.json", []).get("trajectory.steps")}


WORKLOADS = {w.name: w for w in (VerifyFlagship, EquilibriaFine, SimulatePlotWide)}


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    artifact_mb: float
    commands: int
    failed: int
    summaries: list[dict]
    reported: dict[str, int]
    timed: list[tuple[str, Finished]]  # (probe unit to follow, command)

    def reference_seconds(self, probe: SpeedProbe) -> tuple[float, float]:
        """Wall and CPU seconds of the pass, each command scaled by its unit."""
        wall = cpu = 0.0
        for kind, done in self.timed:
            factor = probe.scale(done.start, done.start + done.wall_s, kind)
            wall += done.wall_s * factor
            cpu += done.cpu_s * factor
        return wall, cpu


class Runner:
    """Runs passes of one workload inside a private work directory."""

    def __init__(self, workload: Workload, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.count = 0

    def run_pass(self, traced: bool, seed: int) -> Pass:
        self.count += 1
        out = self.work / f"pass{self.count}"
        logs = self.work / f"logs{self.count}"
        out.mkdir()
        logs.mkdir()
        finished: list[Finished] = []
        summaries: list[Path] = []
        commands = self.workload.commands(out, seed)
        start = time.perf_counter()
        for i, (tag, args) in enumerate(commands):
            if traced:
                summaries.append(logs / f"{i}-{tag}.json")
                argv = [sys.executable, str(TRACED), "cli", str(summaries[-1]), "--", *args]
            else:
                argv = [sys.executable, "-m", "rclab.cli", *args]
            finished.append(spawn(argv, logs / f"{i}-{tag}"))
        end = time.perf_counter()

        exits = [f.exit_code for f in finished]
        reasons = self.workload.check(out, exits)
        loaded = []
        for i, path in enumerate(summaries):
            if path.is_file():
                with open(path, encoding="utf-8") as fh:
                    loaded.append(json.load(fh))
            else:
                reasons[i].append("traced run wrote no summary")
        for i, why in enumerate(reasons):
            if why:
                print(f"{self.workload.name} pass {self.count} command {i}: {'; '.join(why)}",
                      file=sys.stderr)
        failed = sum(1 for why in reasons if why)
        reported = self.workload.reported(out) if traced and not failed else {}
        artifact = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        shutil.rmtree(out)
        shutil.rmtree(logs)
        kinds = ["memory" if tag in self.workload.memory_bound else "interpreter"
                 for tag, _args in commands]
        return Pass(
            wall_s=end - start,
            cpu_s=sum(f.cpu_s for f in finished),
            peak_rss_mb=max(f.max_rss_kb for f in finished) * 1024 / MB,
            artifact_mb=artifact / MB,
            commands=len(finished),
            failed=failed,
            summaries=loaded,
            reported=reported,
            timed=list(zip(kinds, finished)),
        )


def setup_time(scenario_path: Path, log: Path, probe: SpeedProbe) -> float:
    """Reference seconds of a fresh process that imports the CLI and builds the model."""
    done = spawn([sys.executable, "-c", SETUP_CODE, str(scenario_path)], log)
    if done.exit_code != 0:
        raise RuntimeError(f"set-up process exited with status {done.exit_code}")
    return done.wall_s * probe.scale(done.start, done.start + done.wall_s)


def pass_seed(seed: int, count: int) -> int:
    """The seed of pass `count` of a run with `seed`: a fixed function of both."""
    return random.Random(f"{seed}/{count}").randrange(2**31)


def describe(name: str, values: list[float], unit: str) -> str:
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"{name}: median {statistics.median(values):.6g} {unit}, "
            f"quartiles {q1:.6g} to {q3:.6g}, n = {len(values)}")


# ---------------------------------------------------------------------------
# per-layer figures from traced passes


def layer_figures(summaries: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced pass (one summary per command)."""
    functions: dict[str, dict[str, float]] = {}
    notes: dict[str, list] = {}
    step_us: list[float] = []
    cli_self = dict.fromkeys(CLI_COMMANDS, 0.0)
    for summary in summaries:
        for name, entry in summary["functions"].items():
            total = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += entry[key]
            if name.startswith("cli."):
                cli_self[summary["command"]] += entry["self_s"]
        for name, values in summary["notes"].items():
            notes.setdefault(name, []).extend(values)
        step_us.extend(summary["step_us"])

    def calls(name):
        return functions.get(name, {}).get("calls", 0)

    def seconds(name):
        return functions.get(name, {}).get("total_s", 0.0)

    sweeps = notes.get("integrator.step_fully_implicit", [])
    solves = notes.get("esd.solve_esd", [])
    figures = {
        "integrator.steps": len(step_us),
        "integrator.step_us.p50": statistics.median(step_us) if step_us else 0.0,
        "integrator.step_us.p99": (statistics.quantiles(step_us, n=100)[98]
                                   if len(step_us) > 1 else max(step_us, default=0.0)),
        "integrator.fp_sweeps_mean": sum(sweeps) / len(sweeps) if sweeps else 0.0,
        "integrator.simulate_s": seconds("integrator.simulate"),
        "integrator.entropy_trace_s": seconds("integrator.entropy_trace"),
        "model.compute_diagnostics_calls": calls("model.compute_diagnostics"),
        "model.compute_diagnostics_us": (seconds("model.compute_diagnostics") * 1e6
                                         / max(calls("model.compute_diagnostics"), 1)),
        "model.validate_params_calls": calls("model.validate_params"),
        "csvio.trajectory_csv_calls": calls("csvio.trajectory_csv"),
        "csvio.trajectory_csv_s": seconds("csvio.trajectory_csv"),
        "csvio.trajectory_csv_mb": sum(notes.get("csvio.trajectory_csv", [])) / MB,
        "csvio.read_csv_calls": calls("csvio.read_csv"),
        "csvio.read_csv_s": seconds("csvio.read_csv"),
        "svgplot.render_profile_s": seconds("svgplot.render_profile"),
        "svgplot.render_entropy_s": seconds("svgplot.render_entropy"),
        "svgplot.render_waterfall_s": seconds("svgplot.render_waterfall"),
        "esd.solve_esd_calls": calls("esd.solve_esd"),
        "esd.solve_esd_s": seconds("esd.solve_esd"),
        "esd.iterations": sum(it for it, _default in solves),
        "esd.iterations.default_start": sum(it for it, default in solves if default),
        "esd.check_K_nonsingular_calls": calls("esd.check_K_nonsingular"),
        "esd.check_K_nonsingular_s": seconds("esd.check_K_nonsingular"),
        "esd.verify_esd_s": seconds("esd.verify_esd"),
        "steady.dirac_steady_state_calls": calls("steady.dirac_steady_state"),
        "steady.dirac_steady_state_s": seconds("steady.dirac_steady_state"),
        "steady.two_peak_steady_state_s": seconds("steady.two_peak_steady_state"),
        "scenarios.build_params_s": seconds("scenarios.build_params"),
    }
    figures.update({f"cli.{cmd}.self_s": cli_self[cmd] for cmd in CLI_COMMANDS})
    return figures


# ---------------------------------------------------------------------------
# modes


def measure_end_to_end(runner: Runner, scenario_path: Path, seconds: float,
                       units: dict[str, str], probe: SpeedProbe):
    setup: list[float] = []
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    # stop when the next pass, as long as the last, would end past the deadline
    while not passes or time.perf_counter() + passes[-1].wall_s <= deadline:
        setup.append(setup_time(scenario_path, runner.work / f"setup{len(setup)}", probe))
        seed = pass_seed(runner.workload.seed, len(passes) + 1)
        passes.append(runner.run_pass(traced=False, seed=seed))
    while len(setup) < MIN_SETUPS:
        setup.append(setup_time(scenario_path, runner.work / f"setup{len(setup)}", probe))
    reference = [p.reference_seconds(probe) for p in passes]
    print(describe("measured wall", [p.wall_s for p in passes], "s"))
    series = {
        "wall_s": [wall for wall, _cpu in reference],
        "cpu_s": [cpu for _wall, cpu in reference],
        "setup_s": setup,
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
        "artifact_mb": [p.artifact_mb for p in passes],
    }
    attempted = sum(p.commands for p in passes)
    failed = sum(p.failed for p in passes)
    for name, values in series.items():
        print(describe(name, values, units.get(name, "")))
    metrics = {name: statistics.median(values) for name, values in series.items()}
    metrics["ok_share"] = 1.0 - failed / attempted
    return attempted, failed, metrics, missing(units, metrics)


def measure_layers(runner: Runner, seconds: float, units: dict[str, str],
                   probe: SpeedProbe):
    untraced: list[Pass] = []
    traced: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while (len(traced) < MIN_TRACED_PASSES
           or time.perf_counter() + untraced[-1].wall_s + traced[-1].wall_s <= deadline):
        # every pass uses the run's seed, so that counts repeat exactly
        untraced.append(runner.run_pass(traced=False, seed=runner.workload.seed))
        traced.append(runner.run_pass(traced=True, seed=runner.workload.seed))
    problems = []
    complete = [p for p in traced if len(p.summaries) == p.commands]
    if len(complete) < len(traced):
        problems.append("a traced pass lost a command summary")
    figures = [layer_figures(p.summaries) for p in complete]
    for name in EXACT_COUNTS:
        seen = sorted({f[name] for f in figures})
        if len(seen) > 1:
            problems.append(f"{name} drifted between traced passes: {seen}")
    for p, f in zip(complete, figures):
        for name, value in p.reported.items():
            if value is not None and f[name] != value:
                problems.append(f"{name} is {f[name]} traced but {value} in report.json")
    if any(s["rebound"] == 0 for p in traced for s in p.summaries):
        problems.append("the tracer wrapped no function")

    metrics = {}
    for name in (figures[0] if figures else {}):
        values = [f[name] for f in figures]
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    untraced_s = [p.reference_seconds(probe)[0] for p in untraced]
    traced_s = [p.reference_seconds(probe)[0] for p in traced]
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    attempted = sum(p.commands for p in untraced + traced)
    failed = sum(p.failed for p in untraced + traced)
    metrics["failed_share"] = failed / attempted
    # the sweep does not depend on the workload, so only one workload runs it
    metrics.update(dict.fromkeys(NSWEEP_METRICS, 0))
    if runner.workload.nsweep:
        sweep_path = runner.work / "nsweep.json"
        sweep = spawn([sys.executable, str(TRACED), "nsweep", str(sweep_path)],
                      runner.work / "nsweep")
        if sweep.exit_code == 0:
            with open(sweep_path, encoding="utf-8") as fh:
                metrics.update(json.load(fh))
        else:
            problems.append(f"N sweep exited with status {sweep.exit_code}")
    print(describe("untraced pass wall_s", untraced_s, "s"))
    print(describe("traced pass wall_s", traced_s, "s"))
    return attempted, failed, metrics, problems + missing(units, metrics)


def missing(units: dict[str, str], metrics: dict[str, float]) -> list[str]:
    absent = sorted(set(units) - set(metrics))
    return [f"metrics named in BENCHMARK.json but not measured: {absent}"] if absent else []


def run(args) -> int:
    if not (SRC / "rclab" / "cli.py").is_file():
        print(f"error: no rclab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    from rclab.scenarios import builtin_presets, save_scenario

    facts = machine_facts()
    # the probe measures only the CPU it runs on; children inherit the affinity
    facts["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {facts["pinned_cpu"]})
    print("machine: " + json.dumps(facts, sort_keys=True))
    probe = SpeedProbe()
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    work.mkdir()
    try:
        probe.start()
        cls = WORKLOADS[args.workload]
        scenario_path = work / f"{cls.name}.scenario"
        scenario_path.write_text(save_scenario(cls.scenario(builtin_presets())),
                                 encoding="utf-8")
        runner = Runner(cls(scenario_path, args.seed), work)
        units = metric_units("per_layer" if args.trace else "end_to_end")
        if args.trace:
            attempted, failed, values, problems = measure_layers(
                runner, args.seconds, units, probe)
        else:
            attempted, failed, values, problems = measure_end_to_end(
                runner, scenario_path, args.seconds, units, probe)
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Run each workload briefly in both modes; check names and units."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for workload in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                    workload["name"], "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            before = len(problems)
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            where = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit status {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys are {sorted(result)}")
            if result.get("correct") is not True or result.get("attempted", 0) < 1:
                problems.append(f"{where}: not correct\n{proc.stderr}")
            emitted = result.get("metrics", {})
            wanted = {m["name"]: m["unit"] for m in bench[key]}
            extra = sorted(set(emitted) - set(wanted))
            if extra:
                problems.append(f"{where}: emitted {extra}, not named in BENCHMARK.json")
            for name, unit in wanted.items():
                got = emitted.get(name, {})
                if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: {name} is {got}, expected unit {unit}")
            print(f"smoke {where}: {'ok' if len(problems) == before else 'problems'}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check that every metric in BENCHMARK.json is emitted")
    args = parser.parse_args()
    # on SIGTERM, unwind so that the running child is stopped and work files removed
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

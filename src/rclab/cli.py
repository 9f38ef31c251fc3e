"""Command-line interface.

    rclab simulate  --preset example1 --T 3000 --out results/
    rclab esd       --preset example2
    rclab verify    --preset example1 --scheme implicit
    rclab analyze   --preset n1-closedform
    rclab plot      --csv results/trajectory.csv --kind profile --out-svg p.svg

Every data-producing subcommand writes report.json (plus CSVs and SVGs for
simulate/verify) into --out, $RCLAB_OUT, or the working directory. Exit
status is 0 only when all requested verdicts pass; 1 on verdict failure;
2 on operational errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import NewtonFailed, NotApplicable, RclabError

if TYPE_CHECKING:
    from .integrator import StepConfig
    from .model import DerivedConstants
    from .scenarios import ScenarioSpec

# the commands import every other module where they call it, so a process loads
# only the code it runs: plot loads csvio and svgplot, and no model

_ESD_SOLVER_TOL = 1e-10


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("RCLAB_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_spec(args) -> tuple[str, ScenarioSpec]:
    from .scenarios import builtin_presets, load_scenario

    if args.preset:
        presets = builtin_presets()
        if args.preset not in presets:
            raise RclabError(
                f"unknown preset '{args.preset}' (have: {', '.join(sorted(presets))})"
            )
        name, spec = args.preset, presets[args.preset]
    else:
        spec = load_scenario(args.scenario)
        name = Path(args.scenario).stem
    if getattr(args, "T", None) is not None:
        spec = replace(spec, T_final=args.T)
    if getattr(args, "dt", None) is not None:
        spec = replace(spec, dt=args.dt)
    if getattr(args, "scheme", None):
        spec = replace(spec, scheme=args.scheme)
    return name, spec


def _step_config(spec: ScenarioSpec) -> StepConfig:
    from .integrator import Scheme, StepConfig

    return StepConfig(
        dt=spec.dt, scheme=Scheme(spec.scheme), fp_tol=spec.fp_tol, fp_maxit=spec.fp_maxit,
        enforce_mu0=spec.enforce_mu0,
    )


def _trajectory_summary(traj) -> dict[str, float]:
    d = traj.diagnostics
    summary = {
        "steps": len(traj.times) - 1,
        "final_mass": float(d.mass[-1]),
        "final_F": float(d.F[-1]),
    }
    if not np.isnan(d.S[-1]):
        summary["final_S"] = float(d.S[-1])
    if traj.fp_iteration_counts:  # implicit runs: fixed-point sweeps per step
        summary["fp_sweeps_mean"] = sum(traj.fp_iteration_counts) / len(traj.fp_iteration_counts)
        summary["fp_sweeps_max"] = max(traj.fp_iteration_counts)
    return summary


def _trajectory_verdicts(traj) -> dict[str, bool]:
    # no positivity verdict: the sweep kernel rejects every step that would lose it
    return {"mass_bound": bool(np.all(traj.diagnostics.mass <= traj.constants.M_tilde + 1e-9))}


def _esd_summary(esd) -> dict[str, float]:
    return {
        "kkt_residual": esd.kkt_residual,
        "persistence_count": len(esd.persistence_set),
        "H_at_min": esd.H_at_min,
        "iterations": esd.iterations,
        "f_unique": esd.f_unique,
    }


def _write_report(out: Path, name: str, verdicts: dict[str, bool],
                  constants: DerivedConstants | None = None, **blocks: dict[str, object]) -> int:
    """Write out/report.json, print the verdicts and return the exit status.

    The keys are flat: scenario_name, constants.<field> for each field of
    constants, <block>.<key> for each named block (trajectory, esd,
    comparison, analysis) and verdicts.<name>. Non-finite floats are
    written as their repr ("inf") so the file stays strict JSON.
    The status is 0 when every verdict passes, else 1.
    """
    if constants is not None:
        blocks["constants"] = asdict(constants)
    flat: dict[str, object] = {"scenario_name": name}
    for prefix, block in {**blocks, "verdicts": verdicts}.items():
        for key, value in block.items():
            if isinstance(value, float) and not math.isfinite(value):
                value = repr(value)
            flat[f"{prefix}.{key}"] = value
    (out / "report.json").write_text(json.dumps(flat, sort_keys=True, indent=2) + "\n",
                                     encoding="utf-8")
    for key, ok in verdicts.items():
        print(f"{key}: {'pass' if ok else 'FAIL'}")
    return 0 if all(verdicts.values()) else 1


def cmd_simulate(args) -> int:
    from . import csvio
    from .integrator import simulate
    from .scenarios import build_params

    name, spec = _load_spec(args)
    out = _out_dir(args)
    params, state0 = build_params(spec)
    traj = simulate(params, state0, spec.T_final, _step_config(spec))
    csvio.write_csv(out / "trajectory.csv", csvio.trajectory_table(traj))
    return _write_report(out, name, _trajectory_verdicts(traj), traj.constants,
                         trajectory=_trajectory_summary(traj))


def cmd_esd(args) -> int:
    from . import csvio
    from .esd import solve_esd, verify_esd
    from .model import validate_params
    from .scenarios import build_params, trait_grid
    from .steady import persistence_sum

    name, spec = _load_spec(args)
    out = _out_dir(args)
    params, state0 = build_params(spec)
    constants = validate_params(params, state0)
    esd = solve_esd(params, tol=_ESD_SOLVER_TOL)
    check = verify_esd(params, esd.f_tilde, esd.R_tilde, tol=10 * _ESD_SOLVER_TOL)
    # restart from min(N, 4) random traits; stdlib random spares numpy.random's 5.8 MB
    rng = random.Random(args.seed)
    f_init = np.zeros(params.N)
    for j in rng.sample(range(params.N), min(params.N, 4)):
        f_init[j] = rng.uniform(0.0, 2.0 / params.h)
    restart = solve_esd(params, f_init=f_init, tol=_ESD_SOLVER_TOL)
    verdicts = {
        "esd_certified": check.is_esd,
        "persistence_sum": persistence_sum(esd, params) >= -1e-8,
        "restart_agreement": bool(
            np.max(np.abs(restart.f_tilde - esd.f_tilde)) <= 1e-6
        ),
    }
    csvio.write_csv(out / "esd.csv", csvio.esd_table(trait_grid(spec), esd))
    print(f"kkt residual: {esd.kkt_residual:.3e}")
    print(f"persistence set: {list(esd.persistence_set)}")
    return _write_report(out, name, verdicts, constants, esd=_esd_summary(esd))


def cmd_verify(args) -> int:
    from . import csvio, svgplot
    from .esd import solve_esd
    from .integrator import Scheme, entropy_trace, simulate
    from .model import State
    from .scenarios import build_params, trait_grid
    from .steady import persistence_sum

    name, spec = _load_spec(args)
    out = _out_dir(args)
    params, state0 = build_params(spec)

    esd = solve_esd(params, tol=_ESD_SOLVER_TOL)
    reference = State(f=esd.f_tilde, R=esd.R_tilde)
    config = _step_config(spec)
    traj = simulate(params, state0, spec.T_final, config, reference=reference)

    final = traj.final_state
    # relative to the stable distribution's mass; for an extinction scenario
    # (zero mass) fall back to the initial mass
    f_scale = float(np.sum(np.abs(esd.f_tilde)))
    if f_scale == 0.0:
        f_scale = max(float(np.sum(np.abs(state0.f))), 1e-300)
    l1_f = float(np.sum(np.abs(final.f - esd.f_tilde))) / f_scale
    linf_r = float(np.max(np.abs(final.R - esd.R_tilde)))

    verdicts = {
        **_trajectory_verdicts(traj),
        "esd_convergence": l1_f <= args.tol and linf_r <= args.tol,
        "persistence_sum": persistence_sum(esd, params) >= -1e-8,
    }
    summary = _trajectory_summary(traj)
    max_violation = 0.0
    if config.scheme is Scheme.FULLY_IMPLICIT:
        undefined = np.flatnonzero(np.isnan(traj.diagnostics.S))
        if undefined.size:
            # extinct where the stable distribution lives: dissipation is unchecked
            summary["S_undefined_at_t"] = float(traj.times[undefined[0]])
            verdicts["entropy_monotone"] = False
        else:
            trace = entropy_trace(traj)
            excess = np.diff(traj.diagnostics.S) - trace.bounds
            max_violation = float(np.max(excess, initial=-np.inf))
            verdicts["entropy_monotone"] = len(trace.flagged_steps) == 0

    table = csvio.trajectory_table(traj)
    csvio.write_csv(out / "trajectory.csv", table)
    csvio.write_csv(out / "esd.csv", csvio.esd_table(trait_grid(spec), esd))
    (out / "profile.svg").write_text(svgplot.render(table, "profile"), encoding="utf-8")
    (out / "entropy.svg").write_text(svgplot.render(table, "entropy"), encoding="utf-8")
    return _write_report(
        out, name, verdicts, traj.constants,
        trajectory={**summary, "max_entropy_violation": max_violation},
        esd=_esd_summary(esd), comparison={"L1_distance_f": l1_f, "Linf_distance_R": linf_r},
    )


def cmd_analyze(args) -> int:
    from .scenarios import build_params
    from .steady import (
        dirac_weights, extinction_predicate, positive_steady_state_excluded, two_peak_steady_state,
    )

    name, spec = _load_spec(args)
    out = _out_dir(args)
    params, _state0 = build_params(spec)

    predicate = extinction_predicate(params)
    excluded = positive_steady_state_excluded(params)
    print(f"persistence outlook: {predicate.value}")
    print(f"positive steady state excluded: {excluded}")

    analysis: dict[str, object] = {
        "extinction_predicate": predicate.value,
        "positive_steady_state_excluded": excluded,
    }
    growing = [int(j) for j in np.flatnonzero(params.a > 0)]
    for j, rho in zip(growing, dirac_weights(params, growing).tolist()):
        analysis[f"dirac_rho_{j}"] = rho
        print(f"single-peak steady state at trait {j}: rho = {rho:.6g}")
    analysis["dirac_count"] = len(growing)
    if not growing:
        print("no traits with positive growth: no single-peak steady states")

    if len(growing) >= 2:
        i, l = sorted(growing, key=lambda j: params.a[j], reverse=True)[:2]
        try:
            tp = two_peak_steady_state(params, i, l)
        except (NotApplicable, NewtonFailed) as err:
            analysis["two_peak"] = f"failed: {err}"
        else:
            analysis["two_peak"] = ("absent (crossing condition fails)" if tp is None
                                    else f"rho1 = {tp.rho1!r}, rho2 = {tp.rho2!r}")
        print(f"two-peak steady state on traits ({i}, {l}): {analysis['two_peak']}")

    return _write_report(out, name, {}, analysis=analysis)


def cmd_plot(args) -> int:
    from . import csvio, svgplot

    svgplot.check_request(args.kind, args.log)
    # glibc mmaps a 1 MB buffer, and freeing it raises its mmap threshold to 1 MB and
    # its trim threshold to 2 MB (mallopt(3), M_MMAP_THRESHOLD). A wide block's
    # temporaries, about 1.7 MB at their peak and none over 250 KB, then stay in
    # the heap instead of being trimmed and faulted back in block after block.
    np.empty(1 << 20, np.uint8)
    try:
        with open(args.csv, encoding="utf-8") as fh:
            # every line is checked, but only the cells the kind draws are converted
            table = csvio.read_csv(fh, lambda header: svgplot.drawn(args.kind, header))
    except (OSError, UnicodeDecodeError) as err:
        raise RclabError(f"cannot read {args.csv}: {err}") from err
    svg = svgplot.render(table, args.kind, log_scale=args.log)
    Path(args.out_svg).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out_svg}")
    return 0


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and np.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def _add_scenario_args(p: argparse.ArgumentParser, with_overrides: bool = True) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="name of a built-in scenario")
    src.add_argument("--scenario", help="path to a scenario file")
    p.add_argument("--out", help="output directory (default: $RCLAB_OUT or .)")
    if with_overrides:
        p.add_argument("--T", type=float, help="override final time")
        p.add_argument("--dt", type=float, help="override time step")
        # no choices: ScenarioSpec refuses another name, naming the schemes
        p.add_argument("--scheme", help="override time-stepping scheme")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rclab",
        description="resource-competition dynamics: simulate, analyze, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a scenario and dump the trajectory")
    _add_scenario_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("esd", help="compute the stable distribution")
    _add_scenario_args(p)
    p.add_argument("--seed", type=int, default=0, help="seed for auxiliary draws")
    p.set_defaults(func=cmd_esd)

    p = sub.add_parser("verify", help="simulate, solve, and check all properties")
    _add_scenario_args(p)
    p.add_argument("--tol", type=_positive_float, default=1e-3,
                   help="convergence tolerance for the final-state comparison")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="threshold predicates and special steady states")
    _add_scenario_args(p, with_overrides=False)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("plot", help="render a CSV as a static SVG")
    p.add_argument("--csv", required=True, help="trajectory.csv or esd.csv")
    p.add_argument("--kind", required=True, help="profile | entropy | waterfall")
    p.add_argument("--out-svg", required=True, help="output SVG path")
    p.add_argument("--log", action="store_true", help="log scale for entropy plots")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():  # a shown warning is one line, without its source
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            return args.func(args)
    except (RclabError, OSError) as err:  # an OSError names its path
        step = getattr(err, "step_index", None)
        print(f"error: {'' if step is None else f'step {step}: '}{err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

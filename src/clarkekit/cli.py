"""Command-line interface wiring all toolkit capabilities.

Subcommands: design-check, transform, sample, traj, simulate, and demo
(the five-robot evaluation suite, composed here from the library's plans,
streams and runs).  The library writes no file; this module
writes every output, and each file-producing command also emits a manifest
with the config snapshot, seeds, design hashes, and output hashes,
sufficient to replay the run bit-exactly.

Exit codes: 0 ok, 2 parse/validation error, 3 degenerate design,
4 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import CONDITION_LIMIT, check_integer, check_positive, to_arc
from .designs import builtin_designs, design_report, design_to_dict, get_design
from .errors import (ClarkeError, DegenerateDesign, DimensionMismatch,
                     InvalidParameter, ParseError)
from .fileio import sha256_text, write_csv, write_json
from .retarget import (TRANSFER_MODES, PerturbedDesign, make_transfer_map, perturbation_analysis,
                       polar_clarke_grid)
from .sampling import sample_clarke_disk, sample_joints
from .simulate import (MODES, SimConfig, SimRun, _simulate, desired_stream, run_experiment,
                       surrogate_trajectory)
from .trajectory import (_BINDING_TOLERANCE, DEFAULT_A_MAX, DEFAULT_V_MAX, KinematicLimits,
                         PlannedTrajectory, _tick_count, evaluate, plan_trajectory)

OUT_DIR_ENV = "CLARKEKIT_OUT_DIR"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_RUNTIME = 4


def _design_hash(design) -> str:
    return sha256_text(json.dumps(design_to_dict(design), sort_keys=True))


class Manifest:
    """Collects outputs of one command and writes the replay manifest."""

    def __init__(self, command: str, args: dict, seeds: list, designs: list):
        self.data = {
            "tool": "clarkekit",
            "version": __version__,
            "command": command,
            "args": args,
            "seeds": seeds,
            "design_hashes": {d.name: _design_hash(d) for d in designs},
            "outputs": [],
        }

    def add(self, path, digest: str) -> None:
        """Record a written file under its name with the SHA-256 hex digest
        that the fileio writer returned for it."""
        self.data["outputs"].append({"name": Path(path).name, "sha256": digest})

    def write(self, path) -> None:
        self.data["outputs"].sort(key=lambda entry: entry["name"])
        write_json(path, self.data)


def cmd_design_check(args) -> int:
    design = get_design(args.design)
    report = design_report(design)
    degenerate = not report["gram_condition"] < CONDITION_LIMIT
    report["status"] = "degenerate" if degenerate else "ok"
    for key, value in report.items():
        print(f"{key}: {json.dumps(value) if not isinstance(value, str) else value}")
    if degenerate:
        raise DegenerateDesign(f"design {design.name!r} fails the Gram conditioning check")
    return EXIT_OK


def cmd_transform(args) -> int:
    design = get_design(args.design)
    # an overflow shows as a value that is not finite, rejected before anything prints
    with np.errstate(over="ignore", invalid="ignore"):
        if args.clarke is not None:
            clarke = np.asarray(args.clarke, dtype=float)
            joints = design.inverse(clarke)
            values = {"clarke_m": clarke, "joints_m": joints,
                      "joints_mm": [round(float(x) * 1000.0, 9) for x in joints]}
            label, roundtrip = "roundtrip_clarke_m", design.forward(joints)
        else:
            joints = np.asarray(args.joints, dtype=float)
            clarke = design.forward(joints)
            values = {"joints_m": joints, "clarke_m": clarke}
            label, roundtrip = "reprojected_joints_m", design.inverse(clarke)
        arc = to_arc(design, joints)
        values.update({"kappa_1pm": arc.kappa, "theta_rad": arc.theta,
                       "kappa_l": arc.kappa * design.l, label: roundtrip})
    if not all(np.isfinite(value).all() for value in values.values()):
        raise InvalidParameter("the transform of these values is not finite in float64")
    for key, value in values.items():
        text = json.dumps([float(x) for x in value]) if np.ndim(value) else repr(float(value))
        print(f"{key}: {text}")
    return EXIT_OK


def cmd_sample(args) -> int:
    design = get_design(args.design)
    clarke = sample_clarke_disk(args.seed, args.count, d_ref=float(np.min(design.d)))
    joints = clarke @ design.inverse_matrix.T
    out = Path(args.out)
    header = ["sample_idx", "rho_re_m", "rho_im_m"] + [f"rho_{i + 1}_m" for i in range(design.n)]
    digest = write_csv(out, header, [np.arange(args.count), *clarke.T, *joints.T])
    manifest = Manifest("sample", {"design": design.name, "count": args.count,
                                   "seed": args.seed}, [args.seed], [design])
    manifest.add(out, digest)
    manifest.write(out.with_name(out.name + ".manifest.json"))
    print(f"wrote {args.count} samples to {out}")
    return EXIT_OK


def _read_via_file(path, n: int) -> np.ndarray:
    try:
        rows = []
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            # a comma-separated cell that holds no number is an empty field, which float rejects
            rows.append([float(cell) for part in line.split(",") for cell in part.split() or [""]])
        # rows of unequal length do not form an array
        via = np.asarray(rows, dtype=float)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read via file {path}: {exc}") from exc
    if via.ndim != 2 or via.shape[0] < 2 or via.shape[1] != n:
        raise ParseError(f"via file must hold at least 2 rows of {n} joint values")
    return via


def _write_trajectory_csv(path, traj: PlannedTrajectory, dt: float) -> str:
    """Trajectory CSV on an exact dt grid: t_s, then rho/vel/acc per joint;
    returns the file's SHA-256 hex digest."""
    dt = check_positive(dt, "dt")
    times = np.arange(_tick_count(traj.horizon, dt)) * dt
    pos, vel, acc = evaluate(traj, times)
    header = ["t_s"] + [f"{name}_{i + 1}_{unit}" for i in range(traj.n)
                        for name, unit in (("rho", "m"), ("vel", "mps"), ("acc", "mps2"))]
    per_joint = [col[:, i] for i in range(traj.n) for col in (pos, vel, acc)]
    return write_csv(path, header, [times, *per_joint])


def cmd_traj(args) -> int:
    design = get_design(args.design)
    if args.via_file:
        via = _read_via_file(args.via_file, design.n)
    else:
        via = sample_joints(design, args.seed, check_integer(args.sample, "--sample", 1) + 1)
    limits = KinematicLimits(v_max=args.vmax, a_max=args.amax,
                             dec_max=args.decmax if args.decmax is not None else args.amax)
    traj = plan_trajectory(via, limits, args.overlap)
    out = Path(args.out)
    digest = _write_trajectory_csv(out, traj, args.dt)
    manifest = Manifest("traj", {"design": design.name, "segments": traj.segment_count,
                                 "seed": args.seed, "vmax": args.vmax, "amax": args.amax,
                                 "decmax": limits.dec_max, "overlap": args.overlap,
                                 "dt": args.dt, "via_file": bool(args.via_file)},
                        [args.seed], [design])
    manifest.add(out, digest)
    manifest.write(out.with_name(out.name + ".manifest.json"))
    print(f"planned {traj.segment_count} segments, horizon {traj.horizon:.3f} s, "
          f"dilation {traj.dilation:.6g}; wrote {out}")
    return EXIT_OK


def _write_run(out_dir: Path, stem: str, sim: SimRun, manifest: Manifest,
               formatted: dict | None = None) -> Path:
    """Write one run's per-tick CSV (t_s, rho_d_1..n, rho_meas_1..n,
    rho_cmd_1..n, rho_true_1..n) and metrics JSON and add both to the
    manifest; returns the metrics path.  `formatted` is the column cache of
    `fileio.write_csv`."""
    csv_path = out_dir / f"{stem}.csv"
    metrics_path = out_dir / f"{stem}_metrics.json"
    labels = ("rho_d", "rho_meas", "rho_cmd", "rho_true")
    header = ["t_s"] + [f"{label}_{i + 1}" for label in labels for i in range(sim.design.n)]
    columns = [sim.t, *sim.desired.T, *sim.measured.T, *sim.commanded.T, *sim.true.T]
    manifest.add(csv_path, write_csv(csv_path, header, columns, formatted))
    manifest.add(metrics_path, write_json(metrics_path, sim.metrics()))
    return metrics_path


def cmd_simulate(args) -> int:
    surrogate = get_design(args.surrogate)
    target = get_design(args.target)
    out_dir = Path(args.out_dir)
    sim = run_experiment(surrogate, target, args.seed, args.transfer)[args.mode]
    stem = f"{target.name}_{args.mode}_{args.transfer}"
    manifest = Manifest("simulate", {"surrogate": surrogate.name, "target": target.name,
                                     "mode": args.mode, "transfer": args.transfer,
                                     "seed": args.seed}, [args.seed], [surrogate, target])
    metrics_path = _write_run(out_dir, stem, sim, manifest)
    manifest.write(out_dir / f"{stem}.manifest.json")
    print(f"simulated {target.name} ({args.mode}, {args.transfer} transfer); "
          f"metrics in {metrics_path}")
    return EXIT_OK


def _solve_demo_target(runs: list, surrogate, name: str, target, trajectory: PlannedTrajectory,
                       config: SimConfig) -> dict:
    """Solve one target of the demo and return its summary entry.  Its runs, which share
    columns and so one column cache, go to `runs` as (stem, run, cache), held nowhere else."""
    entry, formatted = design_report(target), {}
    transfer = make_transfer_map(surrogate, target, "general")
    positions, peak_speed = desired_stream(trajectory, transfer)
    entry.update(max_desired_velocity_mps=peak_speed, velocity_limit_mps=DEFAULT_V_MAX,
                 velocity_limit_respected=peak_speed <= DEFAULT_V_MAX * (1 + _BINDING_TOLERANCE))
    solved = _simulate(positions, target, config, transfer.mode)
    for mode, sim in solved.items():
        runs.append((f"{name}_{mode}", sim, formatted))
        entry[f"rms_latent_{mode}"] = sim.rms_latent()
    rms_comp = solved["closed_loop"].rms_per_joint()
    entry["rms_per_joint_closed_loop_m"] = rms_comp.tolist()
    sym_transfer = make_transfer_map(surrogate, target, "symmetric")
    sym_positions = desired_stream(trajectory, sym_transfer)[0]
    shared = min(sym_positions.shape[0], positions.shape[0])
    deviation = float(np.max(np.abs(sym_positions[:shared] - positions[:shared])))
    entry.update(transfer_mode_deviation_m=deviation, transfer_modes_equivalent=bool(
        deviation < 1e-12 and sym_positions.shape == positions.shape))
    if not entry["transfer_modes_equivalent"]:
        uncomp = _simulate(sym_positions, target, config, sym_transfer.mode)["closed_loop"]
        runs.append((f"{name}_closed_loop_uncompensated", uncomp, formatted))
        rms_uncomp = float(np.mean(uncomp.rms_per_joint()))
        entry["rms_mean_closed_loop_uncompensated_m"] = rms_uncomp
        entry["degraded_without_compensation"] = bool(rms_uncomp > float(np.mean(rms_comp)))
    return entry


def cmd_demo(args) -> int:
    """Five-robot evaluation from one plan of robot_0: every mode of each target's stream, the
    uncompensated closed loop where the transfer modes differ, and a joint-location offset of
    robot_0 over a polar latent grid.  Every run is solved, then each is written and dropped."""
    out_dir = Path(args.out_dir)
    designs = builtin_designs()
    surrogate = designs["robot_0"]
    trajectory = surrogate_trajectory(surrogate, args.seed)
    config = SimConfig(seed=args.seed)
    runs: list[tuple[str, SimRun, dict]] = []
    summary = {"seed": args.seed, "surrogate": "robot_0", "robots": {
        name: _solve_demo_target(runs, surrogate, name, target, trajectory, config)
        for name, target in designs.items()}}
    manifest = Manifest("demo", {"seed": args.seed}, [args.seed], designs.values())
    while runs:  # a written run is dropped to free its arrays
        stem, sim, formatted = runs.pop(0)
        _write_run(out_dir, stem, sim, manifest, formatted)
    psi_offset = np.array([0.05, -0.03, 0.02])
    d_offset_mm = np.array([0.5, -0.3, 0.2])
    perturbed = PerturbedDesign(nominal=surrogate, true_psi=surrogate.psi + psi_offset,
                                true_d=surrogate.d + d_offset_mm / 1000.0)
    records = perturbation_analysis(
        perturbed, polar_clarke_grid(float(np.min(surrogate.d)), radii=5, angles=16))
    summary["perturbation"] = {
        "robot": "robot_0", "psi_offset_rad": psi_offset.tolist(),
        "d_offset_mm": d_offset_mm.tolist(), "grid_points": len(records),
        "max_abs_dkappa_l": float(np.max(np.abs(records.dkappa_l))),
        "max_abs_dtheta_rad": float(np.max(np.abs(records.dtheta)))}
    pert_path = out_dir / "perturbation_robot_0.csv"
    # the record fields are in the CSV's column order
    manifest.add(pert_path, write_csv(
        pert_path, ["rho_re_m", "rho_im_m", "kappa_cmd_1pm", "theta_cmd_rad", "kappa_real_1pm",
                    "theta_real_rad", "dkappa_l", "dtheta_rad"],
        [*records.clarke.T, *(records[field] for field in records.dtype.names[1:])]))
    summary_path = out_dir / "summary.json"
    manifest.add(summary_path, write_json(summary_path, summary))
    manifest.write(out_dir / "manifest.json")
    print(f"demo artifacts written to {out_dir} "
          f"({len(manifest.data['outputs']) + 1} files)")
    return EXIT_OK


def _seed(text: str) -> int:
    """argparse type for --seed: numpy accepts only non-negative integer seeds."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clarkekit",
        description="Clarke-transform toolkit for displacement-actuated continuum robots")
    parser.add_argument("--version", action="version", version=f"clarkekit {__version__}")
    out_dir = os.environ.get(OUT_DIR_ENV, ".")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("design-check", help="validate a design file or builtin design")
    check.add_argument("design", help="builtin name (robot_0..robot_D) or JSON file path")
    check.set_defaults(handler=cmd_design_check)

    transform = sub.add_parser("transform", help="convert between joints, Clarke pair, and arc")
    transform.add_argument("design")
    group = transform.add_mutually_exclusive_group(required=True)
    group.add_argument("--clarke", nargs=2, type=float, metavar=("RE", "IM"),
                       help="Clarke pair in meters")
    group.add_argument("--joints", nargs="+", type=float, metavar="RHO",
                       help="joint displacements in meters")
    transform.set_defaults(handler=cmd_transform)

    sample = sub.add_parser("sample", help="draw feasible joint values (rejection-free)")
    sample.add_argument("design")
    sample.add_argument("--count", type=int, default=1000)
    sample.add_argument("--seed", type=_seed, default=42)
    sample.add_argument("--out", default="samples.csv")
    sample.set_defaults(handler=cmd_sample)

    traj = sub.add_parser("traj", help="plan a blended C4-smooth joint trajectory")
    traj.add_argument("design")
    source = traj.add_mutually_exclusive_group()
    source.add_argument("--via-file", help="text file with one joint row per via point")
    source.add_argument("--sample", type=int, default=5, metavar="M",
                        help="sample M+1 via points instead (default M=5)")
    traj.add_argument("--seed", type=_seed, default=42)
    traj.add_argument("--vmax", type=float, default=DEFAULT_V_MAX)
    traj.add_argument("--amax", type=float, default=DEFAULT_A_MAX)
    traj.add_argument("--decmax", type=float, default=None,
                      help="set-down deceleration bound (defaults to --amax)")
    traj.add_argument("--overlap", type=float, default=0.5)
    traj.add_argument("--dt", type=float, default=1e-3)
    traj.add_argument("--out", default="trajectory.csv")
    traj.set_defaults(handler=cmd_traj)

    simulate = sub.add_parser("simulate", help="run the control simulation for one design pair")
    simulate.add_argument("surrogate")
    simulate.add_argument("target")
    simulate.add_argument("--mode", choices=MODES, default="closed_loop")
    simulate.add_argument("--transfer", choices=TRANSFER_MODES, default="general")
    simulate.add_argument("--seed", type=_seed, default=42)
    simulate.add_argument("--out-dir", default=out_dir)
    simulate.set_defaults(handler=cmd_simulate)

    demo = sub.add_parser("demo", help="run the full five-robot evaluation suite")
    demo.add_argument("--out-dir", default=out_dir)
    demo.add_argument("--seed", type=_seed, default=42)
    demo.set_defaults(handler=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DegenerateDesign as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ParseError, InvalidParameter, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ClarkeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

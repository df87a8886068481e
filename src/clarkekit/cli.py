"""Command-line interface wiring all toolkit capabilities.

Subcommands: design-check, transform, sample, traj, simulate, and demo
(the five-robot evaluation suite).  Every file-producing command also
emits a manifest with the config snapshot, seeds, design hashes, and
output hashes, sufficient to replay the run bit-exactly.

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
from .core import CONDITION_LIMIT, to_arc, transform_pair
from .designs import design_report, design_to_dict, get_design
from .errors import (ClarkeError, DegenerateDesign, DimensionMismatch,
                     InvalidParameter, OutOfRange, ParseError)
from .fileio import sha256_file, sha256_text, write_csv, write_json
from .sampling import sample_clarke_disk, sample_joints, write_samples_csv
from .simulate import MODES, SimRun, evaluate_suite, run_experiment
from .trajectory import (DEFAULT_A_MAX, DEFAULT_V_MAX, KinematicLimits,
                         plan_trajectory, write_trajectory_csv)

OUT_DIR_ENV = "CLARKEKIT_OUT_DIR"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_RUNTIME = 4


def _default_out_dir() -> str:
    return os.environ.get(OUT_DIR_ENV, ".")


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

    def add(self, path) -> None:
        self.data["outputs"].append({"name": Path(path).name, "sha256": sha256_file(path)})

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
    pair = transform_pair(design)
    if args.clarke is not None:
        clarke = np.asarray(args.clarke, dtype=float)
        joints = pair.inverse(clarke)
        arc = to_arc(design, joints)
        print(f"clarke_m: [{float(clarke[0])!r}, {float(clarke[1])!r}]")
        print("joints_m:", json.dumps([float(x) for x in joints]))
        print("joints_mm:", json.dumps([round(float(x) * 1000.0, 9) for x in joints]))
    else:
        joints = np.asarray(args.joints, dtype=float)
        clarke = pair.forward(joints)
        arc = to_arc(design, joints)
        print("joints_m:", json.dumps([float(x) for x in joints]))
        print(f"clarke_m: [{float(clarke[0])!r}, {float(clarke[1])!r}]")
    print(f"kappa_1pm: {float(arc.kappa)!r}")
    print(f"theta_rad: {float(arc.theta)!r}")
    print(f"kappa_l: {float(arc.kappa * design.l)!r}")
    roundtrip = pair.forward(pair.inverse(clarke)) if args.clarke is not None else pair.inverse(clarke)
    label = "roundtrip_clarke_m" if args.clarke is not None else "reprojected_joints_m"
    print(f"{label}:", json.dumps([float(x) for x in roundtrip]))
    return EXIT_OK


def cmd_sample(args) -> int:
    design = get_design(args.design)
    batch = sample_clarke_disk(args.seed, args.count, d_ref=float(np.min(design.d)))
    joints = batch.clarke @ transform_pair(design).inverse_matrix.T
    out = Path(args.out)
    write_samples_csv(out, batch, joints)
    manifest = Manifest("sample", {"design": design.name, "count": args.count,
                                   "seed": args.seed}, [args.seed], [design])
    manifest.add(out)
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
            rows.append([float(cell) for cell in line.replace(",", " ").split()])
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read via file {path}: {exc}") from exc
    via = np.asarray(rows, dtype=float)
    if via.ndim != 2 or via.shape[0] < 2 or via.shape[1] != n:
        raise ParseError(f"via file must hold at least 2 rows of {n} joint values")
    return via


def cmd_traj(args) -> int:
    design = get_design(args.design)
    if args.via_file:
        via = _read_via_file(args.via_file, design.n)
    else:
        via = sample_joints(design, args.seed, args.sample + 1)
    limits = KinematicLimits(v_max=args.vmax, a_max=args.amax,
                             dec_max=args.decmax if args.decmax is not None else args.amax)
    traj = plan_trajectory(via, limits, args.overlap)
    out = Path(args.out)
    write_trajectory_csv(out, traj, args.dt)
    manifest = Manifest("traj", {"design": design.name, "segments": traj.segment_count,
                                 "seed": args.seed, "vmax": args.vmax, "amax": args.amax,
                                 "decmax": limits.dec_max, "overlap": args.overlap,
                                 "dt": args.dt, "via_file": bool(args.via_file)},
                        [args.seed], [design])
    manifest.add(out)
    manifest.write(out.with_name(out.name + ".manifest.json"))
    print(f"planned {traj.segment_count} segments, horizon {traj.horizon:.3f} s, "
          f"dilation {traj.dilation:.6g}; wrote {out}")
    return EXIT_OK


def _write_run(out_dir: Path, stem: str, sim: SimRun, manifest: Manifest) -> Path:
    """Write one run's per-tick CSV and metrics JSON and add both to the
    manifest; returns the metrics path."""
    csv_path = out_dir / f"{stem}.csv"
    metrics_path = out_dir / f"{stem}_metrics.json"
    sim.write_csv(csv_path)
    write_json(metrics_path, sim.metrics())
    manifest.add(csv_path)
    manifest.add(metrics_path)
    return metrics_path


def cmd_simulate(args) -> int:
    surrogate = get_design(args.surrogate)
    target = get_design(args.target)
    out_dir = Path(args.out_dir)
    sim = run_experiment(surrogate, target, args.seed, args.transfer,
                         modes=(args.mode,))[args.mode]
    stem = f"{target.name}_{args.mode}_{args.transfer}"
    manifest = Manifest("simulate", {"surrogate": surrogate.name, "target": target.name,
                                     "mode": args.mode, "transfer": args.transfer,
                                     "seed": args.seed}, [args.seed], [surrogate, target])
    metrics_path = _write_run(out_dir, stem, sim, manifest)
    manifest.write(out_dir / f"{stem}.manifest.json")
    print(f"simulated {target.name} ({args.mode}, {args.transfer} transfer); "
          f"metrics in {metrics_path}")
    return EXIT_OK


def cmd_demo(args) -> int:
    """Five-robot evaluation (simulate.evaluate_suite): writes every run, the
    surrogate's joint-location uncertainty grid, the summary and the manifest."""
    out_dir = Path(args.out_dir)
    runs, records, summary = evaluate_suite(args.seed)
    manifest = Manifest("demo", {"seed": args.seed}, [args.seed],
                        [sim.design for sim in runs.values()])
    for stem, sim in runs.items():
        _write_run(out_dir, stem, sim, manifest)
    rows = [[r.clarke[0], r.clarke[1], r.commanded.kappa, r.commanded.theta,
             r.realized.kappa, r.realized.theta, r.dkappa_l, r.dtheta]
            for r in records]
    pert_path = out_dir / "perturbation_robot_0.csv"
    write_csv(pert_path, ["rho_re_m", "rho_im_m", "kappa_cmd_1pm", "theta_cmd_rad",
                          "kappa_real_1pm", "theta_real_rad", "dkappa_l", "dtheta_rad"], rows)
    manifest.add(pert_path)
    summary_path = out_dir / "summary.json"
    write_json(summary_path, summary)
    manifest.add(summary_path)
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
    simulate.add_argument("--transfer", choices=("symmetric", "general"), default="general")
    simulate.add_argument("--seed", type=_seed, default=42)
    simulate.add_argument("--out-dir", default=None)
    simulate.set_defaults(handler=cmd_simulate)

    demo = sub.add_parser("demo", help="run the full five-robot evaluation suite")
    demo.add_argument("--out-dir", default=None)
    demo.add_argument("--seed", type=_seed, default=42)
    demo.set_defaults(handler=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "out_dir") and args.out_dir is None:
        args.out_dir = _default_out_dir()
    try:
        return args.handler(args)
    except DegenerateDesign as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ParseError, InvalidParameter, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ClarkeError, OutOfRange, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

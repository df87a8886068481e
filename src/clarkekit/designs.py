"""Built-in robot designs and design-file I/O.

Design files are JSON objects with millimeter distances:

    {"name": str, "n": int, "psi_rad": [...], "d_mm": [...], "l_m": float}

The loader converts millimeters to meters and validates the design.  The
built-in registry carries the five evaluation robots used throughout the
demos: a three-joint symmetric surrogate (robot_0), a four-joint symmetric
design (robot_A), and three designs with non-constant distances, one of
them (robot_D) with asymmetric joint angles.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import TWO_PI, RobotDesign, check_integer, check_real, float_array, gram_condition
from .errors import InvalidParameter, ParseError

__all__ = ["builtin_designs", "design_report", "design_to_dict", "get_design", "load_design"]

_BUILTIN_TABLE = [
    ("robot_0", [0.0, 1.0 / 3.0, 2.0 / 3.0], [10.0, 10.0, 10.0], 0.1),
    ("robot_A", [0.0, 0.25, 0.5, 0.75], [10.0, 10.0, 10.0, 10.0], 0.1),
    ("robot_B", [0.0, 1.0 / 3.0, 2.0 / 3.0], [10.0, 7.0, 5.0], 0.1),
    ("robot_C", [0.0, 0.2, 0.4, 0.6, 0.8], [10.0, 8.7, 5.0, 9.5, 6.5], 0.1),
    ("robot_D", [0.05, 0.18, 0.51, 0.63, 0.76, 0.87, 0.91],
     [10.0, 1.0, 8.7, 5.0, 5.6, 9.5, 6.5], 0.1),
]


def builtin_designs() -> dict[str, RobotDesign]:
    """The five evaluation robots, keyed by name."""
    return {
        name: RobotDesign(name=name,
                          psi=TWO_PI * np.asarray(turns),
                          d=np.asarray(d_mm) / 1000.0,
                          l=l)
        for name, turns, d_mm, l in _BUILTIN_TABLE
    }


def get_design(name_or_path: str) -> RobotDesign:
    """Resolve a builtin design name or load a design file."""
    registry = builtin_designs()
    if name_or_path in registry:
        return registry[name_or_path]
    return load_design(name_or_path)


def design_to_dict(design: RobotDesign) -> dict:
    """Design-file representation of a design (distances in millimeters)."""
    return {
        "name": design.name,
        "n": design.n,
        "psi_rad": [float(p) for p in design.psi],
        "d_mm": [float(di) * 1000.0 for di in design.d],
        "l_m": design.l,
    }


def load_design(path) -> RobotDesign:
    """Load and validate a JSON design file."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read design file {path}: {exc}") from exc
    return design_from_dict(raw, source=str(path))


def design_from_dict(raw: dict, source: str = "<dict>") -> RobotDesign:
    if not isinstance(raw, dict):
        raise ParseError(f"{source}: design file must hold a JSON object")
    missing = {"name", "n", "psi_rad", "d_mm", "l_m"} - raw.keys()
    if missing:
        raise ParseError(f"{source}: missing fields {sorted(missing)}")
    try:
        # the schema's n is a JSON integer, so neither 3.0 nor "3" is a joint count
        n = check_integer(raw["n"], "n", 3)
        psi = float_array(raw["psi_rad"], "psi_rad")
        d_mm = float_array(raw["d_mm"], "d_mm")
        length = check_real(raw["l_m"], "l_m")
        if psi.ndim != 1 or d_mm.ndim != 1 or psi.size != n or d_mm.size != n:
            raise InvalidParameter(f"psi_rad and d_mm must each hold n = {n} values")
        return RobotDesign(name=str(raw["name"]), psi=psi, d=d_mm / 1000.0, l=length)
    except InvalidParameter as exc:
        raise ParseError(f"{source}: {exc}") from exc


def design_report(design: RobotDesign) -> dict:
    """Validation summary: parameters, layout flags, and Gram conditioning."""
    report = design_to_dict(design)
    report["asymmetric_psi"] = not design.is_symmetric()
    report["non_constant_d"] = not design.has_constant_d()
    report["gram_condition"] = gram_condition(design)
    return report

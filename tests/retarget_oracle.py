"""Per-point perturbation analysis, kept as the oracle for the batched
`retarget.perturbation_analysis`.

Each Clarke grid point goes through three scalar calls: decode with the
nominal pair and encode the commanded arc, rebuild the commanded joints,
encode the arc they realize on the true design.  The values are returned as
plain columns, keyed by the batched table's field names.
"""

import numpy as np

from clarkekit import (
    ArcParameters,
    from_arc,
    to_arc,
    transform_pair,
    wrap_angle,
)


def perturbation_analysis(perturbed, clarke_grid):
    nominal = perturbed.nominal
    true = perturbed.true_design()
    pair = transform_pair(nominal)
    points = np.atleast_2d(np.asarray(clarke_grid, dtype=float))
    rows = []
    for point in points:
        commanded = to_arc(nominal, pair.inverse(point))
        joints = from_arc(nominal, commanded)
        realized = to_arc(true, joints)
        rows.append((commanded.kappa, commanded.theta, realized.kappa, realized.theta,
                     (realized.kappa - commanded.kappa) * nominal.l,
                     _angle_deviation(commanded, realized)))
    names = ("kappa_cmd", "theta_cmd", "kappa_real", "theta_real", "dkappa_l", "dtheta")
    columns = np.array(rows, dtype=float).reshape(-1, len(names)).T
    return {"clarke": points, **dict(zip(names, columns))}


def _angle_deviation(commanded: ArcParameters, realized: ArcParameters) -> float:
    if commanded.kappa == 0.0 and realized.kappa == 0.0:
        return 0.0
    return wrap_angle(realized.theta - commanded.theta)

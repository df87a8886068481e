"""Per-point perturbation analysis, kept as the oracle for the batched
`retarget.perturbation_analysis`.

Each Clarke grid point goes through three scalar calls: decode with the
nominal pair and encode the commanded arc, rebuild the commanded joints,
encode the arc they realize on the true design.
"""

import numpy as np

from clarkekit import (
    ArcParameters,
    PerturbationRecord,
    from_arc,
    to_arc,
    transform_pair,
    wrap_angle,
)


def perturbation_analysis(perturbed, clarke_grid):
    nominal = perturbed.nominal
    true = perturbed.true_design()
    pair = transform_pair(nominal)
    records = []
    for point in np.atleast_2d(np.asarray(clarke_grid, dtype=float)):
        commanded = to_arc(nominal, pair.inverse(point))
        joints = from_arc(nominal, commanded)
        realized = to_arc(true, joints)
        records.append(PerturbationRecord(
            clarke=point,
            commanded=commanded,
            realized=realized,
            dkappa_l=(realized.kappa - commanded.kappa) * nominal.l,
            dtheta=_angle_deviation(commanded, realized),
        ))
    return records


def _angle_deviation(commanded: ArcParameters, realized: ArcParameters) -> float:
    if commanded.kappa == 0.0 and realized.kappa == 0.0:
        return 0.0
    return wrap_angle(realized.theta - commanded.theta)

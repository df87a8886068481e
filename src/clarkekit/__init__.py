"""Clarke-transform toolkit for displacement-actuated continuum robots.

Builds the generalized Clarke transform for arbitrary joint counts and
joint locations and uses it to retarget joint values between robot
designs, sample feasible configurations, plan C4-smooth joint
trajectories, and simulate closed-loop PD control of noisy first-order
actuators.
"""

__version__ = "0.1.0"

from . import core, designs, errors, retarget, sampling, simulate, trajectory
from .core import *
from .designs import *
from .errors import *
from .retarget import *
from .sampling import *
from .simulate import *
from .trajectory import *

__all__ = []
__all__ += core.__all__
__all__ += designs.__all__
__all__ += errors.__all__
__all__ += retarget.__all__
__all__ += sampling.__all__
__all__ += simulate.__all__
__all__ += trajectory.__all__

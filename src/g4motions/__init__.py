"""g4motions: spacetimes with simply transitive four-parameter motion groups,
their admissible electromagnetic potentials, and the verification suite for
the motion-integral algebra of charged test particles."""

__version__ = "0.1.0"

from .adiff import DomainError, FieldExpr, coords  # noqa: F401
from .catalog import (  # noqa: F401
    GroupId,
    GroupModel,
    GroupParams,
    InvalidParams,
    SampleDomain,
    get_group,
    sample_points,
)
from .checks import CheckResult, ToleranceConfig, verify_group  # noqa: F401
from .geometry import SampleCloud, SingularMetric  # noqa: F401
from .mechanics import PhasePoint, Trajectory, drift_report, integrate_trajectory  # noqa: F401

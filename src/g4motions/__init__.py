"""g4motions: spacetimes with simply transitive four-parameter motion groups,
their admissible electromagnetic potentials, and the verification suite for
the motion-integral algebra of charged test particles."""

__version__ = "0.1.0"

from .adiff import (  # noqa: F401
    DomainError,
    FieldExpr,
    Jet1,
    coords,
    eval_jet,
    finite_diff_gradient,
)
from .catalog import (  # noqa: F401
    ClosureFailed,
    GroupId,
    GroupModel,
    GroupParams,
    InvalidParams,
    SampleDomain,
    all_groups,
    get_group,
    potential,
    potential_from_tetrad,
    sample_points,
)
from .checks import CheckResult, ToleranceConfig, run_group_checks  # noqa: F401
from .geometry import (  # noqa: F401
    FaradayAt,
    FrameMetricAt,
    MetricAt,
    SampleCloud,
    SingularMetric,
    faraday_at,
    frame_metric_at,
    metric_at,
)
from .mechanics import (  # noqa: F401
    PhasePoint,
    Trajectory,
    drift_report,
    hamiltonian,
    integrate_trajectory,
    motion_integral,
)

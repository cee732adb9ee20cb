"""Multiqubit entanglement dynamics under local non-Markovian noise.

Builds GHZ / W / Dicke states, evolves them under time-local dephasing and
Pauli master equations with time-dependent rates, quantifies entanglement by
logarithmic negativity across bipartitions, and post-processes trajectories
(saturation, collapse-revival, scaling fits, divisibility of the channel).
"""

from .analysis import (
    FitResult,
    RevivalEvent,
    RevivalReport,
    SaturationReport,
    detect_revival,
    detect_saturation,
    extrapolate,
    fit_exp_decay_shift,
    fit_reciprocal_exp,
    vanishing_crossing,
)
from .dynamics import (
    DEPHASING,
    PAULI,
    IntegratorOptions,
    NoiseSpec,
    Trajectory,
    analytic_state_at,
    evolve,
    oracle_deviation,
)
from .entanglement import (
    Bipartition,
    highest_cut,
    log_negativity,
    one_vs_rest,
    parse_cut_label,
    partial_transpose,
)
from .errors import IntegrationError
from .rates import (
    ConstantRate,
    DivisibilityClass,
    DivisibilityVerdict,
    OhmicZeroTempRate,
    SinusoidalRate,
    classify_divisibility,
)
from .states import (
    DensityMatrix,
    PureState,
    density_from_pure,
    dicke_state,
    ghz_state,
    w_state,
)

__version__ = "0.1.0"

"""Simulation and analysis toolkit for impulsive semiflows.

A continuous flow, a codimension-one impulsive set, and an impulse map
generate a discontinuous semiflow.  This package constructs its trajectories
by event-detected adaptive integration, verifies the transversality and
separation hypotheses that guarantee invariant measures exist, estimates
occupation measures, estimates growth-rate entropy from separated sets, and
realizes the identification quotient with its min-over-representatives
distance.
"""

__version__ = "0.1.0"

# numpy would load these lazily inside the first experiment call; load them at import
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .flow_core import (
    IntegratorConfig,
    VectorFieldSpec,
    eval_vector_field,
    flow,
    level_gradient,
    level_value,
)
from .impulsive_system import (
    ImpulseMapSpec,
    ImpulsiveSetSpec,
    ImpulsiveTrajectory,
    SystemSpec,
    TrajectoryBatch,
    apply_impulse,
    first_hitting_time,
    impulse_preimages,
    impulsive_trajectory,
    impulsive_trajectory_batch,
    psi,
    psi_batch,
)
from .systems import build_fixture, candidate_cloud, fixture_names, sample_impulsive_set
from .hypotheses import (
    hitting_continuity_probe,
    separation_report,
    transversality_margin,
)
from .measures import (
    GridPartition,
    OccupationMeasure,
    birkhoff_average,
    occupation_measure,
    pushforward_discrepancy,
)
from .entropy import (
    EntropyConfig,
    admissibility_check,
    entropy_estimate,
    exhaustive_max_separated,
    gap_set,
    in_dynamical_ball,
    max_separated_set,
)
from .quotient import (
    EquivalenceClass,
    equivalence_class,
    metric_axiom_audit,
    quotient_distance,
    representative_pair,
)

__all__ = [name for name in dir() if not name.startswith("_")]

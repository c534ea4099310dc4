"""Multi-satellite cooperative downlink simulator.

Library and command line tool for studying hybrid (analog + digital)
beamforming and user scheduling in LEO constellations that serve ground
users cooperatively on a shared band.
"""

__version__ = "0.1.0"

from .beamforming import analog_beamform, regularized_zf
from .channel import (ArrayConfig, ChannelConfig, LinkInvalidError, RfConfig,
                      small_scale, vsat_gain_dbi)
from .config import (ConfigError, EpochGrid, ScenarioConfig, bundled_cities,
                     config_digest, load_config)
from .geometry import (ConstellationConfig, GroundUser, LinkGeometry,
                       SatelliteState, VisibilitySets, link_geometry,
                       propagate, visibility)
from .harness import RunReport, build_epoch_instance, emit, run
from .metrics import (DensityClass, ExperimentResult, NonFiniteSinrError,
                      UserMetrics, density_classes, user_metrics)
from .network import EpochInstance
from .scheduling import (ScheduleResult, SchemeMode, exhaustive_schedule,
                         greedy_schedule)

__all__ = [
    "__version__",
    # geometry
    "ConstellationConfig", "GroundUser", "LinkGeometry", "SatelliteState",
    "VisibilitySets", "propagate", "link_geometry", "visibility",
    # channel
    "ArrayConfig", "ChannelConfig", "LinkInvalidError", "RfConfig",
    "small_scale", "vsat_gain_dbi",
    # beamforming
    "analog_beamform", "regularized_zf",
    # network / scheduling / metrics
    "EpochInstance", "ScheduleResult",
    "SchemeMode", "greedy_schedule", "exhaustive_schedule",
    "DensityClass", "ExperimentResult", "NonFiniteSinrError", "UserMetrics",
    "density_classes", "user_metrics",
    # harness / config
    "ConfigError", "EpochGrid", "ScenarioConfig", "RunReport",
    "bundled_cities", "config_digest", "load_config",
    "build_epoch_instance", "emit", "run",
]

"""Closed-form information divergences between Poisson point processes,
plus a GM-PHD tracking and sensor-control simulation harness built on them."""

__version__ = "0.1.0"

from .gaussmix import (
    Gaussian,
    GaussianMixture,
    HyperVolumeUnit,
    gauss_bhatt_coeff,
    gauss_eval,
    gauss_inner,
    load_mixture,
    mixture_eval,
    mixture_from_dict,
    mixture_inner,
    mixture_log_eval,
    mixture_mass,
    mixture_scale,
    mixture_to_dict,
    prune_merge,
    save_mixture,
)
from .divergence import (
    MixturePoissonModel,
    PoissonModel,
    bhatt_poisson_gaussian,
    csd_poisson_gm,
    csd_poisson_mixture,
    csd_poisson_quadrature,
    hellinger_sq_quadrature,
    intensity_grid,
)
from .pointprocess import (
    PointPattern,
    RngStream,
    mc_csd,
    mc_inner_product,
    poisson_log_density,
    sample_poisson,
    sample_poisson_counts,
)
from .metrics import OspaParams, optimal_assignment, ospa
from .gmphd import (
    BirthSpawnModel,
    DetectionProfile,
    DetectionTerm,
    MeasModel,
    MotionModel,
    SpawnTerm,
    extract_states,
    phd_predict,
    phd_update,
)
from .scenario import (
    ConfigError,
    ScenarioConfig,
    TruthState,
    TruthTarget,
    action_positions,
    config_from_dict,
    config_to_dict,
    detection_probability,
    detection_profile,
    generate_measurements,
    load_config,
    step_truth,
)
from .control import ActionEvaluation, ideal_measurements, reward, select_action
from .harness import (
    McSummary,
    RunRecord,
    StepRecord,
    run_montecarlo,
    run_simulation,
    write_mc_csv,
    write_run_csv,
)


def __getattr__(name):
    # The oracle battery is the package's largest module and only ``ppdiv
    # validate`` and its tests run it, so it is compiled on first use.
    if name == "validate_oracles":
        from .validate import validate_oracles

        return validate_oracles
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

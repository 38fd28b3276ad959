"""Connectivity of 1D free-flow vehicular networks under unit-disc and
Rayleigh-fading channels: closed forms, graph-ensemble simulation, CLI."""

from .analytic import (
    DivergentMeanError,
    avg_node_degree,
    avg_snr_rayleigh,
    avg_snr_ud,
    communication_range,
    p_network_ud,
    p_sl_rayleigh,
    p_sl_rayleigh_closed_alpha2,
    p_sl_ud_first,
    p_sl_ud_mth,
    p_vehicle_one_side_rayleigh,
    p_vehicle_rayleigh,
    p_vehicle_ud,
)
from .channel import (
    LinkBudget,
    db_to_linear,
    dbm_to_mw,
    deterministic_snr,
    linear_to_db,
    link_reach,
    mw_to_dbm,
    sample_rayleigh_snr,
    unit_disc_range,
)
from .graph import (
    EdgeList,
    SpectralCeilingError,
    algebraic_connectivity,
    count_components,
    count_partitions_eigen,
    edges_from_snr,
    is_connected,
)
from .montecarlo import (
    MODELS,
    RAYLEIGH,
    UNIT_DISC,
    EnsembleEstimate,
    MeanEstimate,
    TrialOutcome,
    run_ensemble,
    run_trial,
    sweep,
)
from .numerics import QuadratureError, integrate_semi_infinite, upper_incomplete_gamma
from .scenario import Placement, ScenarioParams, erlang_cdf, erlang_pdf, placement_from_headways, sample_headways

__version__ = "0.1.0"

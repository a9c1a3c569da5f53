"""Relay-aided vehicular downlink scheduling.

Vehicles near a roadside base station can relay downlink data to vehicles
with poor direct links over short-range V2V radio.  This package models the
links, integrates their service amounts over a scheduling period, and selects
relay/aided/common roles plus relay pairings under several policies, with a
batch experiment CLI on top (`relaysched --help`).
"""

from .assignment import Assignment, BenefitMatrix, solve_max_assignment
from .channel import (
    DSRC_PATH_LOSS,
    LTE_PATH_LOSS,
    PathLossModel,
    RadioConfig,
    default_radio_config,
    rate_two_hop,
    unit_rate,
)
from .scenario import Scenario, ScenarioSpec, generate
from .scheduler import (
    InvalidScheduleError,
    Schedule,
    ServiceTables,
    build_chunk_tables,
    require_every_pair,
    solve_irrs,
    solve_msrs,
    solve_noncooperative,
    solve_optimal_bruteforce,
    validate_schedule,
)
from .service import Period, QuadratureSpec, unit_service_batch

__version__ = "0.1.0"

"""Deterministic microgrid power-flow simulator.

Stochastic weather drives PV and wind generation models feeding either a
lossless energy balance or a full AC power-flow solve over a resistive
distribution network, with hourly time stepping and CSV result export.
Scenarios are described in a small line-oriented text format (.mgs).
"""

from .engine import (
    BUNDLED_SCENARIOS,
    NonConvergenceError,
    ResultRecord,
    ResultTable,
    SummaryRow,
    bundled_scenario_path,
    bundled_scenario_text,
    read_results_csv,
    render_csv,
    run_simulation,
    summarize,
    write_csv,
)
from .generation import (
    SolarPanel,
    WindTurbine,
    clear_sky_factor,
    pv_power,
    wind_power,
)
from .grid import (
    AdmittanceMatrix,
    Bus,
    BusKind,
    GridConnection,
    Line,
    LoadDevice,
    Network,
    PerUnitBase,
    SingularBranchError,
    build_admittance,
    line_resistance,
    validate,
)
from .powerflow import (
    PowerFlowProblem,
    SingularMatrixError,
    SolverOptions,
    compute_injections,
    newton_jacobian,
    simple_power_distribution,
    solve,
    solve_gauss_seidel,
    solve_linear,
    solve_newton_raphson,
    total_line_losses,
)
from .scenario import (
    ParseErrorKind,
    Scenario,
    ScenarioFormatError,
    SimulationConfig,
    emit_scenario,
    parse_scenario,
)
from .weather import (
    WeatherParams,
    WeatherSeries,
    WeatherTraceError,
    load_weather_csv,
    sample_wind,
    step_cloud,
    uniform_stream,
    weather_series,
    write_weather_csv,
)

__version__ = "0.1.0"

"""Small unit-conversion helpers layered over :mod:`repro.constants`.

These keep benchmark and performance-model code readable: cycle counts,
nanoseconds, and timesteps/second conversions all live here.
"""

from __future__ import annotations

NS_PER_S = 1.0e9
US_PER_S = 1.0e6
PS_PER_S = 1.0e12
FS_PER_S = 1.0e15


def cycles_to_ns(cycles: float, clock_hz: float) -> float:
    """Clock cycles to nanoseconds at ``clock_hz``."""
    if clock_hz <= 0:
        raise ValueError(f"clock_hz must be positive, got {clock_hz}")
    return cycles / clock_hz * NS_PER_S


def ns_to_cycles(t_ns: float, clock_hz: float) -> float:
    """Nanoseconds to clock cycles at ``clock_hz``."""
    if clock_hz <= 0:
        raise ValueError(f"clock_hz must be positive, got {clock_hz}")
    return t_ns / NS_PER_S * clock_hz


def steps_per_second(t_step_ns: float) -> float:
    """Timestep rate (steps/s) from the wall time of one step in ns."""
    if t_step_ns <= 0:
        raise ValueError(f"t_step_ns must be positive, got {t_step_ns}")
    return NS_PER_S / t_step_ns


def step_time_ns(rate_steps_per_s: float) -> float:
    """Wall time of one step (ns) from a timestep rate (steps/s)."""
    if rate_steps_per_s <= 0:
        raise ValueError(f"rate must be positive, got {rate_steps_per_s}")
    return NS_PER_S / rate_steps_per_s


def simulated_time_per_day_us(rate_steps_per_s: float, dt_fs: float) -> float:
    """Simulated microseconds reachable per wall-clock day.

    ``rate_steps_per_s`` timesteps per second, each advancing ``dt_fs``
    femtoseconds of simulated time.
    """
    seconds_per_day = 86400.0
    fs = rate_steps_per_s * dt_fs * seconds_per_day
    return fs / 1.0e9  # fs -> us


def timesteps_per_joule(rate_steps_per_s: float, power_watts: float) -> float:
    """Energy efficiency: timesteps per joule at a given machine power."""
    if power_watts <= 0:
        raise ValueError(f"power must be positive, got {power_watts}")
    return rate_steps_per_s / power_watts

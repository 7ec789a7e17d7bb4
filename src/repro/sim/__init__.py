"""Discrete-event simulation kernel (clock, events, timers)."""

from .engine import Event, SimError, Simulator
from .resources import PeriodicTimer

__all__ = ["Event", "SimError", "Simulator", "PeriodicTimer"]

"""ML model substrate: Table I zoo, profiles, NumPy inference engine, profiler."""

from .profiler import ProfileRegistry, WallClockProfile, profile_network
from .profiles import PAPER_BATCH_SIZE, BatchRegression, ModelInstance, ModelProfile
from .zoo import TABLE1, TABLE1_ROWS, get_profile, model_names, paper_profiles

__all__ = [
    "ProfileRegistry",
    "WallClockProfile",
    "profile_network",
    "PAPER_BATCH_SIZE",
    "BatchRegression",
    "ModelInstance",
    "ModelProfile",
    "TABLE1",
    "TABLE1_ROWS",
    "get_profile",
    "model_names",
    "paper_profiles",
]

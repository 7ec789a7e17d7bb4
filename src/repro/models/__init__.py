"""ML model substrate: Table I zoo, profiles, NumPy inference engine, profiler."""

from .. import _lazy_exports

_EXPORTS = {
    "ProfileRegistry": ".profiler",
    "WallClockProfile": ".profiler",
    "profile_network": ".profiler",
    "PAPER_BATCH_SIZE": ".profiles",
    "BatchRegression": ".profiles",
    "ModelInstance": ".profiles",
    "ModelProfile": ".profiles",
    "TABLE1": ".zoo",
    "TABLE1_ROWS": ".zoo",
    "get_profile": ".zoo",
    "model_names": ".zoo",
    "paper_profiles": ".zoo",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)

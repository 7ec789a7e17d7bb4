"""Run the package's docstring examples as part of the suite."""

import doctest
import importlib
import pkgutil

import repro


def _iter_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        yield importlib.import_module(info.name)


def test_all_docstring_examples_pass():
    failures = 0
    attempted = 0
    for module in _iter_modules():
        result = doctest.testmod(module, verbose=False)
        failures += result.failed
        attempted += result.attempted
    assert failures == 0
    assert attempted >= 3  # the kernel, histogram, and config examples at minimum

"""Hypothesis runs the same examples on every run and keeps no example
database, so a property test cannot flake. Its other caches go to a
temporary directory removed when the session ends, so no
``.hypothesis/`` directory is written into the checkout."""

import tempfile

from hypothesis import configuration, settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")

_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HOME.name)


def pytest_unconfigure(config):
    _HOME.cleanup()

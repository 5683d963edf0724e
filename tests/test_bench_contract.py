"""The benchmark's tracer still finds every name it patches.

``bench/tracing.py`` wraps functions and methods of the package by name,
and its list of frame methods keeps only the names a frame class
defines. A renamed or deleted target would therefore either break the
traced benchmark run or silently drop a span from it. This test looks
every target up the way the tracer's ``_patch`` does: ``vars(owner)``
for classes, ``getattr`` for modules.
"""

import importlib.util
import os

import pytest

_TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                        "tracing.py")

# the frame methods the tracer spans on whichever frame class defines them
_FRAME_METHODS = ("convolve_stable", "convolve_unstable", "proj_batch",
                  "proj_apply", "orbit_batch", "orbit_deriv_batch")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(tracing):
    return ([(owner, attr) for owner, attr, _, _ in tracing.SPAN_TARGETS]
            + [(owner, attr) for owner, attr, _ in tracing.COUNT_TARGETS]
            + [(owner, attr) for owner, attr, _ in tracing.MAX_TARGETS])


def test_every_patch_target_exists(tracing):
    missing = []
    for owner, attr in _targets(tracing):
        found = attr in vars(owner) if isinstance(owner, type) \
            else hasattr(owner, attr)
        if not found:
            missing.append(f"{owner.__name__}.{attr}")
    assert not missing


def test_every_frame_method_is_traced(tracing):
    spanned = {attr for owner, attr, _, _ in tracing.SPAN_TARGETS
               if owner in tracing._FRAMES}
    assert spanned == set(_FRAME_METHODS)


def test_target_count(tracing):
    assert len(_targets(tracing)) == 37

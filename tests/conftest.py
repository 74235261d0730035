import math
import tracemalloc

import pytest

import nxn_reference as ref
import poppersim.cli as cli
import poppersim.experiments as ex
import poppersim.grid_oracle as go
from poppersim.gaussian_core import PhysParams

LAMBDA_NM = 702.0


@pytest.fixture(scope="session")
def params702():
    """Wavelength used by all the reference layouts."""
    return PhysParams(wavelength_mm=LAMBDA_NM * 1e-6)


@pytest.fixture(scope="session")
def lam702(params702):
    """Rescaled wavelength Lambda = lambda/pi in mm."""
    return params702.rescaled_wavelength_mm


def approx_rel(value, rel):
    return pytest.approx(value, rel=rel)


BIG_OMEGA = 1e6  # numerical stand-in for the wide-source limit


def fwhm_factor():
    return math.sqrt(2.0 * math.log(2.0))


def traced_peak(call):
    """Peak bytes that tracemalloc traces over ``call()``, after one untraced
    warm call: a first call imports numpy.fft, which numpy loads lazily and
    tracemalloc would count."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


NO_REFERENCE_CALLS = {"build_grid_state": 0, "evolve_spectral": 0, "condition": 0,
                      "marginal_intensity": 0}


@pytest.fixture()
def oracle_spies(monkeypatch):
    """Call counts of the n x n reference's stages and of the source pass.
    The package defines none of the reference's names, so a runner could
    reach the reference only through its test module, spied on here."""
    for module in (go, ex, cli):
        for name in (*NO_REFERENCE_CALLS, "GridState"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    calls = {**NO_REFERENCE_CALLS, "source_pass": 0, "source_rows": 0}
    for name in calls:
        module = ref if name in NO_REFERENCE_CALLS else go
        original = getattr(module, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls

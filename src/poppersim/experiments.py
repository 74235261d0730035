"""Scenario definitions, parameter inference, and reference experiment runs.

A scenario bundles the source parameters, slit, optional lens, and flight
legs of one coincidence-counting layout.  Each runner produces a
:class:`WidthReport` with an analytic arm (closed forms from
``gaussian_core``) and, on request, an independent oracle arm (grid
simulation from ``grid_oracle``) plus their relative deltas.  Only the
oracle arms import ``grid_oracle`` and numpy, so loading a scenario, sizing
its grid and every analytic run leave both unloaded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from . import gaussian_core as gc
from .errors import ConfigError, DomainError, ResolutionError
from .gaussian_core import (
    FWHM_FACTOR,
    GaussianParam,
    LensConfig,
    PhysParams,
    PropagationLeg,
    SlitSpec,
)
from .grid import GridSpec, gaussian_max_step, max_step, points_for_step

if TYPE_CHECKING:
    from . import grid_oracle as go


def _block(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _number(block: dict, key: str, where: str = "",
            default: float | None = None) -> float:
    """The field ``key`` of a scenario block as a finite float; a field with
    no ``default`` is required."""
    if key not in block:
        if default is not None:
            return default
        raise ConfigError(f"scenario is missing required field '{where}{key}'")
    value = block[key]
    try:
        # JSON numbers decode to exactly int or float; bool is neither here
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer beyond the float range
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(
            f"scenario field {where}{key} must be a finite number, got {value!r:.40}")
    return number


@dataclass(frozen=True)
class Scenario:
    """One coincidence-counting layout, loadable from JSON."""

    name: str
    params: PhysParams
    a: float
    omega: float
    slit: SlitSpec | None
    lens: LensConfig | None
    L1: float
    L2: float
    oracle: GridSpec | None = None

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.omega < math.inf):
            raise ConfigError("source parameters a and omega must be positive")
        if not (0 <= self.L1 < math.inf and 0 <= self.L2 < math.inf):
            raise ConfigError("flight legs must be finite and >= 0")

    @property
    def effective_distance(self) -> float:
        """Slit-to-detector distance through the source: 2*L1 + L2."""
        return 2.0 * self.L1 + self.L2

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        doc = _block(doc, "scenario")
        params = PhysParams(wavelength_mm=_number(doc, "lambda_nm") * 1e-6)
        if "a_mm" in doc:
            a = _number(doc, "a_mm")
        elif "a2_mm2" in doc:
            a2 = _number(doc, "a2_mm2")
            if a2 <= 0:
                raise ConfigError(f"scenario field a2_mm2 must be positive, got {a2}")
            a = math.sqrt(a2)
        else:
            raise ConfigError("scenario is missing required field 'a_mm or a2_mm2'")
        omega = _number(doc, "omega_mm")
        L1 = _number(doc, "L1_mm")
        L2 = _number(doc, "L2_mm")
        slit = None
        if "slit" in doc:
            s = _block(doc["slit"], "slit")
            kind = s.get("kind", "gaussian")
            if kind == "rectangular":
                slit = SlitSpec(
                    kind="rectangular",
                    full_width=_number(s, "width_mm", "slit."),
                    convention=s.get("convention", "half-width"),
                    reference_fwhm_mm=_number(s, "reference_fwhm_mm", "slit.", 0.0),
                    reference_L_mm=_number(s, "reference_L_mm", "slit.", 0.0),
                )
            else:  # SlitSpec rejects an unknown kind
                slit = SlitSpec(kind=kind, epsilon=_number(s, "width_mm", "slit."))
        lens = None
        if "lens" in doc:
            block = _block(doc["lens"], "lens")
            lens = LensConfig(f=_number(block, "f_mm", "lens."),
                              b1=_number(block, "b1_mm", "lens."))
        oracle = None
        if "oracle" in doc:
            block = _block(doc["oracle"], "oracle")
            n = _number(block, "n", "oracle.")
            if not n.is_integer():
                raise ConfigError(f"scenario field oracle.n must be an integer, got {n}")
            oracle = GridSpec(n=int(n), extent=_number(block, "extent_mm", "oracle."))
        return cls(name=str(doc.get("name", "scenario")), params=params, a=a,
                   omega=omega, slit=slit, lens=lens, L1=L1, L2=L2, oracle=oracle)

    @classmethod
    def from_json(cls, path) -> "Scenario":
        """The scenario in the JSON file ``path``; an unreadable file or
        malformed JSON raises :class:`ConfigError` with a one-line message."""
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"scenario file not found: {path}")
        except OSError as exc:
            raise ConfigError(f"cannot read scenario file {path}: {exc.strerror}")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"scenario file {path} is not UTF-8 text: "
                              f"{exc.reason} at byte {exc.start}")
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"malformed JSON in {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
            )
        return cls.from_dict(doc)


@dataclass
class Measured:
    """One physical width from up to two independent routes.

    A report prints it as ``analytic_mm``, ``oracle_mm`` and ``delta_rel``,
    in that order, leaving out each that is None."""

    analytic: float | None = None
    oracle: float | None = None

    @property
    def delta_rel(self) -> float | None:
        if self.analytic is None or self.oracle is None:
            return None
        return self.oracle / self.analytic - 1.0


@dataclass
class WidthReport:
    """The widths of one scenario run.  A report prints the fields that are
    not None in the order declared here, so a new printed number is a new
    field, in its place."""

    provenance: str  # 'analytic', 'oracle', or 'both'
    beam_fwhm_mm: Measured
    coincidence_fwhm_mm: Measured
    real_slit_fwhm_mm: Measured | None = None
    ghost_image_width_mm: Measured | None = None
    virtual_distance_mm: float | None = None
    coincidence_weight: float | None = None


@dataclass
class FitResult:
    """Source-correlation scale inferred from an observed pattern width."""

    a2: float
    s: float
    branch_info: dict = field(default_factory=dict)


@dataclass
class SweepPoint:
    """One slit width of a sweep.  A report prints the fields that are not
    None in the order declared here, so a new printed number is a new field,
    in its place."""

    slit_full_width_mm: float
    fwhm_analytic_mm: float
    fwhm_oracle_mm: float | None = None
    error: str | None = None


def default_grid(scenario: Scenario, n: int | None = None,
                 epsilons=None) -> GridSpec:
    """Auto-sized grid: extent 8x the largest rms width in the scenario, the
    beam's at L1 + L2 or a far-field pattern's behind a Gaussian slit of
    ``epsilons`` (by default the scenario's own slit); unless given, n
    doubles from 2048 up to 8192 until the step meets ``max_step`` and each
    slit's ``gaussian_max_step``.  The beam's rms at any L1 + L2 is at least
    its source-plane rms, so the extent also holds the source, which needs
    six of that rms."""
    state = gc.make_epr_state(scenario.a, scenario.omega)
    total = scenario.L1 + scenario.L2
    rms = [gc.beam_width(state, PropagationLeg(total), scenario.params) / 2.0]
    step = max_step(scenario.a, scenario.omega)
    if epsilons is None:
        epsilons = [] if scenario.slit is None else [
            scenario.slit.gaussian_epsilon(scenario.params)]
    for eps in epsilons:
        rms.append(gc.far_field_width(eps * eps + scenario.a ** 2,
                                      scenario.effective_distance,
                                      scenario.params) / 2.0)
        step = min(step, gaussian_max_step(eps))
    extent = 8.0 * max(rms)
    if n is None:
        n = points_for_step(extent, step, 2048, 8192)
    return GridSpec(n=n, extent=extent)


def oracle_grid(scenario: Scenario, slit_full_widths=None) -> GridSpec:
    """The grid the oracle runs ``scenario`` on: its ``oracle`` block, else
    :func:`default_grid`, sized for the scenario's slit or, for a sweep, for
    the sweep's slits of ``slit_full_widths`` (half-width convention)."""
    if scenario.oracle is not None:
        return scenario.oracle
    epsilons = None if slit_full_widths is None else [
        w / 2.0 for w in slit_full_widths]
    return default_grid(scenario, epsilons=epsilons)


def oracle_pass(scenario: Scenario, L1: float, apertures=(),
                beam_L: float | None = None) -> go.SourcePass:
    """One :func:`grid_oracle.source_pass` over ``scenario``'s source on its
    oracle grid, conditioned on ``apertures`` at the slit plane L1."""
    from . import grid_oracle as go
    return go.source_pass(scenario.a, scenario.omega, oracle_grid(scenario),
                          scenario.params, L1, apertures, beam_L)


def _detector_widths(report: WidthReport, source: go.SourcePass, L2: float):
    """Fly a one-slit pass's row a further L2, to the detector, and fill
    ``report``'s oracle coincidence FWHM and weight from it, and its
    all-counts FWHM of particle 2 from the pass's beam intensity."""
    from . import grid_oracle as go
    source.fly(L2)
    report.coincidence_fwhm_mm.oracle = source.widths(0).fwhm
    report.coincidence_weight = float(source.weight[0])
    report.beam_fwhm_mm.oracle = go.intensity_widths(
        source.y, source.beam, source.dy).gaussian_equiv_fwhm


def run_kim_shih(scenario: Scenario, use_oracle: bool = False) -> WidthReport:
    """Lens (ghost-imaging) layout: image of the slit forms at the wide-open
    aperture plane, then diffracts over L2 to the detector.

    The oracle arm exploits the imaging equivalence: focusing the
    conditional amplitude back to a real Gaussian at the image plane is the
    same as conditioning the unpropagated source state, so its pass
    conditions at L1 = 0 and propagates L2, all by grid quadrature.
    """
    if scenario.lens is None:
        raise ConfigError("Kim-Shih layout requires a lens")
    if scenario.slit is None:
        raise ConfigError("Kim-Shih layout requires a slit")
    if abs(scenario.L1 - scenario.lens.image_distance) > 1e-9 * max(1.0, scenario.L1):
        raise ConfigError(
            f"L1 = {scenario.L1} must equal the ghost-image distance "
            f"2f - b1 = {scenario.lens.image_distance}"
        )
    params = scenario.params
    eps = scenario.slit.gaussian_epsilon(params)
    state = gc.make_epr_state(scenario.a, scenario.omega)
    image = gc.lens_ghost_param(scenario.slit, scenario.a, scenario.lens,
                                PropagationLeg(scenario.lens.image_distance), params)
    detector = gc.lens_ghost_param(
        scenario.slit, scenario.a, scenario.lens,
        PropagationLeg(scenario.lens.image_distance + scenario.L2), params)
    real_slit = gc.propagate_conditional(GaussianParam(eps * eps),
                                         PropagationLeg(scenario.L2), params)
    total = scenario.L1 + scenario.L2
    report = WidthReport(
        provenance="both" if use_oracle else "analytic",
        beam_fwhm_mm=Measured(analytic=gc.fwhm_from_width(
            gc.beam_width(state, PropagationLeg(total), params))),
        coincidence_fwhm_mm=Measured(analytic=gc.fwhm_from_width(
            gc.intensity_width(detector))),
        real_slit_fwhm_mm=Measured(analytic=gc.fwhm_from_width(
            gc.intensity_width(real_slit))),
        ghost_image_width_mm=Measured(analytic=gc.intensity_width(image)),
    )
    if use_oracle:
        from . import grid_oracle as go
        slit = go.Aperture(kind="gaussian", epsilon=eps)
        source = oracle_pass(scenario, 0.0, [slit], beam_L=total)
        # the ghost image lies at the slit plane, the detector L2 past it
        report.ghost_image_width_mm.oracle = source.widths(0).gaussian_equiv_W
        _detector_widths(report, source, scenario.L2)
        # real slit: plain single-particle diffraction on the same grid, its
        # width read from the intensity of its one tail-checked flight
        real_slit = go._fly_rows(slit.sample(source.y, source.dy), source.dy,
                                 scenario.L2, params)
        report.real_slit_fwhm_mm.oracle = go.intensity_widths(
            source.y, real_slit, source.dy).fwhm
    return report


def run_popper_freespace(scenario: Scenario, use_oracle: bool = False) -> WidthReport:
    """Free-space layout: slit at L1, detectors a further L2 behind it.

    The coincidence pattern behaves as diffraction from an effective
    aperture located at the slit plane but seen over the full distance
    2*L1 + L2; ``virtual_distance_mm`` reports that equivalent distance as
    recovered by back-propagating the detector-plane Gaussian parameter to
    a real (focused) value.
    """
    if scenario.lens is not None:
        raise ConfigError("free-space layout must not have a lens")
    if scenario.slit is None:
        raise ConfigError("free-space layout requires a slit")
    params = scenario.params
    eps = scenario.slit.gaussian_epsilon(params)
    state = gc.make_epr_state(scenario.a, scenario.omega)
    gamma = gc.condition_on_gaussian_slit(
        state, SlitSpec(kind="gaussian", epsilon=eps),
        PropagationLeg(scenario.L1), params)
    gamma_det = gc.propagate_conditional(gamma, PropagationLeg(scenario.L2), params)
    total = scenario.L1 + scenario.L2
    report = WidthReport(
        provenance="both" if use_oracle else "analytic",
        beam_fwhm_mm=Measured(analytic=gc.fwhm_from_width(
            gc.beam_width(state, PropagationLeg(total), params))),
        coincidence_fwhm_mm=Measured(analytic=gc.fwhm_from_width(
            gc.intensity_width(gamma_det))),
        virtual_distance_mm=gamma_det.gamma.imag / params.rescaled_wavelength_mm,
    )
    if use_oracle:
        from . import grid_oracle as go
        source = oracle_pass(scenario, scenario.L1,
                             [go.Aperture(kind="gaussian", epsilon=eps)], beam_L=total)
        _detector_widths(report, source, scenario.L2)
    return report


def run_strekalov_sweep(scenario: Scenario, slit_full_widths,
                        use_oracle: bool = False) -> list[SweepPoint]:
    """Coincidence pattern width against slit width, half-width convention.

    Analytic widths use the wide-source closed form over the effective
    distance 2*L1 + L2; the oracle arm conditions the source, with the
    scenario's finite omega, on every slit width in one pass.  Oracle
    failures are isolated into the points' ``error`` fields: a failure of
    the pass lands in every point, and a row's own failure in its point: a
    slit the grid does not resolve, or a row whose flight wraps.  The pass
    refuses a grid over the memory cap before it runs.  Both arms are
    free-space widths, so a lens layout is refused.
    """
    if scenario.lens is not None:
        raise ConfigError("sweep is defined for the free-space layout; "
                          "this scenario has a lens")
    if scenario.slit is not None and scenario.slit.kind == "rectangular" \
            and scenario.slit.convention != "half-width":
        raise ConfigError("sweep is defined for the half-width slit convention")
    widths = sorted(slit_full_widths)
    for w_full in widths:
        if not w_full > 0:
            raise DomainError(f"slit width must be positive, got {w_full}")
    points: list[SweepPoint] = []
    for w_full in widths:
        eps = w_full / 2.0
        fwhm_an = gc.fwhm_from_width(gc.far_field_width(
            eps * eps + scenario.a ** 2, scenario.effective_distance,
            scenario.params))
        points.append(SweepPoint(slit_full_width_mm=w_full, fwhm_analytic_mm=fwhm_an))
    if not use_oracle:
        return points
    from . import grid_oracle as go
    # the oracle conditions on the sweep's slits, never on the scenario's
    # own: its grid is sized for them
    grid = oracle_grid(scenario, widths)
    slits = [go.Aperture(kind="gaussian", epsilon=w_full / 2.0) for w_full in widths]
    try:
        source = oracle_pass(replace(scenario, oracle=grid), scenario.L1, slits)
    except (DomainError, ResolutionError) as exc:
        for point in points:
            point.error = str(exc)
        return points
    source.fly(scenario.L2)
    for k, point in enumerate(points):
        try:
            point.fwhm_oracle_mm = source.widths(k).fwhm
        except (DomainError, ResolutionError) as exc:
            point.error = str(exc)
    return points


def fit_sigma_from_width(fwhm_observed: float, epsilon: float, L2: float,
                         params: PhysParams) -> FitResult:
    """Invert an observed coincidence FWHM for the source-correlation scale.

    Solves s^4 - W^2 s^2 + Lambda^2 L2^2 = 0 (the two roots' product is
    Lambda*L2) and returns the near-field branch s < sqrt(Lambda*L2), with
    a2 = s^2 - epsilon^2.  Both roots are surfaced in ``branch_info``.
    Pass epsilon = 0 to infer the total localization scale s alone.
    """
    if fwhm_observed <= 0:
        raise DomainError("observed FWHM must be positive")
    if epsilon < 0:
        raise DomainError("epsilon must be >= 0")
    if L2 <= 0:
        raise DomainError(f"L2 must be > 0, got {L2}: at L2 = 0 the width "
                          f"is s itself and there is no near-field branch")
    roots = gc.far_field_inverse(fwhm_observed / FWHM_FACTOR, L2, params)
    a2 = roots.near ** 2 - epsilon ** 2
    if a2 < 0:
        raise DomainError(
            f"slit wider than observed localization: epsilon = {epsilon} mm "
            f"exceeds fitted s = {roots.near:.6g} mm"
        )
    return FitResult(a2=a2, s=roots.near, branch_info={
        "s_near_mm": roots.near,
        "s_far_mm": roots.far,
        "root_product_mm2": params.rescaled_wavelength_mm * L2,
        "discriminant_mm4": roots.discriminant,
    })

"""CSI signal model and joint angle-of-arrival / time-of-flight estimation.

A uniform linear array of M antennas samples K subcarriers spaced
``frequency_interval`` apart. A hypothesized arrival angle ``theta`` (degrees,
measured from the array axis so 90 is broadside) and delay ``tau`` (seconds)
accumulate the per-sample phases

    phi(m, k) = 2*pi * f_k * m * d * cos(theta) / c  +  2*pi * k * df * tau

with ``f_k = f0 + k*df``. Summing the measured samples against
``exp(+j*phi)`` over all antennas and subcarriers gives a complex response
whose magnitude peaks at the true (angle, delay); evaluating it over a grid
yields the 2D spectrum searched here. Synthesis runs the model in reverse
with conjugate phases, so analysis acts as a matched filter.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGeometryError, InvalidInputError, require_finite

SPEED_OF_LIGHT = 299_792_458.0

# (aoa degrees, tof seconds, magnitude)
Peak = tuple[float, float, float]


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array and subcarrier layout of one receiver axis."""

    num_antennas: int
    element_spacing: float
    num_subcarriers: int
    base_frequency: float
    frequency_interval: float
    orientation: str = "horizontal"

    def __post_init__(self) -> None:
        if self.num_antennas < 2 or self.num_subcarriers < 2:
            raise InvalidGeometryError(
                f"need at least 2 antennas and 2 subcarriers, got "
                f"{self.num_antennas} x {self.num_subcarriers}"
            )
        if self.element_spacing <= 0 or self.frequency_interval <= 0:
            raise InvalidGeometryError("element spacing and frequency interval must be > 0")
        if self.orientation not in ("horizontal", "vertical"):
            raise InvalidInputError(f"unknown orientation {self.orientation!r}")

    def subcarrier_frequencies(self) -> np.ndarray:
        """f_k = f0 + k*df for k = 0..K-1."""
        k = np.arange(self.num_subcarriers)
        return self.base_frequency + k * self.frequency_interval


@dataclass(frozen=True)
class CsiFrame:
    """Complex channel samples indexed [antenna m][subcarrier k]."""

    samples: np.ndarray
    geometry: ArrayGeometry
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", samples)
        expected = (self.geometry.num_antennas, self.geometry.num_subcarriers)
        if samples.shape != expected:
            raise InvalidInputError(
                f"sample matrix {samples.shape} does not match geometry {expected}"
            )
        require_finite("CSI frame", self.timestamp)
        if not np.isfinite(samples).all():
            raise InvalidInputError("CSI samples must be finite")


@dataclass(frozen=True)
class AoaTofSpectrum:
    """Magnitude of the joint angle/delay response over a search grid."""

    magnitudes: np.ndarray
    aoa_grid: np.ndarray
    tof_grid: np.ndarray

    def __post_init__(self) -> None:
        mags = np.asarray(self.magnitudes, dtype=float)
        aoa = np.asarray(self.aoa_grid, dtype=float)
        tof = np.asarray(self.tof_grid, dtype=float)
        object.__setattr__(self, "magnitudes", mags)
        object.__setattr__(self, "aoa_grid", aoa)
        object.__setattr__(self, "tof_grid", tof)
        if mags.ndim != 2 or mags.shape != (aoa.size, tof.size):
            raise InvalidInputError(
                f"magnitude matrix {mags.shape} does not match grids "
                f"({aoa.size}, {tof.size})"
            )
        if np.any(mags < 0):
            raise InvalidInputError("spectrum magnitudes must be non-negative")


@dataclass(frozen=True)
class RadioEstimate:
    """One localized emitter: horizontal/vertical arrival angles plus delay."""

    aoa_h: float
    aoa_v: float
    tof: float
    magnitude: float
    identifier: str

    def __post_init__(self) -> None:
        require_finite("estimate", self.aoa_h, self.aoa_v, self.tof, self.magnitude)
        if self.tof <= 0:
            raise InvalidInputError(f"time of flight must be > 0, got {self.tof}")
        for name, angle in (("aoa_h", self.aoa_h), ("aoa_v", self.aoa_v)):
            if not 0.0 <= angle <= 180.0:
                raise InvalidInputError(f"{name}={angle} outside [0, 180] degrees")


def default_aoa_grid(step_deg: float = 1.0) -> np.ndarray:
    """Arrival-angle grid covering [0, 180] degrees at the given step."""
    return np.arange(0.0, 180.0 + 0.5 * step_deg, step_deg)


def default_tof_grid(geometry: ArrayGeometry, num_bins: int = 64) -> np.ndarray:
    """Delay grid spanning the unambiguous range (0, 1/df] in num_bins steps."""
    if num_bins < 1:
        raise InvalidInputError("num_bins must be >= 1")
    return np.arange(1, num_bins + 1) / (num_bins * geometry.frequency_interval)


def _validate_grid(grid: np.ndarray, name: str) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidInputError(f"{name} must be a non-empty 1D grid")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise InvalidInputError(f"{name} must be strictly ascending")
    return grid


def _aoa_steering(geometry: ArrayGeometry, aoa_grid: np.ndarray) -> np.ndarray:
    """Per-antenna, per-subcarrier phase for each grid angle, shape (I, M, K)."""
    f_k = geometry.subcarrier_frequencies()
    m = np.arange(geometry.num_antennas)
    cos_theta = np.cos(np.radians(aoa_grid))
    per_mk = np.outer(m, f_k) * (geometry.element_spacing / SPEED_OF_LIGHT)
    return 2.0 * np.pi * cos_theta[:, None, None] * per_mk[None, :, :]


def _tof_steering(geometry: ArrayGeometry, tof_grid: np.ndarray) -> np.ndarray:
    """Per-subcarrier delay phase for each grid delay, shape (K, J)."""
    k = np.arange(geometry.num_subcarriers)
    return 2.0 * np.pi * geometry.frequency_interval * np.outer(k, tof_grid)


def synthesize_csi(
    targets: list[tuple[float, float, float]],
    geometry: ArrayGeometry,
    noise_std: float = 0.0,
    seed: int = 0,
    timestamp: float = 0.0,
) -> CsiFrame:
    """Simulate one CSI frame from point emitters plus circular Gaussian noise.

    Each target is an ``(aoa_deg, tof_s, amplitude)`` triple contributing
    ``amplitude * exp(-j*phi(m, k))`` per sample, the conjugate of the
    analysis phase, so the spectrum of a noiseless single-target frame peaks
    at the planted grid cell. ``noise_std`` is the standard deviation of the
    complex noise per sample (E|n|^2 = noise_std^2), split evenly between the
    real and imaginary parts. Deterministic for a fixed seed.
    """
    if noise_std < 0:
        raise InvalidInputError("noise_std must be >= 0")
    for aoa, tof, _ in targets:
        if tof <= 0:
            raise InvalidInputError(f"target tof must be > 0, got {tof}")

    shape = (geometry.num_antennas, geometry.num_subcarriers)
    samples = np.zeros(shape, dtype=np.complex128)
    f_k = geometry.subcarrier_frequencies()
    m = np.arange(geometry.num_antennas)
    k = np.arange(geometry.num_subcarriers)
    for aoa, tof, amplitude in targets:
        aoa_phase = (
            2.0 * np.pi
            * np.outer(m, f_k)
            * (geometry.element_spacing * np.cos(np.radians(aoa)) / SPEED_OF_LIGHT)
        )
        tof_phase = 2.0 * np.pi * geometry.frequency_interval * k * tof
        samples += amplitude * np.exp(-1j * (aoa_phase + tof_phase[None, :]))

    if noise_std > 0:
        rng = np.random.default_rng(seed)
        scale = noise_std / np.sqrt(2.0)
        samples = samples + scale * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
    return CsiFrame(samples=samples, geometry=geometry, timestamp=timestamp)


def compute_spectrum(csi: CsiFrame, aoa_grid, tof_grid) -> AoaTofSpectrum:
    """Evaluate the joint angle/delay response magnitude over a grid.

    The result is linear in the input amplitude: scaling every sample by a
    positive real factor scales every magnitude by the same factor.
    """
    aoa_grid = _validate_grid(aoa_grid, "aoa_grid")
    tof_grid = _validate_grid(tof_grid, "tof_grid")
    geometry = csi.geometry
    samples = np.asarray(csi.samples, dtype=np.complex128)
    if samples.shape != (geometry.num_antennas, geometry.num_subcarriers):
        raise InvalidInputError("CSI sample matrix does not match its geometry")

    # Collapse antennas per angle first, then apply delay phases: O(I*M*K + I*K*J).
    aoa_basis = np.exp(1j * _aoa_steering(geometry, aoa_grid))
    per_angle = np.einsum("mk,imk->ik", samples, aoa_basis)
    tof_basis = np.exp(1j * _tof_steering(geometry, tof_grid))
    response = per_angle @ tof_basis
    return AoaTofSpectrum(np.abs(response), aoa_grid, tof_grid)


def pick_peaks(spectrum: AoaTofSpectrum, relative_threshold: float = 0.5) -> list[Peak]:
    """Extract prominent local maxima from a spectrum.

    A cell qualifies when it strictly exceeds its 8-neighborhood and its
    magnitude is at least ``relative_threshold`` times the global maximum.
    The global maximum cell is always included while nonzero, even when a
    plateau keeps it from being a strict local maximum. Peaks are returned
    sorted by magnitude descending (ties by grid index). An all-zero
    spectrum yields an empty list, meaning nobody is present.
    """
    if not 0.0 < relative_threshold <= 1.0:
        raise InvalidInputError("relative_threshold must be in (0, 1]")
    mags = spectrum.magnitudes
    global_max = float(mags.max(initial=0.0))
    if global_max <= 0.0:
        return []

    padded = np.pad(mags, 1, constant_values=-np.inf)
    strict = np.ones_like(mags, dtype=bool)
    for di, dj in itertools.product((-1, 0, 1), repeat=2):
        if di == 0 and dj == 0:
            continue
        neighbor = padded[1 + di : 1 + di + mags.shape[0], 1 + dj : 1 + dj + mags.shape[1]]
        strict &= mags > neighbor
    strict &= mags >= relative_threshold * global_max

    cells = [(int(i), int(j)) for i, j in np.argwhere(strict)]
    top = np.unravel_index(int(np.argmax(mags)), mags.shape)
    top = (int(top[0]), int(top[1]))
    if top not in cells:
        cells.append(top)
    cells.sort(key=lambda ij: (-mags[ij], ij[0], ij[1]))
    return [
        (float(spectrum.aoa_grid[i]), float(spectrum.tof_grid[j]), float(mags[i, j]))
        for i, j in cells
    ]


def fuse_axes(
    horizontal_peaks: list[Peak],
    vertical_peaks: list[Peak],
    tof_tolerance: float,
) -> list[RadioEstimate]:
    """Pair horizontal and vertical peaks that agree on time of flight.

    Horizontal peaks are visited by descending magnitude and greedily take
    the unused vertical peak with the nearest delay inside ``tof_tolerance``;
    peaks left without a partner are dropped. The paired estimate keeps the
    horizontal delay and the weaker of the two magnitudes, and receives a
    fresh sequential identifier.
    """
    if tof_tolerance <= 0:
        raise InvalidInputError("tof_tolerance must be > 0")
    order = sorted(range(len(horizontal_peaks)), key=lambda i: (-horizontal_peaks[i][2], i))
    unused = list(range(len(vertical_peaks)))
    estimates: list[RadioEstimate] = []
    for hi in order:
        h_aoa, h_tof, h_mag = horizontal_peaks[hi]
        best = None
        best_key = None
        for vi in unused:
            v_tof = vertical_peaks[vi][1]
            gap = abs(v_tof - h_tof)
            if gap > tof_tolerance:
                continue
            key = (gap, -vertical_peaks[vi][2], vi)
            if best_key is None or key < best_key:
                best, best_key = vi, key
        if best is None:
            continue
        unused.remove(best)
        v_aoa, _, v_mag = vertical_peaks[best]
        estimates.append(
            RadioEstimate(
                aoa_h=h_aoa,
                aoa_v=v_aoa,
                tof=h_tof,
                magnitude=min(h_mag, v_mag),
                identifier=f"p{len(estimates)}",
            )
        )
    return estimates

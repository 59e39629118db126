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

All functions are pure and safe to call concurrently. The steering bases
are built once per array geometry and grid pair and kept in a small bounded
cache; the cached arrays are read-only, so sharing them between calls and
threads cannot change a result. The angle basis is stored (I, K, M), so the sum
over antennas reads contiguous memory, in the order an (I, M, K) basis gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, require_finite
from .world import RadioEstimate, score_order

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
        require_finite("geometry", self.num_antennas, self.element_spacing,
                       self.num_subcarriers, self.base_frequency, self.frequency_interval)
        if self.num_antennas < 2 or self.num_subcarriers < 2:
            raise InvalidInputError(
                f"need at least 2 antennas and 2 subcarriers, got "
                f"{self.num_antennas} x {self.num_subcarriers}"
            )
        if self.element_spacing <= 0 or self.frequency_interval <= 0:
            raise InvalidInputError("element spacing and frequency interval must be > 0")
        if self.base_frequency <= 0:
            raise InvalidInputError(f"base frequency must be > 0, got {self.base_frequency}")
        if self.orientation not in ("horizontal", "vertical"):
            raise InvalidInputError(f"unknown orientation {self.orientation!r}")
        # The largest angle phase before its 2*pi*cos/c factor, and the largest
        # subcarrier index times the default delay grid's end, 1/df.
        top = self.base_frequency + (self.num_subcarriers - 1) * self.frequency_interval
        if not (math.isfinite(top * (self.num_antennas - 1) * self.element_spacing)
                and math.isfinite((self.num_subcarriers - 1) / self.frequency_interval)):
            raise InvalidInputError(
                "steering phases overflow: (base_frequency + (num_subcarriers - 1) * "
                "frequency_interval) * (num_antennas - 1) * element_spacing and "
                "(num_subcarriers - 1) / frequency_interval must be finite")

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
        if mags.size == 0 or not 0.0 <= mags.min() <= mags.max() < np.inf:  # NaN fails
            raise InvalidInputError("spectrum magnitudes must be non-empty, finite and >= 0")


def default_aoa_grid(step_deg: float = 1.0) -> np.ndarray:
    """Arrival-angle grid covering [0, 180] degrees at the given step."""
    if not 0 < step_deg < np.inf:  # also refuses NaN
        raise InvalidInputError(f"step_deg must be finite and > 0, got {step_deg}")
    return np.arange(0.0, 180.0 + 0.5 * step_deg, step_deg)


def default_tof_grid(geometry: ArrayGeometry, num_bins: int = 64) -> np.ndarray:
    """Delay grid spanning the unambiguous range (0, 1/df] in num_bins steps."""
    if type(num_bins) is bool or not isinstance(num_bins, int | np.integer) or num_bins < 1:
        raise InvalidInputError(f"num_bins must be an integer >= 1, got {num_bins!r}")
    return np.arange(1, num_bins + 1) / (num_bins * geometry.frequency_interval)


def _validate_grid(grid: np.ndarray, name: str) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidInputError(f"{name} must be a non-empty 1D grid")
    # Ascending values are finite once both ends are; NaN fails every comparison.
    if not ((grid[1:] > grid[:-1]).all() and -np.inf < grid[0] and grid[-1] < np.inf):
        raise InvalidInputError(f"{name} must be finite and strictly ascending")
    return grid


def _steering_bases(
    geometry: ArrayGeometry, aoa_grid: np.ndarray, tof_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``exp(1j*phase)`` bases, shapes (I, K, M) and (K, J), cached.

    The key is the geometry's numeric fields and the bytes of the two
    validated grids. The bases do not depend on the orientation, so both
    axes of one rig share an entry.
    """
    return _cached_bases(
        geometry.num_antennas, geometry.element_spacing, geometry.num_subcarriers,
        geometry.base_frequency, geometry.frequency_interval,
        aoa_grid.tobytes(), tof_grid.tobytes(),
    )


@functools.lru_cache(maxsize=4)
def _cached_bases(num_antennas, element_spacing, num_subcarriers, base_frequency,
                  frequency_interval, aoa_bytes, tof_bytes):
    aoa_grid, tof_grid = np.frombuffer(aoa_bytes), np.frombuffer(tof_bytes)
    k = np.arange(num_subcarriers)
    # Per-subcarrier, per-antenna phase of each grid angle, shape (I, K, M).
    f_k = base_frequency + k * frequency_interval
    per_km = np.outer(f_k, np.arange(num_antennas)) * (element_spacing / SPEED_OF_LIGHT)
    cos_theta = np.cos(np.radians(aoa_grid))
    aoa_basis = np.exp(1j * (2.0 * np.pi * cos_theta[:, None, None] * per_km[None, :, :]))
    # Per-subcarrier delay phase of each grid delay, shape (K, J).
    tof_basis = np.exp(1j * (2.0 * np.pi * frequency_interval * np.outer(k, tof_grid)))
    aoa_basis.flags.writeable = False
    tof_basis.flags.writeable = False
    return aoa_basis, tof_basis


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
    if not noise_std >= 0:  # also refuses NaN
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
    # Collapse antennas per angle first, then apply delay phases: O(I*M*K + I*K*J).
    aoa_basis, tof_basis = _steering_bases(csi.geometry, aoa_grid, tof_grid)
    # A modulus may overflow in ``np.abs`` with no floating-point error raised;
    # then ``AoaTofSpectrum`` refuses the infinite magnitude.
    try:
        with np.errstate(over="raise", invalid="raise"):
            magnitudes = np.abs(np.einsum("mk,ikm->ik", csi.samples, aoa_basis) @ tof_basis)
        return AoaTofSpectrum(magnitudes, aoa_grid, tof_grid)
    except (FloatingPointError, InvalidInputError):
        raise InvalidInputError(f"spectrum of CSI frame t={csi.timestamp} overflows") from None


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
    top = int(np.argmax(mags))
    global_max = float(mags.flat[top])
    if global_max <= 0.0:
        return []

    # Search only rows from the first to the last cell at the threshold; a neighbor
    # off them is below it, as -inf is. max is exact: band > best means strict.
    flat = np.flatnonzero(mags >= relative_threshold * global_max)
    cols = mags.shape[1]
    first, last = int(flat[0]) // cols, int(flat[-1]) // cols + 1
    band = mags[first:last]
    best = np.full_like(band, -np.inf)
    best[:, 1:] = band[:, :-1]
    np.maximum(best[:, :-1], band[:, 1:], out=best[:, :-1])
    row_max = np.maximum(band, best)  # each cell and its left/right neighbors
    np.maximum(best[1:], row_max[:-1], out=best[1:])
    np.maximum(best[:-1], row_max[1:], out=best[:-1])
    strict = band > best
    strict &= band >= relative_threshold * global_max

    cells = [divmod(first * cols + f, cols) for f in np.flatnonzero(strict).tolist()]
    top = divmod(top, cols)
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
    if not tof_tolerance > 0:  # also rejects NaN
        raise InvalidInputError("tof_tolerance must be > 0")
    order = score_order([peak[2] for peak in horizontal_peaks]).tolist()
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

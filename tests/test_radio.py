"""Spectrum estimation tests against scalar-loop oracles."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiofusion import radio
from radiofusion.errors import InvalidInputError
from radiofusion.radio import (
    SPEED_OF_LIGHT,
    AoaTofSpectrum,
    ArrayGeometry,
    CsiFrame,
    compute_spectrum,
    default_aoa_grid,
    default_tof_grid,
    fuse_axes,
    pick_peaks,
    synthesize_csi,
)

GEO = ArrayGeometry(
    num_antennas=8,
    element_spacing=0.0258,  # half wavelength at 5.8 GHz
    num_subcarriers=32,
    base_frequency=5.8e9,
    frequency_interval=312.5e3,
)


def response_oracle(frame, aoa_deg, tof_s):
    """Scalar double-loop evaluation of the joint response magnitude."""
    geo = frame.geometry
    total = 0.0 + 0.0j
    for m in range(geo.num_antennas):
        for k in range(geo.num_subcarriers):
            f_k = geo.base_frequency + k * geo.frequency_interval
            aoa_phase = (
                2.0 * np.pi * f_k * m * geo.element_spacing
                * np.cos(np.radians(aoa_deg)) / SPEED_OF_LIGHT
            )
            tof_phase = 2.0 * np.pi * k * geo.frequency_interval * tof_s
            total += frame.samples[m, k] * np.exp(1j * (aoa_phase + tof_phase))
    return abs(total)


def peaks_oracle(mags, threshold):
    """Scan every cell for the strict 8-neighborhood peak condition."""
    gmax = mags.max()
    if gmax <= 0:
        return []
    rows, cols = mags.shape
    found = []
    for i in range(rows):
        for j in range(cols):
            value = mags[i, j]
            if value < threshold * gmax:
                continue
            neighbors = [
                mags[a, b]
                for a in (i - 1, i, i + 1)
                for b in (j - 1, j, j + 1)
                if (a, b) != (i, j) and 0 <= a < rows and 0 <= b < cols
            ]
            if all(value > n for n in neighbors):
                found.append((i, j))
    return found


def peak_list_oracle(spectrum, threshold):
    """pick_peaks' documented result built from the scan: the strict peaks
    plus the global maximum while nonzero, by magnitude then grid index."""
    mags = spectrum.magnitudes
    if mags.max() <= 0:
        return []
    cells = peaks_oracle(mags, threshold)
    top = np.unravel_index(int(np.argmax(mags)), mags.shape)
    if (top[0], top[1]) not in cells:
        cells.append((int(top[0]), int(top[1])))
    cells.sort(key=lambda ij: (-mags[ij], ij[0], ij[1]))
    return [
        (float(spectrum.aoa_grid[i]), float(spectrum.tof_grid[j]), float(mags[i, j]))
        for i, j in cells
    ]


def neighbour_max_peaks(spectrum, relative_threshold):
    """pick_peaks as it was before it searched only the rows holding cells at
    the threshold: the largest of the 8 neighbors of every cell, -inf off the grid."""
    mags = spectrum.magnitudes
    global_max = float(mags.max(initial=0.0))
    if global_max <= 0.0:
        return []
    best = np.full_like(mags, -np.inf)
    best[:, 1:] = mags[:, :-1]
    np.maximum(best[:, :-1], mags[:, 1:], out=best[:, :-1])
    row_max = np.maximum(mags, best)  # each cell and its left/right neighbors
    np.maximum(best[1:], row_max[:-1], out=best[1:])
    np.maximum(best[:-1], row_max[1:], out=best[:-1])
    strict = mags > best
    strict &= mags >= relative_threshold * global_max

    cols = mags.shape[1]
    cells = [divmod(flat, cols) for flat in np.flatnonzero(strict).tolist()]
    top = divmod(int(np.argmax(mags)), cols)
    if top not in cells:
        cells.append(top)
    cells.sort(key=lambda ij: (-mags[ij], ij[0], ij[1]))
    return [
        (float(spectrum.aoa_grid[i]), float(spectrum.tof_grid[j]), float(mags[i, j]))
        for i, j in cells
    ]


def uncached_spectrum(csi, aoa_grid, tof_grid):
    """compute_spectrum as it was before the steering bases were cached,
    with its own (I, M, K) angle phase: antennas before subcarriers."""
    aoa_grid = radio._validate_grid(aoa_grid, "aoa_grid")
    tof_grid = radio._validate_grid(tof_grid, "tof_grid")
    geometry = csi.geometry
    f_k = geometry.subcarrier_frequencies()
    m = np.arange(geometry.num_antennas)
    k = np.arange(geometry.num_subcarriers)
    cos_theta = np.cos(np.radians(aoa_grid))
    per_mk = np.outer(m, f_k) * (geometry.element_spacing / SPEED_OF_LIGHT)
    aoa_phase = 2.0 * np.pi * cos_theta[:, None, None] * per_mk[None, :, :]
    tof_phase = 2.0 * np.pi * geometry.frequency_interval * np.outer(k, tof_grid)

    # Collapse antennas per angle first, then apply delay phases: O(I*M*K + I*K*J).
    per_angle = np.einsum("mk,imk->ik", csi.samples, np.exp(1j * aoa_phase))
    response = per_angle @ np.exp(1j * tof_phase)
    return AoaTofSpectrum(np.abs(response), aoa_grid, tof_grid)


TINY = float(np.nextafter(0.0, 1.0))  # the smallest threshold pick_peaks accepts
GEO_V = replace(GEO, orientation="vertical")
GEO_SMALL = ArrayGeometry(num_antennas=4, element_spacing=0.0125, num_subcarriers=16,
                          base_frequency=2.4e9, frequency_interval=1.25e6)


def noisy_frame(geometry, seed):
    targets = [(40.0 + 7 * seed % 100, (1 + seed % 5) * 60e-9, 1.0), (120.0, 700e-9, 0.6)]
    return synthesize_csi(targets, geometry, noise_std=0.4, seed=seed, timestamp=seed)


def grids(geometry, case):
    if case == "default":
        return default_aoa_grid(1.0), default_tof_grid(geometry, 64)
    if case == "coarse":
        return default_aoa_grid(7.5), default_tof_grid(geometry, 9)
    if case == "custom":
        return [3.0, 10.5, 44.0, 90.0, 91.0, 170.25], np.linspace(5e-9, 2e-6, 23)
    # Strided views: the cache keys and rebuilds them from contiguous bytes.
    return default_aoa_grid(0.5)[::3], default_tof_grid(geometry, 80)[1::4]


class TestGridBuilders:
    @pytest.mark.parametrize("step", [0.0, -1.0, np.nan, np.inf])
    def test_aoa_grid_refuses_a_step_that_is_not_finite_and_positive(self, step):
        with pytest.raises(InvalidInputError, match="step_deg must be finite and > 0"):
            default_aoa_grid(step)

    @pytest.mark.parametrize("num_bins", [0, -1, np.nan, np.inf, 1.5])
    def test_tof_grid_refuses_a_bin_count_that_is_not_a_positive_integer(self, num_bins):
        with pytest.raises(InvalidInputError, match="num_bins must be an integer >= 1"):
            default_tof_grid(GEO, num_bins)


class TestSteeringCache:
    """The cached bases give the same magnitudes, bit for bit, as rebuilding them."""

    def setup_method(self):
        radio._cached_bases.cache_clear()

    @pytest.mark.parametrize("case", ["default", "coarse", "custom", "strided"])
    @pytest.mark.parametrize("geometry", [GEO, GEO_V, GEO_SMALL], ids=["h", "v", "small"])
    def test_equals_uncached_oracle(self, geometry, case):
        aoa_grid, tof_grid = grids(geometry, case)
        for seed in range(3):
            frame = noisy_frame(geometry, seed)
            cached = compute_spectrum(frame, aoa_grid, tof_grid)
            oracle = uncached_spectrum(frame, aoa_grid, tof_grid)
            assert cached.magnitudes.dtype == oracle.magnitudes.dtype
            assert np.array_equal(cached.magnitudes, oracle.magnitudes)
            assert np.array_equal(cached.aoa_grid, oracle.aoa_grid)
            assert np.array_equal(cached.tof_grid, oracle.tof_grid)

    def test_repeated_and_interleaved_calls(self):
        rigs = [(GEO, grids(GEO, "default")), (GEO_V, grids(GEO_V, "default")),
                (GEO_SMALL, grids(GEO_SMALL, "custom"))]
        expected = {}
        for _ in range(3):
            for seed in range(4):
                for geometry, (aoa_grid, tof_grid) in rigs:
                    frame = noisy_frame(geometry, seed)
                    got = compute_spectrum(frame, aoa_grid, tof_grid).magnitudes
                    if (geometry, seed) not in expected:
                        oracle = uncached_spectrum(frame, aoa_grid, tof_grid)
                        expected[geometry, seed] = oracle.magnitudes
                    assert np.array_equal(got, expected[geometry, seed])
        info = radio._cached_bases.cache_info()
        assert (info.misses, info.currsize) == (2, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(2, 32), st.floats(0.005, 0.1),
           st.floats(1e9, 6e9), st.floats(1e4, 2e6),
           st.sampled_from(["default", "coarse", "custom", "strided"]),
           st.integers(0, 2**31 - 1))
    def test_any_rig_equals_uncached_oracle(self, antennas, subcarriers, spacing,
                                            base, interval, case, seed):
        geometry = ArrayGeometry(antennas, spacing, subcarriers, base, interval)
        rng = np.random.default_rng(seed)
        shape = (antennas, subcarriers)
        frame = CsiFrame(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                         geometry)
        aoa_grid, tof_grid = grids(geometry, case)
        cached = compute_spectrum(frame, aoa_grid, tof_grid).magnitudes
        assert np.array_equal(cached, uncached_spectrum(frame, aoa_grid, tof_grid).magnitudes)

    def test_angle_basis_is_k_major(self):
        # Summing over antennas walks contiguous memory only in this layout;
        # a transposed view of an (I, M, K) array would not.
        aoa_grid, tof_grid = map(np.asarray, grids(GEO_SMALL, "custom"))
        aoa_basis, tof_basis = radio._steering_bases(GEO_SMALL, aoa_grid, tof_grid)
        assert aoa_basis.shape == (aoa_grid.size, GEO_SMALL.num_subcarriers,
                                   GEO_SMALL.num_antennas)
        assert aoa_basis.flags.c_contiguous
        assert tof_basis.shape == (GEO_SMALL.num_subcarriers, tof_grid.size)

    def test_bases_are_read_only(self):
        aoa_basis, tof_basis = radio._steering_bases(GEO, *map(np.asarray, grids(GEO, "coarse")))
        for basis in (aoa_basis, tof_basis):
            with pytest.raises(ValueError):
                basis[0] = 0.0
            with pytest.raises(ValueError):
                basis *= 2.0

    def test_cache_stays_bounded(self):
        frame = noisy_frame(GEO_SMALL, 0)
        for step in np.linspace(5.0, 30.0, 25):
            compute_spectrum(frame, default_aoa_grid(step), default_tof_grid(GEO_SMALL, 4))
        info = radio._cached_bases.cache_info()
        assert info.misses == 25
        assert 0 < info.currsize <= info.maxsize

    def test_horizontal_and_vertical_share_one_entry(self):
        aoa_grid, tof_grid = grids(GEO, "default")
        compute_spectrum(noisy_frame(GEO, 1), aoa_grid, tof_grid)
        compute_spectrum(noisy_frame(GEO_V, 1), aoa_grid, default_tof_grid(GEO_V, 64))
        info = radio._cached_bases.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


class TestComputeSpectrum:
    def test_matches_scalar_oracle_on_random_frame(self):
        rng = np.random.default_rng(7)
        samples = rng.standard_normal((8, 32)) + 1j * rng.standard_normal((8, 32))
        frame = CsiFrame(samples=samples, geometry=GEO)
        aoa_grid = np.array([10.0, 45.0, 90.0, 131.0, 170.0])
        tof_grid = np.array([20e-9, 100e-9, 900e-9])
        spectrum = compute_spectrum(frame, aoa_grid, tof_grid)
        for i, aoa in enumerate(aoa_grid):
            for j, tof in enumerate(tof_grid):
                expected = response_oracle(frame, aoa, tof)
                assert spectrum.magnitudes[i, j] == pytest.approx(expected, rel=1e-10)

    def test_zero_frame_gives_zero_spectrum(self):
        frame = CsiFrame(samples=np.zeros((8, 32)), geometry=GEO)
        spectrum = compute_spectrum(frame, default_aoa_grid(5.0), default_tof_grid(GEO, 16))
        assert np.all(spectrum.magnitudes == 0.0)

    def test_linearity_in_amplitude(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((8, 32)) + 1j * rng.standard_normal((8, 32))
        frame = CsiFrame(samples=samples, geometry=GEO)
        scaled = CsiFrame(samples=2.0 * samples, geometry=GEO)
        grid_a = default_aoa_grid(10.0)
        grid_t = default_tof_grid(GEO, 8)
        base = compute_spectrum(frame, grid_a, grid_t).magnitudes
        doubled = compute_spectrum(scaled, grid_a, grid_t).magnitudes
        np.testing.assert_allclose(doubled, 2.0 * base, rtol=1e-9)

    def test_rejects_bad_grids(self):
        frame = CsiFrame(samples=np.zeros((8, 32)), geometry=GEO)
        with pytest.raises(InvalidInputError):
            compute_spectrum(frame, [], [1e-9])
        with pytest.raises(InvalidInputError):
            compute_spectrum(frame, [10.0, 5.0], [1e-9])

    @pytest.mark.parametrize("bad", [
        [np.nan], [np.inf], [-np.inf], [1.0, np.inf], [-np.inf, 1.0],
        [1.0, np.nan, 3.0], [1.0, 2.0, np.nan], [np.nan, 2.0], [5.0, 5.0],
    ])
    @pytest.mark.parametrize("axis", ["aoa_grid", "tof_grid"])
    def test_rejects_non_finite_grids(self, axis, bad):
        frame = noisy_frame(GEO_SMALL, 0)
        aoa_grid, tof_grid = grids(GEO_SMALL, "coarse")
        chosen = {"aoa_grid": aoa_grid, "tof_grid": tof_grid, axis: bad}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidInputError,
                               match=f"^{axis} must be finite and strictly ascending$"):
                compute_spectrum(frame, chosen["aoa_grid"], chosen["tof_grid"])
        assert caught == []

    def test_one_point_grids_are_accepted(self):
        spectrum = compute_spectrum(noisy_frame(GEO_SMALL, 1), [90.0], [1e-7])
        assert spectrum.magnitudes.shape == (1, 1)

    @pytest.mark.parametrize("scale", [1e306, 1e308, 1.7e308])
    def test_overflowing_response_names_the_spectrum(self, scale):
        frame = CsiFrame(samples=np.full((8, 32), scale + 0j), geometry=GEO, timestamp=4.0)
        aoa_grid, tof_grid = grids(GEO, "default")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidInputError,
                               match=r"^spectrum of CSI frame t=4\.0 overflows$"):
                compute_spectrum(frame, aoa_grid, tof_grid)
        assert caught == []

    def test_a_modulus_that_overflows_past_a_finite_product_names_the_frame(self):
        """Every component of the product stays finite, so no floating-point
        error is raised, but a modulus overflows in ``np.abs``."""
        geometry = ArrayGeometry(4, 0.0258, 8, 5.8e9, 312.5e3)
        frame = synthesize_csi([(109.0, 9e-7, 1e307)], geometry, noise_std=5e305, seed=7)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidInputError,
                               match=r"^spectrum of CSI frame t=0\.0 overflows$"):
                compute_spectrum(frame, default_aoa_grid(), default_tof_grid(geometry))
        assert caught == []

    def test_large_finite_frame_still_scales(self):
        # Far from overflow, a huge frame is scaled exactly like a unit one.
        rng = np.random.default_rng(4)
        samples = rng.standard_normal((8, 32)) + 1j * rng.standard_normal((8, 32))
        aoa_grid, tof_grid = grids(GEO, "coarse")
        base = compute_spectrum(CsiFrame(samples, GEO), aoa_grid, tof_grid).magnitudes
        big = compute_spectrum(CsiFrame(samples * 2.0**900, GEO), aoa_grid, tof_grid)
        np.testing.assert_allclose(big.magnitudes, base * 2.0**900, rtol=1e-12)


class TestSpectrumRecord:
    GRIDS = (np.arange(2.0), np.arange(1.0, 3.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
    def test_rejects_non_finite_or_negative_magnitudes(self, value):
        mags = np.ones((2, 2))
        mags[1, 0] = value
        with pytest.raises(InvalidInputError, match="^spectrum magnitudes must be"):
            AoaTofSpectrum(mags, *self.GRIDS)
        with pytest.raises(InvalidInputError, match="^spectrum magnitudes must be"):
            AoaTofSpectrum(np.full((2, 2), value), *self.GRIDS)

    def test_rejects_empty_magnitudes(self):
        with pytest.raises(InvalidInputError, match="^spectrum magnitudes must be non-empty"):
            AoaTofSpectrum(np.zeros((0, 2)), [], self.GRIDS[1])

    def test_accepts_zero_and_large_finite_magnitudes(self):
        mags = np.array([[0.0, -0.0], [1e308, np.finfo(float).max]])
        assert AoaTofSpectrum(mags, *self.GRIDS).magnitudes is mags


class TestSynthesize:
    def test_single_target_peaks_at_planted_bin(self):
        # Planted values sit exactly on grid points.
        aoa_grid = np.arange(0.0, 181.0, 5.0)
        tof_grid = np.linspace(5e-9, 100e-9, 20)
        frame = synthesize_csi([(90.0, 30e-9, 1.0)], GEO, noise_std=0.0)
        spectrum = compute_spectrum(frame, aoa_grid, tof_grid)
        i, j = np.unravel_index(np.argmax(spectrum.magnitudes), spectrum.magnitudes.shape)
        assert aoa_grid[i] == 90.0
        assert tof_grid[j] == pytest.approx(30e-9)
        # Matched filter gain is the full antenna-subcarrier product.
        assert spectrum.magnitudes[i, j] == pytest.approx(8 * 32, rel=1e-9)

    def test_zero_targets_zero_samples(self):
        frame = synthesize_csi([], GEO, noise_std=0.0)
        assert np.all(frame.samples == 0.0)

    def test_two_separated_targets_give_two_peaks(self):
        targets = [(60.0, 100e-9, 1.0), (120.0, 800e-9, 1.0)]
        frame = synthesize_csi(targets, GEO, noise_std=0.0)
        aoa_grid = default_aoa_grid(1.0)
        tof_grid = default_tof_grid(GEO, 64)
        spectrum = compute_spectrum(frame, aoa_grid, tof_grid)
        peaks = pick_peaks(spectrum, 0.5)
        oracle = peaks_oracle(spectrum.magnitudes, 0.5)
        assert {(p[0], p[1]) for p in peaks} >= {
            (aoa_grid[i], tof_grid[j]) for i, j in oracle
        }
        strong = [p for p in peaks if p[2] >= 0.5 * peaks[0][2]]
        angles = sorted(p[0] for p in strong[:2])
        assert len(strong) >= 2
        assert abs(angles[0] - 60.0) <= 1.0 and abs(angles[1] - 120.0) <= 1.0

    def test_deterministic_under_seed(self):
        a = synthesize_csi([(80.0, 50e-9, 1.0)], GEO, noise_std=0.2, seed=11)
        b = synthesize_csi([(80.0, 50e-9, 1.0)], GEO, noise_std=0.2, seed=11)
        c = synthesize_csi([(80.0, 50e-9, 1.0)], GEO, noise_std=0.2, seed=12)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_matched_filter_recovery_over_grid_sample(self):
        # Exhaustive plant-and-recover across a 10x10 sample of grid cells.
        aoa_grid = default_aoa_grid(2.0)
        tof_grid = default_tof_grid(GEO, 32)
        aoa_idx = np.linspace(0, aoa_grid.size - 1, 10).astype(int)
        tof_idx = np.linspace(0, tof_grid.size - 1, 10).astype(int)
        for ai in aoa_idx:
            for tj in tof_idx:
                frame = synthesize_csi(
                    [(float(aoa_grid[ai]), float(tof_grid[tj]), 1.0)], GEO, noise_std=0.0
                )
                spectrum = compute_spectrum(frame, aoa_grid, tof_grid)
                i, j = np.unravel_index(
                    np.argmax(spectrum.magnitudes), spectrum.magnitudes.shape
                )
                assert (i, j) == (ai, tj)

    def test_rejects_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            synthesize_csi([(90.0, 0.0, 1.0)], GEO)
        with pytest.raises(InvalidInputError):
            synthesize_csi([], GEO, noise_std=-0.1)
        with pytest.raises(InvalidInputError):
            synthesize_csi([], GEO, noise_std=float("nan"))
        with pytest.raises(InvalidInputError):
            ArrayGeometry(1, 0.02, 32, 5.8e9, 312.5e3)
        with pytest.raises(InvalidInputError):
            CsiFrame(samples=np.zeros((4, 4)), geometry=GEO)


class TestPickPeaks:
    def _spectrum(self, mags):
        mags = np.asarray(mags, dtype=float)
        return AoaTofSpectrum(
            magnitudes=mags,
            aoa_grid=np.arange(mags.shape[0], dtype=float),
            tof_grid=np.arange(1, mags.shape[1] + 1, dtype=float),
        )

    def test_single_planted_peak(self):
        mags = np.zeros((9, 9))
        mags[4, 5] = 2.5
        peaks = pick_peaks(self._spectrum(mags), 0.5)
        assert peaks == [(4.0, 6.0, 2.5)]

    def test_all_zero_means_nobody(self):
        assert pick_peaks(self._spectrum(np.zeros((5, 5))), 0.5) == []

    def test_sub_threshold_peak_dropped(self):
        mags = np.zeros((12, 12))
        mags[2, 2] = 1.0
        mags[8, 8] = 0.4
        peaks = pick_peaks(self._spectrum(mags), 0.5)
        assert [(p[0], p[1]) for p in peaks] == [(2.0, 3.0)]

    def test_plateau_global_max_still_reported(self):
        mags = np.zeros((6, 6))
        mags[2, 2] = mags[2, 3] = 3.0  # plateau, not a strict local max
        peaks = pick_peaks(self._spectrum(mags), 0.5)
        assert peaks[0][2] == 3.0

    def test_threshold_monotone_and_bounded(self):
        rng = np.random.default_rng(5)
        base = rng.random((20, 20))
        # Smooth a little so there are fewer, clearer maxima.
        mags = base + np.roll(base, 1, 0) + np.roll(base, 1, 1)
        spectrum = self._spectrum(mags)
        last_count = None
        for threshold in (0.2, 0.4, 0.6, 0.8, 1.0):
            peaks = pick_peaks(spectrum, threshold)
            assert all(p[2] >= threshold * mags.max() for p in peaks)
            if last_count is not None:
                assert len(peaks) <= last_count
            last_count = len(peaks)

    @pytest.mark.parametrize("threshold", [TINY, 0.05, 0.3, 0.5, 0.9, 1.0])
    def test_equals_oracle_on_seeded_frames(self, threshold):
        for geometry, case in ((GEO, "default"), (GEO_V, "coarse"), (GEO_SMALL, "custom")):
            aoa_grid, tof_grid = grids(geometry, case)
            for seed in range(6):
                spectrum = compute_spectrum(noisy_frame(geometry, seed), aoa_grid, tof_grid)
                peaks = pick_peaks(spectrum, threshold)
                assert peaks == neighbour_max_peaks(spectrum, threshold)
                assert peaks == peak_list_oracle(spectrum, threshold)

    @pytest.mark.parametrize("mags", [
        [[0.0, 0.0, 0.0], [0.0, 3.0, 3.0], [0.0, 0.0, 0.0]],  # plateau only
        [[2.0, 0.0, 0.0, 2.0], [0.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 2.0]],  # tied corners
        [[1.0, 2.0, 1.0, 2.0, 1.0]],  # one row, tied peaks
        [[1.0], [3.0], [2.0], [3.0]],  # one column
        [[5.0]],
        [[4.0, 4.0], [4.0, 4.0]],  # all equal: no strict peak
        [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]],  # diagonal ties
        [[0.0, 3.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 3.0, 3.0], [2.9, 0.0, 0.0, 0.0, 0.0]],
    ])
    def test_plateaus_and_ties_equal_oracle(self, mags):
        spectrum = self._spectrum(mags)
        for threshold in (TINY, 1e-9, 0.1, 0.5, 1.0):
            peaks = pick_peaks(spectrum, threshold)
            assert peaks == neighbour_max_peaks(spectrum, threshold)
            assert peaks == peak_list_oracle(spectrum, threshold)

    @pytest.mark.parametrize("mags", [
        [[3.0, 1.0, 3.0, 3.0, 0.0, 3.0]],  # 1xN: two strict ties at the max, one plateau
        [[3.0], [1.0], [3.0], [3.0], [0.0], [3.0]],  # the same as Nx1
        [[0.0, 2.0, 2.0, 2.0, 0.0]],  # 1xN plateau of three
        [[1.0], [1.0]],  # Nx1, all equal
        [[0.0, 0.0, 0.0]],  # 1xN, all zero: nobody
        [[2.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 2.0]],  # plateau tie beside a strict one
    ])
    def test_edges_and_global_ties_equal_neighbour_max(self, mags):
        spectrum = self._spectrum(mags)
        for threshold in (TINY, 1e-9, 0.5, 1.0):
            assert pick_peaks(spectrum, threshold) == neighbour_max_peaks(spectrum, threshold)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda cols: st.lists(
        st.lists(st.integers(0, 3).map(float), min_size=cols, max_size=cols),
        min_size=1, max_size=7)), st.sampled_from([TINY, 1e-9, 0.2, 0.5, 1.0]))
    def test_small_integer_grids_equal_oracle(self, mags, threshold):
        spectrum = self._spectrum(mags)
        peaks = pick_peaks(spectrum, threshold)
        assert peaks == neighbour_max_peaks(spectrum, threshold)
        assert peaks == peak_list_oracle(spectrum, threshold)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.booleans(), st.integers(0, 2**31 - 1),
           st.sampled_from([TINY, 1e-9, 0.5, 1.0]))
    def test_one_row_or_column_equals_neighbour_max(self, length, column, seed, threshold):
        values = np.random.default_rng(seed).integers(0, 4, length).astype(float)
        spectrum = self._spectrum(values[:, None] if column else values[None, :])
        assert pick_peaks(spectrum, threshold) == neighbour_max_peaks(spectrum, threshold)

    def test_rejects_bad_threshold(self):
        with pytest.raises(InvalidInputError):
            pick_peaks(self._spectrum(np.ones((3, 3))), 0.0)
        with pytest.raises(InvalidInputError):
            pick_peaks(self._spectrum(np.ones((3, 3))), 1.5)


class TestFuseAxes:
    def test_unique_pairing(self):
        estimates = fuse_axes(
            [(90.0, 30e-9, 1.0)], [(85.0, 30e-9, 0.9)], tof_tolerance=5e-9
        )
        assert len(estimates) == 1
        est = estimates[0]
        assert (est.aoa_h, est.aoa_v, est.tof) == (90.0, 85.0, 30e-9)
        assert est.magnitude == 0.9

    def test_tolerance_violated(self):
        assert fuse_axes(
            [(90.0, 30e-9, 1.0)], [(85.0, 50e-9, 0.9)], tof_tolerance=5e-9
        ) == []

    def test_greedy_by_magnitude(self):
        horizontal = [(70.0, 30e-9, 0.6), (110.0, 30e-9, 1.0)]
        vertical = [(95.0, 30e-9, 0.8)]
        estimates = fuse_axes(horizontal, vertical, tof_tolerance=5e-9)
        assert len(estimates) == 1
        assert estimates[0].aoa_h == 110.0  # stronger horizontal peak wins

    def test_no_vertical_reuse_and_count_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            horizontal = [
                (float(rng.uniform(10, 170)), float(rng.uniform(1e-9, 1e-6)), float(rng.uniform(0.1, 1)))
                for _ in range(rng.integers(0, 6))
            ]
            vertical = [
                (float(rng.uniform(10, 170)), float(rng.uniform(1e-9, 1e-6)), float(rng.uniform(0.1, 1)))
                for _ in range(rng.integers(0, 6))
            ]
            estimates = fuse_axes(horizontal, vertical, tof_tolerance=1e-3)
            assert len(estimates) <= min(len(horizontal), len(vertical))
            # Huge tolerance means greedy always finds a partner.
            assert len(estimates) == min(len(horizontal), len(vertical))
            assert len({e.identifier for e in estimates}) == len(estimates)

    def test_empty_inputs(self):
        assert fuse_axes([], [], tof_tolerance=1e-9) == []
        with pytest.raises(InvalidInputError):
            fuse_axes([], [], tof_tolerance=0.0)
        with pytest.raises(InvalidInputError):
            fuse_axes([], [], tof_tolerance=float("nan"))

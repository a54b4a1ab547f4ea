import warnings

import numpy as np
import pytest

from momentkit import (
    IllConditionedNodes,
    RankDeficientSignal,
    ToleranceSet,
    TrigSignal,
    trig_forward,
    trig_invert,
)


def _random_signal(rng, r, sep=0.3):
    freqs = []
    while len(freqs) < r:
        f = float(rng.uniform(-np.pi + 0.05, np.pi - 0.05))
        if all(min(abs(f - g), 2 * np.pi - abs(f - g)) >= sep for g in freqs):
            freqs.append(f)
    amps = [
        complex(rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        for _ in range(r)
    ]
    return TrigSignal(tuple(freqs), tuple(amps))


def test_forward_dc_signal():
    m = trig_forward(TrigSignal((0.0,), (1.0,)), 4)
    assert np.allclose(m, [1, 1, 1, 1])


def test_forward_alternating_signal():
    m = trig_forward(TrigSignal((np.pi,), (1.0,)), 3)
    assert np.allclose(m, [1, -1, 1])


def test_forward_superposition():
    m = trig_forward(TrigSignal((0.0, np.pi), (1.0, 1.0)), 4)
    assert np.allclose(m, [2, 0, 2, 0])


def test_invert_single_dc_mode():
    sig = trig_invert([1.0, 1.0], 1)
    assert sig.freqs == (0.0,)
    assert np.allclose(sig.amps, [1.0])


def test_invert_two_modes():
    sig = trig_invert([2.0, 0.0, 2.0, 0.0], 2)
    assert np.allclose(sig.freqs, [0.0, np.pi])
    assert np.allclose(sig.amps, [1.0, 1.0])


def test_invert_nyquist_mode():
    sig = trig_invert([1.0, -1.0], 1)
    assert np.allclose(sig.freqs, [np.pi])
    assert np.allclose(sig.amps, [1.0])


def test_round_trip_random():
    rng = np.random.default_rng(61)
    for _ in range(40):
        r = int(rng.integers(1, 5))
        sig = _random_signal(rng, r)
        recovered = trig_invert(trig_forward(sig, 2 * r), r)
        assert np.allclose(sorted(recovered.freqs), sorted(sig.freqs), atol=1e-8)
        order_in = np.argsort(sig.freqs)
        amps_in = np.asarray(sig.amps)[order_in]
        assert np.allclose(recovered.amps, amps_in, atol=1e-8)


def test_unit_circle_diagnostic():
    rng = np.random.default_rng(62)
    for _ in range(20):
        r = int(rng.integers(1, 5))
        sig = _random_signal(rng, r)
        _, info = trig_invert(trig_forward(sig, 2 * r), r, full_output=True)
        assert max(info["unit_circle_deviation"]) <= 1e-8


def test_fft_grid_cross_check():
    # frequencies on the exact DFT grid: recovered amplitudes must match
    # the DFT bins of the length-N sample sequence
    rng = np.random.default_rng(63)
    N = 16
    r = 3
    bins = rng.choice(N, size=r, replace=False)
    freqs = [float(np.angle(np.exp(2j * np.pi * q / N))) for q in bins]
    amps = [complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1)) for _ in range(r)]
    sig = TrigSignal(tuple(freqs), tuple(amps))
    samples = trig_forward(sig, N)
    spectrum = np.fft.fft(samples) / N
    recovered = trig_invert(samples[: 2 * r], r)
    for f, a in zip(recovered.freqs, recovered.amps):
        q = int(round((f % (2 * np.pi)) * N / (2 * np.pi))) % N
        assert abs(a - spectrum[q]) <= 1e-8


def test_rank_deficient_signal_rejected():
    sig = TrigSignal((0.7,), (1.0,))
    m = trig_forward(sig, 4)
    with pytest.raises(RankDeficientSignal):
        trig_invert(m, 2)


def test_close_nodes_rejected():
    sig = TrigSignal((0.4, 0.4 + 1e-3), (1.0, 1.0))
    m = trig_forward(sig, 4)
    with pytest.raises(IllConditionedNodes):
        trig_invert(m, 2, tol=ToleranceSet(separation=1e-2))


def test_moment_count_validated():
    with pytest.raises(ValueError):
        trig_invert([1.0, 1.0, 1.0], 2)


@pytest.mark.parametrize("make, match", [
    (lambda: TrigSignal((0.1,), ()), "same length"),
    (lambda: trig_forward(TrigSignal((0.1,), (1.0,)), 0), "count must be >= 1"),
    (lambda: trig_invert([1.0, 1.0], 0), "mode count must be >= 1"),
], ids=["lengths", "forward-count-0", "modes-0"])
def test_invalid_arguments_rejected(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_forward_moments_that_overflow_raise():
    # m_0 = 1e308 + 1e308 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"m_0 is not finite \(\(inf\+0j\)\): the exponential sums overflow"):
            trig_forward(TrigSignal((0.5, 0.5), (1e308, 1e308)), 2)
        # the first moment is finite here: 1e308 * (1 - 1) = 0
        with pytest.raises(ValueError, match=r"m_1 is not finite"):
            trig_forward(TrigSignal((0.0, np.pi), (1e308, -1e308)), 3)


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), complex(1.0, float("inf"))], ids=repr)
def test_non_finite_input_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        trig_invert([bad, 1.0], 1)
    with pytest.raises(ValueError, match="finite"):
        TrigSignal((0.0,), (bad,))
    if isinstance(bad, float):
        with pytest.raises(ValueError, match="finite"):
            TrigSignal((bad,), (1.0,))

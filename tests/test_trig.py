import warnings

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from momentkit import (
    IllConditionedNodes,
    RankDeficientSignal,
    ToleranceSet,
    TrigSignal,
    trig_forward,
    trig_invert,
)
from momentkit import _lapack, trig
from momentkit.tolerances import DEFAULT_TOLERANCES, _count_above


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


def test_pencil_index_table_is_read_only():
    # H0 = m[i + j] and H1 = m[i + j + 1] for i, j < r; the table is cached on r alone
    table = trig._pencil_index(3)
    assert table.tolist() == [
        [[0, 1, 2], [1, 2, 3], [2, 3, 4]],
        [[1, 2, 3], [2, 3, 4], [3, 4, 5]],
    ] and not table.flags.writeable
    assert trig._pencil_index(3) is table
    with pytest.raises(ValueError):
        table[...] = 0


def test_rank_deficient_signal_rejected():
    sig = TrigSignal((0.7,), (1.0,))
    m = trig_forward(sig, 4)
    with pytest.raises(RankDeficientSignal):
        trig_invert(m, 2)


def _reference_trig_invert(m, r, tol):
    """``trig_invert(m, r, tol=tol, full_output=True)`` on finite moments
    with the tail that sorted twice: the angles by ``np.angle``, the
    separation check on ``sorted``, the result's order by ``np.argsort``."""
    mv = np.array(m, dtype=complex)
    H0, H1 = mv[trig._pencil_index(r)]
    rank = _count_above(_lapack.svd(H0), tol.rank)
    if rank < r:
        raise RankDeficientSignal(f"moment matrix rank {rank} < requested modes {r}")
    eigs = _lapack.eigvals(_lapack.solve(H0, H1))
    freqs = np.angle(eigs)
    f = freqs.tolist()
    g = sorted(f)
    for pair in zip(g, g[1:] + g[:1]) if r > 1 else ():
        if trig._angular_gap(*pair) < tol.separation:
            a, b = sorted(pair, key=f.index)
            raise IllConditionedNodes(f"frequencies {a} and {b} closer than {tol.separation}")
    nodes = np.exp(1j * freqs)
    V = nodes[None, :] ** np.arange(r)[:, None]
    amps = _lapack.solve(V, mv[:r])
    order = np.argsort(freqs)
    sig = TrigSignal(tuple(freqs[order].tolist()), tuple(amps[order].tolist()))
    info = {
        "eigenvalues": eigs[order].tolist(),
        "unit_circle_deviation": np.abs(np.abs(eigs[order]) - 1.0).tolist(),
    }
    return sig, info


def _outcome(call):
    try:
        return call()
    except (IllConditionedNodes, RankDeficientSignal) as exc:
        return exc


def _bits(outcome):
    """A trig_invert outcome with every float as its bytes."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    sig, info = outcome
    return tuple(np.array(v).tobytes() for v in (sig.freqs, sig.amps, info["eigenvalues"], info["unit_circle_deviation"]))


def test_the_tail_matches_the_two_sort_reference_bit_for_bit():
    rng = np.random.default_rng(64)
    # the wide separation rejects some signals, which names a pair
    tols = (DEFAULT_TOLERANCES, ToleranceSet(separation=0.3))
    kinds = []
    for r in range(1, 9):
        for _ in range(25):
            m = trig_forward(_random_signal(rng, r, sep=0.1), 2 * r)
            for tol in tols:
                got = _bits(_outcome(lambda: trig_invert(m, r, tol=tol, full_output=True)))
                assert got == _bits(_outcome(lambda: _reference_trig_invert(m, r, tol)))
                kinds.append(got[0] if isinstance(got[0], type) else "ok")
    assert {"ok", IllConditionedNodes} <= set(kinds)


def _close_pair_message(w, tol):
    """The IllConditionedNodes message for pencil eigenvalues ``w`` with
    one pair of angles within ``tol.separation``: the pair in the order
    ``w`` holds them."""
    f = np.angle(w).tolist()
    [(a, b)] = [(a, b) for i, a in enumerate(f) for b in f[i + 1:] if trig._angular_gap(a, b) < tol.separation]
    return f"frequencies {a} and {b} closer than {tol.separation}"


def test_close_nodes_rejected(monkeypatch):
    tol = ToleranceSet(separation=1e-2)
    seen = []
    eigvals = _lapack.eigvals
    monkeypatch.setattr(_lapack, "eigvals", lambda M: seen.append(eigvals(M)) or seen[-1])
    for freqs in (
        (0.4, 0.4 + 1e-3),
        # 2e-3 apart on the circle, across +-pi, and 2 pi - 2e-3 apart as numbers
        (np.pi - 1e-3, 0.0, -np.pi + 1e-3),
        # the close pair is not adjacent in input order
        (0.4, -2.0, 2.0, 0.4 + 1e-3),
    ):
        m = trig_forward(TrigSignal(freqs, (1.0,) * len(freqs)), 2 * len(freqs))
        with pytest.raises(IllConditionedNodes) as raised:
            trig_invert(m, len(freqs), tol=tol)
        assert str(raised.value) == _close_pair_message(seen[-1], tol)
        # the same signal passes where the separation asked for is below its gap
        assert len(trig_invert(m, len(freqs), tol=ToleranceSet(separation=1e-4)).freqs) == len(freqs)
    # the pencil's eigenvalues come in no set order: returned with the close
    # pair apart, -2.0 between 0.4 and 0.401, they are still rejected, and
    # the pair is named in the order returned, either way round
    for permutation, first in (([1, 0, 2, 3], 0), ([2, 0, 1, 3], 1)):

        def apart(M, permutation=permutation):
            w = eigvals(M)
            seen.append(w[np.argsort(np.angle(w))[permutation]])
            return seen[-1]

        monkeypatch.setattr(_lapack, "eigvals", apart)
        with pytest.raises(IllConditionedNodes) as raised:
            trig_invert(m, 4, tol=tol)
        pair = sorted(np.angle(seen[-1]).tolist())[1:3]  # near 0.4 and 0.401
        a, b = pair[first], pair[1 - first]
        assert str(raised.value) == f"frequencies {a} and {b} closer than {tol.separation}"


def test_moment_count_validated():
    with pytest.raises(ValueError):
        trig_invert([1.0, 1.0, 1.0], 2)


@pytest.mark.parametrize("make, match", [
    (lambda: TrigSignal((0.1,), ()), "same length"),
    (lambda: trig_forward(TrigSignal((0.1,), (1.0,)), 0), "count must be >= 1"),
    (lambda: trig_invert([1.0, 1.0], 0), "mode count must be >= 1"),
    # 2.5 made 3 moments, and 2.0 failed in the Hankel indexing
    (lambda: trig_forward(TrigSignal((0.1,), (1.0,)), 2.5), "^count must be an integer, got 2.5$"),
    (lambda: trig_invert([2, 0, 2, 0], 2.0), "^mode count must be an integer, got 2.0$"),
], ids=["lengths", "forward-count-0", "modes-0", "forward-count-float", "modes-float"])
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


def _overflowing_solve(monkeypatch, ndim, bad):
    """Make ``_lapack.solve`` put ``bad`` into its result for a right-hand
    side of ``ndim`` dimensions: the pencil (2) or the amplitudes (1)."""
    solve = _lapack.solve

    def overflowing(a, b):
        x = solve(a, b)
        if b.ndim == ndim:
            x.flat[-1] = bad
        return x

    monkeypatch.setattr(_lapack, "solve", overflowing)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf), complex(np.nan, 1.0)], ids=repr)
def test_a_non_finite_pencil_raises_numpys_error(monkeypatch, bad):
    # the moments are finite, but H0^-1 H1 can overflow: numpy's error for
    # an eigenvalue input with an inf or NaN, before any eigenvalue is taken
    _overflowing_solve(monkeypatch, 2, bad)
    monkeypatch.setattr(_lapack, "eigvals", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinAlgError, match="^Array must not contain infs or NaNs$"):
            trig_invert([2, 0, 2, 0], 2)


@pytest.mark.parametrize("bad", [np.inf, np.nan, complex(1.0, -np.inf)], ids=repr)
def test_a_non_finite_amplitude_raises(monkeypatch, bad):
    _overflowing_solve(monkeypatch, 1, bad)
    with pytest.raises(ValueError, match="^amps must be finite complex numbers$"):
        trig_invert([2, 0, 2, 0], 2)

"""The chunked sweep contract.

Broken rows count as indeterminate and never witness, violate or set the
largest argument step; chunks tied on the smallest margin keep the first witness.
"""

import numpy as np
import pytest

import crown
import crown.convexity
import crown.domains
from crown.errors import NumericalBreakdown
from crown.parallel import CHUNK
from crown.weyl import FULL_OMEGA, MEMBERSHIP_TOL, OmegaSpec, hull_margins_batch, omega_margin

OMEGA = OmegaSpec("scale", scale=0.95)


def _break_rows(monkeypatch, module, margin_of):
    """Wrap module.track_batch so that broken rows hide every smallest margin.

    Every row of the first call comes back bad, then the lower-margin half of the
    second; later calls lose the rows below the second call's good minimum, so that
    minimum is the report's.  Bad rows are NaN, imaginary parts too, with a huge
    argument step.  Returns the per-call record [(margins, max_steps, bad)].
    """
    original = module.track_batch
    calls = []

    def broken(ctx, gs, xs, *rest):
        log_full, lower, max_steps, segments, bad = original(ctx, gs, xs, *rest)
        log_full, max_steps, bad = log_full.copy(), max_steps.copy(), bad.copy()
        margins = margin_of(ctx, xs, log_full[:, : ctx.n].imag)
        if len(calls) == 0:
            bad[:] = True
        elif len(calls) == 1:
            bad[np.argsort(margins, kind="stable")[: len(bad) // 2]] = True
        else:
            kept, _, lost = calls[1]
            bad |= margins <= np.min(kept[~lost])
        log_full[bad] = complex(np.nan, np.nan)
        max_steps[bad] = 99.0
        calls.append((margins, max_steps, bad))
        return log_full, lower, max_steps, segments, bad

    monkeypatch.setattr(module, "track_batch", broken)
    return calls


def _expected(calls):
    """(completed, indeterminate, min margin, its flat index, max arg step) over good rows."""
    margins = np.concatenate([np.where(bad, np.inf, m) for m, _, bad in calls])
    steps = np.concatenate([np.where(bad, -np.inf, s) for _, s, bad in calls])
    bad = np.concatenate([b for *_, b in calls])
    i_min = int(np.argmin(margins))
    return int((~bad).sum()), int(bad.sum()), float(margins[i_min]), i_min, float(steps.max())


def test_broken_rows_in_convexity_sweep(monkeypatch, sl3):
    calls = _break_rows(monkeypatch, crown.convexity,
                        lambda ctx, xs, ys: hull_margins_batch(ctx, xs, ys, MEMBERSHIP_TOL))
    samples = 2 * CHUNK + 176
    rep = crown.verify_complex_convexity(sl3, FULL_OMEGA, samples, seed=7)
    completed, indeterminate, min_margin, i_min, max_step = _expected(calls)
    assert (rep.samples_completed, rep.samples_indeterminate) == (completed, indeterminate)
    assert indeterminate >= CHUNK + CHUNK // 2
    assert CHUNK <= i_min < 2 * CHUNK
    assert rep.min_margin == min_margin
    assert rep.worst_witness["sample_index"] == i_min
    assert rep.worst_witness["margin"] == min_margin
    assert rep.extras["max_arg_step"] == max_step < 99.0
    assert rep.violations == 0


def test_broken_rows_in_tube_sweep(monkeypatch, sl3):
    calls = _break_rows(monkeypatch, crown.domains,
                        lambda ctx, xs, ys: omega_margin(ctx, OMEGA, ys))
    z_count, k_count = 40, 30
    rep = crown.verify_tube_intersection(sl3, OMEGA, z_count, k_count, seed=9)
    completed, indeterminate, min_margin, i_min, max_step = _expected(calls)
    assert (rep.samples_completed, rep.samples_indeterminate) == (completed, indeterminate)
    assert indeterminate >= CHUNK + CHUNK // 2
    assert CHUNK <= i_min < 2 * CHUNK
    assert rep.min_margin == min_margin
    assert (rep.worst_witness["z_index"], rep.worst_witness["k_index"]) == divmod(i_min, k_count)
    assert rep.worst_witness["margin"] == min_margin
    assert rep.extras["max_arg_step"] == max_step < 99.0


@pytest.mark.parametrize("mode", ["k", "full-g"])
def test_tied_chunks_keep_the_first_witness(monkeypatch, sl3, mode):
    # sample i + CHUNK draws from the stream of sample i, so both chunks reach the same margin
    original = crown.convexity.substream
    monkeypatch.setattr(crown.convexity, "substream", lambda seed, i: original(seed, i % CHUNK))
    rep = crown.verify_complex_convexity(sl3, FULL_OMEGA, 2 * CHUNK, seed=3, mode=mode)
    first = crown.verify_complex_convexity(sl3, FULL_OMEGA, CHUNK, seed=3, mode=mode)
    assert rep.min_margin == first.min_margin
    assert rep.worst_witness == first.worst_witness
    assert rep.worst_witness["sample_index"] < CHUNK


def test_broken_rows_in_siegel_cross_check(monkeypatch, sp2):
    # the row of the smallest margin breaks in minor_ratios and the row of the largest
    # value gap comes back bad from track_batch; both are tracked 10 too high, so
    # either would set the value gap if it were read
    import crown.siegel as siegel_mod
    real_track, real_ratios = siegel_mod.track_batch, siegel_mod.minor_ratios
    samples, n = 120, sp2.n
    rows = {"y_crown": [], "w": [], "ratios": []}

    def recording_track(ctx, gs, xs):
        out = real_track(ctx, gs, xs)
        rows["y_crown"].append(out[0][0, :n].imag)
        return out

    def recording_ratios(w):
        rows["w"].append(w)
        rows["ratios"].append(real_ratios(w))
        return rows["ratios"][-1]

    monkeypatch.setattr(siegel_mod, "track_batch", recording_track)
    monkeypatch.setattr(siegel_mod, "minor_ratios", recording_ratios)
    clean = crown.cross_check_crown(sp2, samples, seed=31)
    y_siegel = [0.5 * np.angle(r / 1j) for r in rows["ratios"]]
    margins = np.array([np.pi / 4.0 - np.abs(y).max() for y in y_siegel])
    gaps = np.array([np.abs(np.sort(ys) - np.sort(yc)).max()
                     for ys, yc in zip(y_siegel, rows["y_crown"])])
    r_minor, r_track = int(np.argmin(margins)), int(np.argmax(gaps))
    assert r_minor != r_track and clean.samples_indeterminate == 0 == clean.violations
    assert clean.worst_witness["sample_index"] == r_minor
    assert (clean.min_margin, clean.extras["max_value_gap_monitored"]) == (
        margins[r_minor], gaps[r_track])

    track_calls, ratio_calls = [], []

    def broken_track(ctx, gs, xs):
        log_full, lower, max_steps, segments, bad = real_track(ctx, gs, xs)
        if len(track_calls) in (r_minor, r_track):
            log_full = log_full + 10j
        if len(track_calls) == r_track:
            bad = np.ones_like(bad)
        track_calls.append(bad[0])
        return log_full, lower, max_steps, segments, bad

    def broken_ratios(w):
        ratio_calls.append(w)
        if np.array_equal(w, rows["w"][r_minor]):
            raise NumericalBreakdown("forced")
        return real_ratios(w)

    monkeypatch.setattr(siegel_mod, "track_batch", broken_track)
    monkeypatch.setattr(siegel_mod, "minor_ratios", broken_ratios)
    rep = crown.cross_check_crown(sp2, samples, seed=31)
    good = np.ones(samples, dtype=bool)
    good[[r_minor, r_track]] = False
    assert len(track_calls) == samples and len(ratio_calls) == samples - 1
    assert (rep.samples_completed, rep.samples_indeterminate) == (samples - 2, 2)
    assert rep.violations == 0
    i_min = int(np.argmin(np.where(good, margins, np.inf)))
    assert rep.min_margin == margins[i_min] > clean.min_margin
    assert rep.worst_witness["sample_index"] == i_min
    assert rep.extras["max_value_gap_monitored"] == gaps[good].max() < gaps[r_track]

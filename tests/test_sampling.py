"""Batch-first samplers against the frozen one-sample-at-a-time draws.

A batch must equal its samples drawn one by one, bit for bit, and leave every
generator at the same point of its stream.  The stacked K projection and
group-membership check must agree with their single-matrix calls.  Every
stream is Philox keyed by (seed, index).
"""

import numpy as np
import pytest

from conftest import context
from crown.rng import NS_AUX, NS_TUBE, substream
from crown.sampling import P_RADIUS, haar_k, k_project, sample_group_element
from oracles import reference_group_element, reference_haar_k

GROUPS = ["sl:2", "sl:3", "sl:4", "sl:5", "sp:1", "sp:2", "sp:3"]


def _draw_batch(ctx, sampler, rngs):
    if sampler == "haar_k":
        return haar_k(ctx, rngs)
    return sample_group_element(ctx, rngs, sampler)


def _draw_reference(ctx, sampler, rng):
    if sampler == "haar_k":
        return reference_haar_k(ctx, rng)
    return reference_group_element(ctx, rng, sampler, P_RADIUS)


@pytest.mark.parametrize("batch", [1, 512])
@pytest.mark.parametrize("sampler", ["haar_k", "k", "full-g"])
@pytest.mark.parametrize("label", GROUPS)
def test_batch_matches_scalar_reference(label, sampler, batch):
    ctx = context(label)
    rngs = [substream(17, i) for i in range(batch)]
    ref_rngs = [substream(17, i) for i in range(batch)]
    got = _draw_batch(ctx, sampler, rngs)
    want = np.array([_draw_reference(ctx, sampler, rng) for rng in ref_rngs])
    assert got.shape == want.shape == (batch, ctx.ambient_size, ctx.ambient_size)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert [rng.uniform() for rng in rngs] == [rng.uniform() for rng in ref_rngs]


def test_unknown_mode_raises(sl3):
    with pytest.raises(ValueError):
        sample_group_element(sl3, [substream(0, 0)], "p")


def _drifted_stack(ctx, count, scales):
    """Group elements pushed off the group by Gaussian noise of the given sizes."""
    rngs = [substream(23, i) for i in range(count)]
    gs = sample_group_element(ctx, rngs, "full-g")
    noise = np.array([rng.standard_normal(gs.shape[1:]) for rng in rngs])
    return gs + np.asarray(scales)[:, None, None] * noise


@pytest.mark.parametrize("label", ["sl:3", "sp:2"])
def test_stacked_k_project_matches_single_calls(label):
    ctx = context(label)
    rngs = [substream(29, i) for i in range(64)]
    drifted = haar_k(ctx, rngs) + 1e-3 * np.array(
        [rng.standard_normal((ctx.ambient_size,) * 2) for rng in rngs])
    got = k_project(ctx, drifted)
    want = np.array([k_project(ctx, k) for k in drifted])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("label", ["sl:3", "sp:2"])
def test_stacked_group_residual_matches_single_calls(label):
    ctx = context(label)
    # drift from 1e-16 to 1e-6 straddles GROUP_TOL
    drifted = _drifted_stack(ctx, 64, 10.0 ** np.linspace(-16, -6, 64))
    single = [ctx.group_residual(g) for g in drifted]
    assert all(type(value) is float for value in single)
    assert ctx.group_residual(drifted).tolist() == single
    decisions = ctx.in_group(drifted)
    assert decisions.tolist() == [ctx.in_group(g) for g in drifted]
    assert 0 < decisions.sum() < len(drifted)


@pytest.mark.parametrize("index", [0, NS_TUBE + 3, NS_AUX])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
def test_substream_is_philox_keyed_by_seed_and_index(seed, index):
    got = substream(seed, index)
    want = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    np.testing.assert_equal(got.bit_generator.state, want.bit_generator.state)
    assert np.array_equal(got.random(9), want.random(9))
    assert np.array_equal(got.standard_normal(5), want.standard_normal(5))
    np.testing.assert_equal(got.bit_generator.state, want.bit_generator.state)


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint32), (1, np.uint64),
                                            (4, np.uint64)])
def test_substream_key_serves_only_two_uint64_words(n_words, dtype):
    seed_seq = substream(7, 3).bit_generator.seed_seq
    assert np.array_equal(seed_seq.generate_state(2, np.uint64), [7, 3])
    with pytest.raises(ValueError, match="two uint64 words"):
        seed_seq.generate_state(n_words, dtype)

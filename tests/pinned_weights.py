"""The seeded tiny decoders whose outputs the decode and reward pins hold.

``test_decoders.PINNED_DECODES`` and ``test_training.PINNED_REWARD_STEPS``
pin outputs of these decoders bit for bit, so both draw the weights here.
"""

import numpy as np

from capgen.testkit import tiny_decoder

# weight scale of the pinned decoders; DA's word head saturates at 2.0
# (every step emits word 4 with p = 1.0) and its reward step samples
# greedy's caption at 1.0, so it is pinned at 0.75
PIN_SCALES = {"da": 0.75}


def wide_decoder(variant, scale=None):
    """A tiny decoder (hidden 8, vocabulary 12, seed 5) and its feature
    dims, with every parameter redrawn, in ``parameters()`` order, as
    standard normals of one rng seeded 1 times ``scale`` (None: the
    variant's pin scale): wide enough that captions vary from step to
    step."""
    if scale is None:
        scale = PIN_SCALES.get(variant, 2.0)
    dec, dims = tiny_decoder(variant, hidden=8, vocab_size=12, seed=5)
    wide = np.random.default_rng(1)
    for p in dec.parameters().values():
        p.data[...] = wide.standard_normal(p.data.shape) * scale
    return dec, dims

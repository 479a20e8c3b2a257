"""Shared verification harness: tiny decoder instances and gradient probes.

Used by the ``gradcheck`` CLI subcommand and by the acceptance suite, so
both run the identical check.
"""

from __future__ import annotations

import numpy as np

from .data import BOS_ID, EOS_ID, CaptionBatch, FeatureSet
from .gradcheck import check_gradients
from .training import _batch_loss, build_decoder

__all__ = ["tiny_widths", "decoder_gradcheck"]


def tiny_features(rng: np.random.Generator, frames: int, dim: int,
                  motion_dim: int, region_dim: int, global_dim: int,
                  segments: int = 3) -> FeatureSet:
    return FeatureSet(
        temporal=rng.standard_normal((frames, dim)),
        spatial=rng.standard_normal((frames, region_dim)),
        motion=rng.standard_normal((segments, motion_dim)),
        global_vec=rng.standard_normal(global_dim),
    )


def tiny_widths(variant: str, hidden: int) -> dict:
    """The widths that a tiny ``variant`` decoder of hidden width ``hidden``
    derives: its feature dims and, as ``attn_dim``, hidden - 1.

    Feature widths track the blend constraints: variants with the scalar
    gate need the attended context as wide as the hidden state, conf
    splits that width across the two feature kinds.
    """
    if variant == "da":
        dims = {"dim": hidden, "motion_dim": hidden, "region_dim": hidden - 2,
                "global_dim": hidden - 3}
    elif variant == "conf":
        dims = {"dim": hidden // 2, "motion_dim": hidden - hidden // 2,
                "region_dim": hidden // 2, "global_dim": hidden}
    else:
        dims = dict.fromkeys(("dim", "motion_dim", "region_dim", "global_dim"), hidden)
    return {**dims, "attn_dim": hidden - 1}


def tiny_decoder(variant: str, hidden: int = 8, vocab_size: int = 12,
                 seed: int = 0):
    """A desk-scale decoder plus matching feature dims (``tiny_widths``)
    for probing.  The decoder comes from ``training.build_decoder`` on a
    ``tiny_features`` probe of those dims, as ``train`` builds one."""
    dims = tiny_widths(variant, hidden)
    attn_dim = dims.pop("attn_dim")
    probe = tiny_features(np.random.default_rng(0), 1, **dims)
    return build_decoder(variant, vocab_size, probe, hidden, hidden, attn_dim,
                         seed=seed), dims


def tiny_caption(rng: np.random.Generator, vocab_size: int, words: int = 3) -> list[int]:
    body = rng.integers(4, vocab_size, size=words).tolist()
    return [BOS_ID] + [int(t) for t in body] + [EOS_ID]


def decoder_gradcheck(variant: str, hidden: int = 8, vocab_size: int = 12,
                      frames: int = 4, seed: int = 0, batch: int = 1) -> float:
    """Max relative error of the teacher-forced MLE gradient vs central
    finite differences, over every parameter of the variant.

    The loss is the training loss (``training._batch_loss``, with dropout
    off) of one batch of ``batch`` captions; two-stream's is the sum of its
    streams' losses.  Caption b has ``2 + b`` words and its features
    ``frames + b`` rows (and ``3 + b`` motion segments)."""
    rng = np.random.default_rng(seed)
    decoder, dims = tiny_decoder(variant, hidden, vocab_size, seed)
    feats = [tiny_features(rng, frames + b, dims["dim"], dims["motion_dim"],
                           dims["region_dim"], dims["global_dim"], segments=3 + b)
             for b in range(batch)]
    targets = CaptionBatch.from_id_seqs([tiny_caption(rng, vocab_size, 2 + b)
                                         for b in range(batch)])
    return check_gradients(lambda: _batch_loss(decoder, feats, targets),
                           decoder.parameters())

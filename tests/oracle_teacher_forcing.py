"""Reference teacher forcing for the decoder tests.

This is the per-step formulation: one ``init_state`` per caption, then
a one-row ``step`` per ground-truth word, taking the log of each step's
word distribution.  Any decoder of the step protocol runs through it,
the two-stream decoder's fused distribution included.  The batched
passes' log-probs and gradients must equal it within rounding.

It shares no code with the batched passes of ``decoders.py``.  DA's is
different: ``DeliberateDecoder.forward_teacher_forced`` and ``da_step``
run one step body, so for DA this oracle checks the batch padding, the
GEMM products against the per-row ones and the word head run once over
the batch, not the equations.  Those are checked by
``test_da.py::manual_da_step``, an independent numpy replay of the step.
"""

from capgen.data import FeatureSet
from capgen.tensor import concat, log, reshape, stack_rows, zeros


def teacher_forced(decoder, features, tokens, rng=None):
    """Log-probs (T, vocab): step t consumes ground-truth token t-1.  A
    batch (B ``FeatureSet``s and a ``CaptionBatch``) runs caption by
    caption, sharing ``rng`` in batch order, and returns (B, T, vocab),
    each caption's rows padded with zeros to the batch's T.
    """
    if not isinstance(features, FeatureSet):
        return _pad_stack([teacher_forced(decoder, f, ids[:n], rng)
                           for f, ids, n in zip(features, tokens.tokens, tokens.lengths)],
                          tokens.steps)
    state = decoder.init_state([features])
    rows = []
    for t in range(1, len(tokens)):
        p, state = decoder.step(state, [int(tokens[t - 1])], rng)
        rows.append(log(p))
    return _unstack(rows)


def _unstack(rows):
    """One-row (1, V) log-probs of T steps as a (T, V) matrix."""
    return reshape(stack_rows(rows), (len(rows), rows[0].shape[1]))


def _pad_stack(rows, steps):
    """Stack (T_b, V) log-prob matrices into (B, steps, V), zero-padded."""
    return stack_rows([lp if lp.shape[0] == steps
                       else concat([lp, zeros(steps - lp.shape[0], lp.shape[1])])
                       for lp in rows])

"""Reference beam search for the search tests.

This is the candidate-list formulation: every step builds one Python
tuple per (hypothesis, token) candidate and sorts all of them by
(-score, token tuple).  Each hypothesis keeps its own one-row decoder
state and steps on its own.  It shares no selection code with the
package's matrix search, which steps all hypotheses as the rows of one
state, and whose captions and log-probs must equal it exactly.
"""

import numpy as np

from capgen.data import BOS_ID, EOS_ID


class _Hyp:
    def __init__(self, tokens, logprob, state):
        self.tokens, self.logprob, self.state = tokens, logprob, state


def beam_search(decoder, features, k=5, max_len=30):
    """Return (tokens, logprob) of the best caption."""
    live = [_Hyp((), 0.0, decoder.init_state([features]))]
    completed = []
    for _ in range(max_len):
        candidates = []
        for hyp in live:
            prev = hyp.tokens[-1] if hyp.tokens else BOS_ID
            p, state = decoder.step(hyp.state, [prev])
            pd = p.data[0]
            for tok in range(pd.shape[0]):
                if pd[tok] <= 0.0:
                    continue
                candidates.append((hyp.logprob + float(np.log(pd[tok])),
                                   hyp.tokens + (tok,), tok, hyp, state))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        new_live = []
        for score, toks, tok, hyp, state in candidates[:k]:
            if tok == EOS_ID:
                completed.append(_Hyp(toks[:-1], score, state))
            else:
                new_live.append(_Hyp(toks, score, state))
        completed.sort(key=lambda h: (-h.logprob, h.tokens))
        del completed[k:]
        live = new_live
        if not live:
            break
        if completed and live[0].logprob <= completed[-1].logprob:
            break
    best = max(completed + live, key=lambda h: (h.logprob, tuple(-t for t in h.tokens)))
    return list(best.tokens), best.logprob

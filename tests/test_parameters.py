"""Checkpoint record names are the ``parameters()`` keys; pin them.

``data/parameter_names.json`` holds the ordered keys of every decoder
configuration below.  A renamed or reordered attribute changes these
keys, and with them the names that existing checkpoints are read by.
"""

import json
from pathlib import Path

from capgen.da import DaConfig, DeliberateDecoder
from capgen.decoders import VARIANTS
from capgen.testkit import tiny_decoder

PINNED = Path(__file__).parent / "data" / "parameter_names.json"


def _da(**kw):
    cfg = dict(vocab_size=12, hidden_dim=8, embed_dim=8, attn_dim=7, region_dim=6,
               global_dim=5, seed=0)
    cfg.update(kw)
    return DeliberateDecoder(DaConfig(**cfg))


def current_names() -> dict[str, list[str]]:
    decoders = {v: tiny_decoder(v)[0] for v in VARIANTS}
    decoders["da_no_sentinel_proj"] = _da(region_dim=8)
    return {k: list(d.parameters()) for k, d in decoders.items()}


def test_parameter_names_match_pinned_file():
    assert current_names() == json.loads(PINNED.read_text())


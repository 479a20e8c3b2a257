"""Hierarchical LSTM caption decoders with adaptive attention.

Desk-scale, self-contained: a float64 autodiff tensor core, LSTM layers,
temporal/spatial/adaptive/parallel attention, six decoder variants plus a
two-pass deliberation decoder, MLE and reward training, beam search, and
BLEU / ROUGE-L / CIDEr evaluation.
"""

from .attention import (
    AdaptiveGate, AdditiveAttention, adaptive_blend, parallel_adaptive_blend,
)
from .da import DaConfig, DeliberateDecoder, da_step
from .data import (
    BOS_ID, EOS_ID, PAD_ID, UNK_ID, CaptionBatch, Dataset, FeatureSet,
    Vocabulary, build_vocab, load_features, synth_dataset,
)
from .decoders import (
    DecoderConfig, HierarchicalDecoder, TwoStreamDecoder, build_variant,
    two_stream_fuse,
)
from .layers import Embedding, Linear, LstmCell
from .metrics import TokenizedCorpus, bleu, cider, evaluate_corpus, rouge_l
from .optim import adadelta_update, adam_lr, adam_update, clip_gradients
from .search import beam_search, greedy_decode
from .tensor import Tape, Tensor, backward
from .training import RewardConfig, TrainConfig, mle_loss, reward_gradient_step, train

__version__ = "0.1.0"

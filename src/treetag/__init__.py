"""Constituent parsing as sequence tagging.

Linearize constituent trees into one label per word (relative, absolute
or dynamic level encodings), generate auxiliary supervision tracks, train
a multi-task tagger over the decomposed label space, fine-tune it with a
tree-level policy-gradient objective, and evaluate with bracketing
F-scores.
"""

from .trees import (
    Internal,
    Leaf,
    ParseError,
    PCFG,
    Sentence,
    demo_grammar,
    leaves,
    load_trees,
    parse_bracketed,
    random_tree,
    sample_corpus,
    save_trees,
    serialize,
)
from .encodings import (
    ABSOLUTE,
    DYNAMIC,
    RELATIVE,
    SCHEMES,
    EncodedSentence,
    NComponent,
    TagLabel,
    decode,
    decode_with_repairs,
    encode,
    encode_absolute,
    encode_dynamic,
    encode_relative,
)
from .auxtracks import shifted_n, syntactic_distances
from .metrics import (
    BracketScore,
    LabelSpaceStats,
    bracket_score,
    corpus_bracket_score,
    label_space_stats,
    per_n_f1,
)
from .tagger import (
    TaggerModel,
    TrainConfig,
    Vocabularies,
    featurize,
    load_model,
    predict_greedy,
    save_model,
    train_mtl,
)
from .pg import (
    AdvantageTracker,
    PGConfig,
    adapt_noise,
    finetune_pg,
    pg_update,
    tree_reward,
)

__version__ = "0.1.0"

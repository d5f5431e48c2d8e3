"""The public names of the package, pinned: adding or removing one fails
here until the list below is updated (and the change is recorded)."""

import types

import treetag

PUBLIC_NAMES = [
    "ABSOLUTE", "AdvantageTracker", "BracketScore", "DYNAMIC", "EncodedSentence",
    "Internal", "LabelSpaceStats", "Leaf", "NComponent", "PCFG", "PGConfig",
    "ParseError", "RELATIVE", "SCHEMES", "Sentence", "TagLabel", "TaggerModel",
    "TrainConfig", "Vocabularies", "adapt_noise", "bracket_score",
    "corpus_bracket_score", "decode", "decode_parts", "decode_with_repairs",
    "demo_grammar", "encode", "encode_absolute", "encode_dynamic", "encode_relative",
    "featurize", "finetune_pg", "label_space_stats", "leaves", "load_model",
    "load_trees", "mtl_loss", "parse_bracketed", "per_n_f1", "pg_update",
    "predict_greedy", "predict_trees", "random_tree", "sample_corpus", "save_model",
    "save_trees", "serialize", "shifted_n", "syntactic_distances", "train_mtl",
    "tree_reward",
]


def test_public_names_are_pinned():
    # submodules become attributes as they are imported, so they do not count
    names = sorted(name for name, value in vars(treetag).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES

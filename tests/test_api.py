"""The public names of the package and the signatures of its callables,
pinned: adding or removing a name, or changing a signature, fails here
until the tables below are updated (and the change is recorded)."""

import inspect
import types

import treetag

PUBLIC_NAMES = [
    "ABSOLUTE", "AdvantageTracker", "BracketScore", "DYNAMIC", "EncodedSentence",
    "Internal", "LabelSpaceStats", "Leaf", "NComponent", "PCFG", "PGConfig",
    "ParseError", "RELATIVE", "SCHEMES", "Sentence", "TagLabel", "TaggerModel",
    "TrainConfig", "Vocabularies", "adapt_noise", "bracket_score",
    "corpus_bracket_score", "decode", "decode_with_repairs", "demo_grammar", "encode",
    "encode_absolute", "encode_dynamic", "encode_relative", "featurize", "finetune_pg",
    "label_space_stats", "leaves", "load_model", "load_trees", "parse_bracketed",
    "per_n_f1", "pg_update", "predict_greedy", "random_tree", "sample_corpus",
    "save_model", "save_trees", "serialize", "shifted_n", "syntactic_distances",
    "train_mtl", "tree_reward",
]

PUBLIC_SIGNATURES = {
    "AdvantageTracker": "(burn_in)",
    "BracketScore": "(matched: int, gold_total: int, pred_total: int) -> None",
    "EncodedSentence": "(sentence: treetag.trees.Sentence, labels: tuple, scheme: str) -> None",
    "Internal": "(label, children)",
    "LabelSpaceStats": "(total_distinct: int, freq_histogram: dict) -> None",
    "Leaf": "(pos: str, word: str) -> None",
    "NComponent": "(scale: str, value: int = None) -> None",
    "PCFG": "(start, rules, lexicon)",
    "PGConfig": (
        "(samples: int = 8, learning_rate: float = 0.0005, "
        "entropy_coef: float = 0.01, burn_in: int = 1000, epochs: int = 10, "
        "noise_std: float = 0.0, "
        "noise_target: float = 0.5, noise_adapt: float = 1.05, "
        "seed: int = 29) -> None"
    ),
    "ParseError": "(message, offset, line=None, path=None)",
    "Sentence": "(words: tuple, pos: tuple) -> None",
    "TagLabel": "(n: treetag.encodings.NComponent, c: str, u: str = '') -> None",
    "TaggerModel": "(vocab, config, scheme, rng=None, params=None)",
    "TrainConfig": (
        "(learning_rate: float = 0.2, momentum: float = 0.9, "
        "decay: float = 0.05, epochs: int = 100, batch_size: int = 8, "
        "aux_weight: float = 0.1, window: int = 2, dropout: float = 0.5, "
        "seed: int = 13, word_dim: int = 100, pos_dim: int = 20, "
        "hidden_dim: int = 128) -> None"
    ),
    "Vocabularies": "(word2id, pos2id, tasks)",
    "adapt_noise": "(policy, config, std, sentences, rng)",
    "bracket_score": "(gold, predicted)",
    "corpus_bracket_score": "(gold_trees, predicted_trees)",
    "decode": "(encoded)",
    "decode_with_repairs": "(encoded)",
    "demo_grammar": "()",
    "encode": "(tree, scheme, walk=None)",
    "encode_absolute": "(tree, walk=None)",
    "encode_dynamic": "(tree, walk=None)",
    "encode_relative": "(tree, walk=None)",
    "featurize": "(sentence, vocab, r)",
    "finetune_pg": "(policy, train, config, dev=None)",
    "label_space_stats": "(corpus, decomposed=False)",
    "leaves": "(tree)",
    "load_model": "(path)",
    "load_trees": "(path, strip_functions=False, spans=False, skip=())",
    "parse_bracketed": "(text, strip_functions=False, spans=None, skip=())",
    "per_n_f1": "(gold_corpus, pred_corpus)",
    "pg_update": (
        "(policy, sentences, gold_spans, baseline_rewards, config, tracker, rng, "
        "noise_std=0.0)"
    ),
    "predict_greedy": "(model, sentence)",
    "random_tree": "(rng_seed, max_leaves, max_depth, nonterminal_alphabet)",
    "sample_corpus": "(rng_seed, count)",
    "save_model": "(path, model)",
    "save_trees": "(path, trees)",
    "serialize": "(tree)",
    "shifted_n": "(encoded, k)",
    "syntactic_distances": "(tree, cap=None, walk=None)",
    "train_mtl": "(corpus, config, dev=None)",
    "tree_reward": "(sampled, gold_tree)",
}


def test_public_names_are_pinned():
    # submodules become attributes as they are imported, so they do not count
    names = sorted(name for name, value in vars(treetag).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_public_signatures_are_pinned():
    signatures = {name: str(inspect.signature(value)) for name in PUBLIC_NAMES
                  if callable(value := getattr(treetag, name))}
    assert signatures == PUBLIC_SIGNATURES

"""Train the multi-task tagger on a synthetic treebank.

Run: python3 demos/03_train_tagger.py        (about half a minute)
"""

from treetag import (
    TrainConfig,
    corpus_bracket_score,
    decode,
    encode_dynamic,
    predict_greedy,
    sample_corpus,
    serialize,
    shifted_n,
    syntactic_distances,
    train_mtl,
)
from treetag.metrics import format_bracket_report


def main():
    forest = sample_corpus(42, 200)
    corpus = []
    for tree in forest:
        encoded = encode_dynamic(tree)
        aux = {"n+1": shifted_n(encoded, 1), "dist": syntactic_distances(tree)}
        corpus.append((encoded, aux))
    print("training corpus: %d trees, e.g." % len(forest))
    print("  " + serialize(forest[0]))
    print()
    print("Three main heads (n, c, u) share one windowed encoder; the")
    print("shifted-n and split-distance heads are auxiliary tasks whose")
    print("loss is down-weighted by 0.1.")
    print()

    config = TrainConfig(epochs=40)
    model = train_mtl(corpus, config, dev=corpus)  # dev F1 scored on the training pairs
    for h in model.history[::8]:
        print("  epoch %3d  loss %.3f  F1 %.3f" % (h["epoch"], h["loss"], h["dev_f1"]))
    print()

    predictions = [decode(predict_greedy(model, enc.sentence)) for enc, _ in corpus]
    score = corpus_bracket_score(forest, predictions)
    print("training-set score: %s" % format_bracket_report(score))
    print()
    print("sample prediction:")
    print("  gold: " + serialize(forest[3]))
    print("  pred: " + serialize(predictions[3]))


if __name__ == "__main__":
    main()

"""Fine-tune a trained tagger with sentence-level policy gradient.

The supervised model optimises per-token cross-entropy; fine-tuning
optimises the tree-level bracketing F1 directly, with the starting model's
greedy F1 on each sentence as the reward baseline.

Run: python3 demos/04_policy_gradient.py      (about a minute)
"""

from treetag import (
    PGConfig,
    TrainConfig,
    corpus_bracket_score,
    decode,
    encode_dynamic,
    finetune_pg,
    predict_greedy,
    sample_corpus,
    train_mtl,
)


def main():
    forest = sample_corpus(7, 120)
    corpus = [(encode_dynamic(tree), {}) for tree in forest]

    # deliberately under-train so fine-tuning has headroom
    config = TrainConfig(epochs=6, hidden_dim=64, word_dim=32, pos_dim=8)
    model = train_mtl(corpus, config)
    sentences = [encoded.sentence for encoded, _ in corpus]

    def train_f1(m):
        return corpus_bracket_score(
            forest, [decode(predict_greedy(m, s)) for s in sentences]
        ).f1

    before = train_f1(model)
    print("supervised model train F1: %.4f" % before)
    print()

    pg_config = PGConfig(epochs=6, seed=1)
    model, rows = finetune_pg(model, forest, pg_config, dev=forest)
    print("epoch  mean reward  baseline  entropy   dev F1")
    for row in rows:
        print("  %2d     %.4f     %.4f   %7.2f   %.4f"
              % (row["epoch"], row["reward"], row["baseline"],
                 row["entropy"], row["dev_f1"]))
    print()
    after = train_f1(model)
    print("fine-tuned model train F1: %.4f (%+.2f points)"
          % (after, 100 * (after - before)))


if __name__ == "__main__":
    main()

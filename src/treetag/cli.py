"""Command-line interface.

Subcommands cover the whole pipeline::

    treetag synth    out.trees            generate a synthetic treebank
    treetag encode   in.trees out.seq     linearize trees to labels
    treetag decode   in.seq out.trees     rebuild trees from labels
    treetag stats    in.seq               label-space statistics
    treetag train    train.seq dev.seq out.ckpt
    treetag finetune in.ckpt train.trees dev.trees out.ckpt
    treetag predict  ckpt in.tagged out.trees
    treetag eval     gold.trees pred.trees

Exit codes: 0 success, 1 usage error, 2 data error (with file:line
diagnostics where available).
"""

import argparse
import sys

from . import auxtracks, encodings, metrics, pg, seqfile, trees
from . import tagger as tagging


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


AUX_CHOICES = ("n+1", "n-1", "dist")

DEFAULT_ALPHABET = "S,NP,VP,PP,ADJP,ADVP,SBAR"


def build_parser():
    parser = _Parser(prog="treetag", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic treebank")
    p.add_argument("output")
    p.add_argument("--mode", choices=("random", "pcfg"), default="random")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-leaves", type=int, default=40)
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--alphabet", default=DEFAULT_ALPHABET,
                   help="comma-separated nonterminals (random mode)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("encode", help="trees -> .seq labels")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--scheme", choices=encodings.SCHEMES, default=encodings.RELATIVE)
    p.add_argument("--aux", action="append", choices=AUX_CHOICES, default=[],
                   help="auxiliary track column (repeatable)")
    p.add_argument("--strip-functions", action="store_true",
                   help="drop -FUNC/=INDEX decorations from nonterminals")
    p.add_argument("--distance-cap", type=int, default=None,
                   help="clip distance aux labels from above (>= 1)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help=".seq labels -> trees")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("stats", help="label-space statistics of a .seq file")
    p.add_argument("input")
    p.add_argument("--threshold", type=int, default=5,
                   help="frequency cutoff for the rare-label fraction")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train the multi-task tagger")
    p.add_argument("train_seq")
    p.add_argument("dev_seq")
    p.add_argument("output")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.2)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--decay", type=float, default=0.05)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--aux-weight", type=float, default=0.1)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--word-dim", type=int, default=100)
    p.add_argument("--pos-dim", type=int, default=20)
    p.add_argument("--hidden-dim", type=int, default=128)
    p.add_argument("--seed", type=int, default=13)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("finetune", help="policy-gradient fine-tuning")
    p.add_argument("checkpoint")
    p.add_argument("train_trees")
    p.add_argument("dev_trees")
    p.add_argument("output")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--lr", type=float, default=0.0005)
    p.add_argument("--entropy", type=float, default=0.01)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--noise", action="store_true")
    p.add_argument("--noise-std", type=float, default=0.1)
    p.add_argument("--noise-target", type=float, default=0.5)
    p.add_argument("--noise-adapt", type=float, default=1.05)
    p.add_argument("--seed", type=int, default=29)
    p.add_argument("--log", default=None, help="per-epoch TSV log path")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("predict", help="tag raw word/POS input into trees")
    p.add_argument("checkpoint")
    p.add_argument("input", help="word<TAB>pos lines, blank line between sentences")
    p.add_argument("output")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="bracketing score of predicted trees")
    p.add_argument("gold")
    p.add_argument("predicted")
    p.add_argument("--per-n", default=None, metavar="TSV",
                   help="also write per-n-token P/R/F1 to this file")
    p.add_argument("--scheme", choices=encodings.SCHEMES, default=encodings.RELATIVE,
                   help="scheme used for the per-n breakdown")
    p.add_argument("--strip-punctuation", action="store_true")
    p.set_defaults(func=cmd_eval)
    return parser


def cmd_synth(args):
    if args.mode == "pcfg":
        forest = trees.sample_corpus(args.seed, args.count)
    else:
        alphabet = [s for s in args.alphabet.split(",") if s]
        forest = [
            trees.random_tree(args.seed + i, args.max_leaves, args.max_depth, alphabet)
            for i in range(args.count)
        ]
    trees.save_trees(args.output, forest)
    print("wrote %d trees to %s" % (len(forest), args.output))
    return 0


def cmd_encode(args):
    aux_names = sorted(set(args.aux))
    if args.distance_cap is not None and auxtracks.DISTANCE not in aux_names:
        raise _UsageError("--distance-cap needs --aux %s" % auxtracks.DISTANCE)
    forest = trees.load_trees(args.input, strip_functions=args.strip_functions)
    encoded_corpus = []
    aux_corpus = []
    for i, tree in enumerate(forest, start=1):
        try:
            walk = encodings.boundaries(tree)
            encoded = encodings.encode(tree, args.scheme, walk)
        except ValueError as e:
            raise ValueError("%s: tree %d: %s" % (args.input, i, e)) from e
        encoded_corpus.append(encoded)
        aux_corpus.append(
            {
                name: auxtracks.make_track(name, tree, encoded, args.distance_cap, walk)
                for name in aux_names
            }
        )
    seqfile.write_seq(args.output, encoded_corpus, aux_corpus)
    print("encoded %d sentences (%s) to %s" % (len(forest), args.scheme, args.output))
    return 0


def cmd_decode(args):
    corpus, _, _ = seqfile.read_seq(args.input)
    trees.save_trees(args.output, [encodings.decode(encoded) for encoded in corpus])
    print("decoded %d sentences to %s" % (len(corpus), args.output))
    return 0


def cmd_stats(args):
    corpus, _, scheme = seqfile.read_seq(args.input)
    full = metrics.label_space_stats(corpus, decomposed=False)
    dec = metrics.label_space_stats(corpus, decomposed=True)
    n_sub, c_sub, u_sub = (
        sum(k.startswith(part) for k in dec.freq_histogram) for part in ("n:", "c:", "u:")
    )
    print("scheme: %s" % scheme)
    print("sentences: %d" % len(corpus))
    print("full labels: %d distinct, rare_fraction(%d)=%.4f"
          % (full.total_distinct, args.threshold, full.rare_fraction(args.threshold)))
    print("decomposed: |N|=%d |C|=%d |U|=%d total=%d"
          % (n_sub, c_sub, u_sub, dec.total_distinct))
    return 0


def cmd_train(args):
    train_corpus, train_aux, _ = seqfile.read_seq(args.train_seq)
    dev_corpus, _, _ = seqfile.read_seq(args.dev_seq)
    config = tagging.TrainConfig(
        learning_rate=args.lr,
        momentum=args.momentum,
        decay=args.decay,
        epochs=args.epochs,
        batch_size=args.batch_size,
        dropout=args.dropout,
        aux_weight=args.aux_weight,
        window=args.window,
        word_dim=args.word_dim,
        pos_dim=args.pos_dim,
        hidden_dim=args.hidden_dim,
        seed=args.seed,
    )
    train = [(enc.sentence, enc, aux) for enc, aux in zip(train_corpus, train_aux)]
    dev = [(enc.sentence, encodings.decode(enc)) for enc in dev_corpus]
    try:
        model = tagging.train_mtl(train, config, dev=dev)
    except RuntimeError as e:
        raise ValueError("%s: training failed: %s" % (args.train_seq, e)) from e
    tagging.save_model(args.output, model)
    best = max((h.get("dev_f1", 0.0) for h in model.history), default=0.0)
    print("trained %d epochs; best dev F1 %.4f; saved %s"
          % (config.epochs, best, args.output))
    return 0


def cmd_finetune(args):
    model = tagging.load_model(args.checkpoint)
    train_forest = trees.load_trees(args.train_trees)
    dev_forest = trees.load_trees(args.dev_trees)
    config = pg.PGConfig(
        samples=args.samples,
        learning_rate=args.lr,
        entropy_coef=args.entropy,
        burn_in=args.burn_in,
        epochs=args.epochs,
        noise_enabled=args.noise,
        noise_std=args.noise_std,
        noise_target=args.noise_target,
        noise_adapt=args.noise_adapt,
        seed=args.seed,
    )
    train = [(trees.Sentence.from_tree(t), t) for t in train_forest]
    dev = [(trees.Sentence.from_tree(t), t) for t in dev_forest]
    try:
        model, rows = pg.finetune_pg(model, train, config, dev=dev, log_path=args.log)
    except RuntimeError as e:
        raise ValueError("%s: fine-tuning failed: %s" % (args.checkpoint, e)) from e
    tagging.save_model(args.output, model)
    last = rows[-1]
    print("fine-tuned %d epochs; dev F1 %.4f; saved %s"
          % (config.epochs, last["dev_f1"], args.output))
    return 0


def cmd_predict(args):
    model = tagging.load_model(args.checkpoint)
    sentences = seqfile.read_tagged(args.input)
    predicted = tagging.predict_corpus(model, sentences)
    trees.save_trees(args.output, [encodings.decode(encoded) for encoded in predicted])
    print("predicted %d sentences to %s" % (len(sentences), args.output))
    return 0


def cmd_eval(args):
    gold = trees.load_trees(args.gold)
    predicted = trees.load_trees(args.predicted)
    score = metrics.corpus_bracket_score(gold, predicted, args.strip_punctuation)
    print(metrics.format_bracket_report(score))
    if args.per_n:
        gold_enc = [encodings.encode(t, args.scheme) for t in gold]
        pred_enc = [encodings.encode(t, args.scheme) for t in predicted]
        table = metrics.per_n_f1(gold_enc, pred_enc)
        with open(args.per_n, "w", encoding="utf-8") as fh:
            fh.write("n_token\tprecision\trecall\tf1\n")
            for tok in sorted(table, key=metrics.n_token_sort_key):
                p, r, f = table[tok]
                fh.write("%s\t%.4f\t%.4f\t%.4f\n" % (tok, p, r, f))
        print("per-n report written to %s" % args.per_n)
    return 0


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return 0 if not e.code else int(e.code)
    except (trees.ParseError, seqfile.SeqFormatError, ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

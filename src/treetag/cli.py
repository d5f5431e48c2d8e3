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
import collections
import csv
import dataclasses
import functools
import sys

from . import auxtracks, encodings, metrics, pg, seqfile, trees
from . import tagger as tagging


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


AUX_CHOICES = ("n+1", "n-1", "dist")

# The options of `synth --mode random` and their defaults; pcfg mode takes none.
RANDOM_OPTIONS = {"max_leaves": 40, "max_depth": 12, "alphabet": "S,NP,VP,PP,ADJP,ADVP,SBAR"}

# Flags named other than their config field; every other field `x_y` of
# TrainConfig and PGConfig is the option --x-y.
FLAG_NAMES = {"learning_rate": "lr", "entropy_coef": "entropy", "noise_enabled": "noise"}


def _add_config_options(parser, config_class):
    """One option per field of `config_class`, defaulting to the field's
    default; a bool field is a switch."""
    for field in dataclasses.fields(config_class):
        name = FLAG_NAMES.get(field.name, field.name)
        flag = "--" + name.replace("_", "-")
        if field.type is bool:
            parser.add_argument(flag, dest=field.name, action="store_true")
        else:
            parser.add_argument(flag, dest=field.name, type=field.type, default=field.default,
                                metavar=name.upper())


def _config_from(config_class, args):
    return config_class(**{f.name: getattr(args, f.name) for f in dataclasses.fields(config_class)})


@functools.lru_cache(maxsize=None)  # one per process: each build costs milliseconds
def build_parser():
    parser = _Parser(prog="treetag", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic treebank")
    p.add_argument("output")
    p.add_argument("--mode", choices=("random", "pcfg"), default="random")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    for name, default in RANDOM_OPTIONS.items():
        p.add_argument("--" + name.replace("_", "-"), type=type(default),
                       help="random mode only (default %s)" % default)
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
    _add_config_options(p, tagging.TrainConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("finetune", help="policy-gradient fine-tuning")
    p.add_argument("checkpoint")
    p.add_argument("train_trees")
    p.add_argument("dev_trees")
    p.add_argument("output")
    _add_config_options(p, pg.PGConfig)
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
    p.add_argument("--scheme", choices=encodings.SCHEMES,
                   help="scheme of the per-n breakdown (default %s)" % encodings.RELATIVE)
    p.add_argument("--strip-punctuation", action="store_true")
    p.set_defaults(func=cmd_eval)
    return parser


def cmd_synth(args):
    given = {name: getattr(args, name) for name in RANDOM_OPTIONS
             if getattr(args, name) is not None}
    if args.mode == "pcfg" and given:
        raise _UsageError("--%s needs --mode random" % next(iter(given)).replace("_", "-"))
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    if args.mode == "pcfg":
        forest = trees.sample_corpus(args.seed, args.count)
    else:
        options = {**RANDOM_OPTIONS, **given}
        alphabet = [s for s in options["alphabet"].split(",") if s]
        forest = [
            trees.random_tree(args.seed + i, options["max_leaves"], options["max_depth"], alphabet)
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
    corpus = []
    for tree, walk in zip(forest, _each_tree(args.input, forest, encodings.boundaries)):
        encoded = encodings.encode(tree, args.scheme, walk)
        tracks = {name: auxtracks.make_track(name, tree, encoded, args.distance_cap, walk)
                  for name in aux_names}
        corpus.append((encoded, tracks))
    seqfile.write_seq(args.output, corpus)
    print("encoded %d sentences (%s) to %s" % (len(forest), args.scheme, args.output))
    return 0


def cmd_decode(args):
    corpus, parts, _ = seqfile.read_seq_parts(args.input)
    repairs = _write_lines(args.output, (encodings.decoded_line(
        sentence, *zip(*map(parts.get, tokens))) for sentence, tokens, _ in corpus))
    print("decoded %d sentences to %s; %s" % (len(corpus), args.output, repairs))
    return 0


def cmd_stats(args):
    pairs, scheme = seqfile.read_seq(args.input)
    corpus = [encoded for encoded, _ in pairs]
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
    train, _ = seqfile.read_seq(args.train_seq)
    dev, _ = seqfile.read_seq(args.dev_seq)
    config = _config_from(tagging.TrainConfig, args)
    dev = [encodings.decode(enc) for enc, _ in dev]
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
    train = trees.load_trees(args.train_trees)
    dev = trees.load_trees(args.dev_trees)
    config = _config_from(pg.PGConfig, args)
    try:
        model, rows = pg.finetune_pg(model, train, config, dev=dev)
    except RuntimeError as e:
        raise ValueError("%s: fine-tuning failed: %s" % (args.checkpoint, e)) from e
    if args.log:
        with open(args.log, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()), delimiter="\t")
            writer.writeheader()
            writer.writerows(rows)
    tagging.save_model(args.output, model)
    last = rows[-1]
    print("fine-tuned %d epochs; dev F1 %.4f; saved %s"
          % (config.epochs, last["dev_f1"], args.output))
    return 0


def cmd_predict(args):
    model = tagging.load_model(args.checkpoint)
    sentences = seqfile.read_tagged(args.input)
    try:
        lines = tagging.predicted_lines(model, sentences)
    except RuntimeError as e:
        raise ValueError("%s: prediction failed: %s" % (args.checkpoint, e)) from e
    repairs = _write_lines(args.output, lines)
    print("predicted %d sentences to %s; %s" % (len(sentences), args.output, repairs))
    return 0


def _write_lines(path, decoded):
    """Write the line of each (line, RepairLog) pair to `path`; returns the
    repairs summed per kind, as text."""
    totals = collections.Counter(vars(encodings.RepairLog()))
    with open(path, "w", encoding="utf-8") as fh:
        for line, log in decoded:
            fh.write(line + "\n")
            totals.update(vars(log))
    return "repairs: " + ", ".join("%s %d" % kind_count for kind_count in totals.items())


def cmd_eval(args):
    if args.scheme and not args.per_n:
        raise _UsageError("--scheme needs --per-n")
    skip = metrics.PUNCT_POS if args.strip_punctuation else ()
    gold, predicted = (trees.load_trees(path, spans=True, skip=skip)
                       for path in (args.gold, args.predicted))
    if len(gold) != len(predicted):
        raise ValueError("%s has %d trees, %s has %d"
                         % (args.gold, len(gold), args.predicted, len(predicted)))
    scores = _each_tree(args.predicted, zip(gold, predicted), lambda p: metrics.read_score(*p))
    print(metrics.format_bracket_report(sum(scores, metrics.BracketScore(0, 0, 0))))
    if args.per_n:
        encode = functools.partial(encodings.encode, scheme=args.scheme or encodings.RELATIVE)
        gold_enc, pred_enc = (list(_each_tree(path, trees.load_trees(path), encode))
                              for path in (args.gold, args.predicted))
        table = metrics.per_n_f1(gold_enc, pred_enc)
        with open(args.per_n, "w", encoding="utf-8") as fh:
            fh.write("n_token\tprecision\trecall\tf1\n")
            for tok in sorted(table, key=metrics.n_token_sort_key):
                p, r, f = table[tok]
                fh.write("%s\t%.4f\t%.4f\t%.4f\n" % (tok, p, r, f))
        print("per-n report written to %s" % args.per_n)
    return 0


def _each_tree(path, forest, fn):
    """fn(tree) for each tree of `forest`, read from `path`; a ValueError
    names the file and the tree (counted from 1)."""
    for i, tree in enumerate(forest, start=1):
        try:
            yield fn(tree)
        except ValueError as e:
            raise ValueError("%s: tree %d: %s" % (path, i, e)) from e


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
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

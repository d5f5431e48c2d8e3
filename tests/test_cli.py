"""End-to-end command-line tests (driving run() directly)."""

import random
import re
import warnings

import numpy as np
import pytest

from treetag.cli import run
from treetag.metrics import corpus_bracket_score, format_bracket_report
from treetag.trees import Sentence, load_trees, random_tree, save_trees, sample_corpus, serialize
from treetag.seqfile import read_seq
from test_metrics import LEAF_COUNT_MISMATCHES, PUNCTUATED_PAIR


@pytest.fixture
def forest_file(tmp_path):
    path = tmp_path / "in.trees"
    save_trees(path, sample_corpus(9, 30))
    return path


def test_synth_random_deterministic(tmp_path):
    a = tmp_path / "a.trees"
    b = tmp_path / "b.trees"
    assert run(["synth", str(a), "--count", "20", "--seed", "5"]) == 0
    assert run(["synth", str(b), "--count", "20", "--seed", "5"]) == 0
    assert a.read_text() == b.read_text()
    assert len(load_trees(a)) == 20


def test_synth_pcfg(tmp_path):
    out = tmp_path / "p.trees"
    assert run(["synth", str(out), "--mode", "pcfg", "--count", "15", "--seed", "1"]) == 0
    assert len(load_trees(out)) == 15


@pytest.mark.parametrize("scheme", ["relative", "absolute", "dynamic"])
def test_encode_decode_round_trip(tmp_path, forest_file, scheme):
    seq = tmp_path / "out.seq"
    back = tmp_path / "back.trees"
    assert run(["encode", "--scheme", scheme, str(forest_file), str(seq)]) == 0
    assert run(["decode", str(seq), str(back)]) == 0
    original = [serialize(t) for t in load_trees(forest_file)]
    rebuilt = [serialize(t) for t in load_trees(back)]
    assert rebuilt == original


def test_encode_with_aux_columns(tmp_path, forest_file):
    seq = tmp_path / "out.seq"
    assert run(["encode", str(forest_file), str(seq),
                "--aux", "n+1", "--aux", "dist"]) == 0
    header = seq.read_text().splitlines()[0]
    assert header == "# scheme=relative aux=dist,n+1"
    corpus, scheme = read_seq(seq)
    assert scheme == "relative"
    assert set(corpus[0][1].keys()) == {"dist", "n+1"}


def test_eval_identical_is_100(tmp_path, forest_file, capsys):
    assert run(["eval", str(forest_file), str(forest_file)]) == 0
    out = capsys.readouterr().out
    assert "P 100.00 R 100.00 F1 100.00" in out


def test_eval_per_n_report(tmp_path, forest_file, capsys):
    report = tmp_path / "per_n.tsv"
    assert run(["eval", str(forest_file), str(forest_file), "--per-n", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "n_token\tprecision\trecall\tf1"
    assert all(line.split("\t")[3] == "1.0000" for line in lines[1:])


def test_stats_output(tmp_path, forest_file, capsys):
    seq = tmp_path / "out.seq"
    run(["encode", str(forest_file), str(seq)])
    assert run(["stats", str(seq)]) == 0
    out = capsys.readouterr().out
    assert "full labels:" in out and "decomposed:" in out


def test_usage_error_exit_code():
    assert run(["encode"]) == 1
    assert run(["no-such-command"]) == 1


def test_data_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.trees"
    bad.write_text("(S (NP broken\n", encoding="utf-8")
    out = tmp_path / "out.seq"
    assert run(["encode", str(bad), str(out)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path):
    assert run(["encode", str(tmp_path / "nope.trees"), str(tmp_path / "o.seq")]) == 2


def test_full_pipeline(tmp_path, capsys):
    """synth -> encode -> train -> predict -> eval -> finetune end to end."""
    trees_path = tmp_path / "train.trees"
    assert run(["synth", str(trees_path), "--mode", "pcfg", "--count", "40",
                "--seed", "11"]) == 0
    seq = tmp_path / "train.seq"
    assert run(["encode", "--scheme", "dynamic", str(trees_path), str(seq),
                "--aux", "n-1"]) == 0
    ckpt = tmp_path / "model.npz"
    assert run(["train", str(seq), str(seq), str(ckpt),
                "--epochs", "12", "--hidden-dim", "32", "--word-dim", "16",
                "--pos-dim", "8", "--seed", "1"]) == 0

    tagged = tmp_path / "input.tagged"
    forest = load_trees(trees_path)
    with open(tagged, "w", encoding="utf-8") as fh:
        from treetag.trees import leaves
        for t in forest:
            for leaf in leaves(t):
                fh.write("%s\t%s\n" % (leaf.word, leaf.pos))
            fh.write("\n")
    out_trees = tmp_path / "pred.trees"
    assert run(["predict", str(ckpt), str(tagged), str(out_trees)]) == 0
    assert len(load_trees(out_trees)) == len(forest)

    assert run(["eval", str(trees_path), str(out_trees)]) == 0
    report = capsys.readouterr().out.splitlines()[-1]
    assert report.startswith("P ")

    tuned = tmp_path / "tuned.npz"
    log = tmp_path / "pg.tsv"
    assert run(["finetune", str(ckpt), str(trees_path), str(trees_path), str(tuned),
                "--epochs", "1", "--samples", "2", "--seed", "2",
                "--log", str(log)]) == 0
    assert tuned.exists()
    lines = log.read_text().splitlines()
    assert lines[0].split("\t") == [
        "epoch", "reward", "baseline", "standardized", "entropy", "dev_f1", "noise_std",
    ]
    assert len(lines) == 2 and lines[1].startswith("0\t")


def test_train_and_noisy_finetune_repeat_bit_for_bit(tmp_path):
    """Rerun with the same seeds (and the same BLAS thread count), train and
    finetune with logit noise write the same checkpoint arrays and the same log."""
    trees_path = tmp_path / "small.trees"
    save_trees(trees_path, sample_corpus(5, 16))
    seq = tmp_path / "small.seq"
    assert run(["encode", str(trees_path), str(seq), "--aux", "dist"]) == 0
    for rerun in "ab":
        ckpt, tuned = tmp_path / ("model_%s.npz" % rerun), tmp_path / ("tuned_%s.npz" % rerun)
        assert run(["train", str(seq), str(seq), str(ckpt), "--epochs", "3", "--seed", "4",
                    "--hidden-dim", "8", "--word-dim", "4", "--pos-dim", "4"]) == 0
        assert run(["finetune", str(ckpt), str(trees_path), str(trees_path), str(tuned),
                    "--epochs", "2", "--samples", "3", "--seed", "5", "--noise-std", "0.1",
                    "--log", str(tmp_path / ("pg_%s.tsv" % rerun))]) == 0
    for name in ("model", "tuned"):
        with np.load(tmp_path / ("%s_a.npz" % name)) as a, \
                np.load(tmp_path / ("%s_b.npz" % name)) as b:
            assert sorted(a.files) == sorted(b.files)
            for key in a.files:
                assert a[key].dtype == b[key].dtype and a[key].shape == b[key].shape
                assert a[key].tobytes() == b[key].tobytes(), (name, key)
    assert (tmp_path / "pg_a.tsv").read_bytes() == (tmp_path / "pg_b.tsv").read_bytes()


@pytest.fixture
def small_model(tmp_path):
    """(train.seq, train.trees, checkpoint) of a tiny 2-epoch model."""
    trees_path = tmp_path / "small.trees"
    save_trees(trees_path, sample_corpus(3, 12))
    seq = tmp_path / "small.seq"
    assert run(["encode", str(trees_path), str(seq)]) == 0
    ckpt = tmp_path / "small.npz"
    assert run(["train", str(seq), str(seq), str(ckpt), "--epochs", "2",
                "--hidden-dim", "8", "--word-dim", "4", "--pos-dim", "4"]) == 0
    return seq, trees_path, ckpt


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_divergence_exit_code(tmp_path, small_model, capsys):
    seq, _, _ = small_model
    capsys.readouterr()
    assert run(["train", str(seq), str(seq), str(tmp_path / "bad.npz"),
                "--epochs", "3", "--lr", "1e30"]) == 2
    assert "error: %s: training failed" % seq in capsys.readouterr().err


def test_policy_gradient_overflow_exit_code(tmp_path, small_model, capsys):
    _, trees_path, ckpt = small_model
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is named once, with no warning before it
        assert run(["finetune", str(ckpt), str(trees_path), str(trees_path),
                    str(tmp_path / "bad.npz"), "--epochs", "1", "--entropy", "1e308"]) == 2
    err = capsys.readouterr().err
    assert "error: %s: fine-tuning failed: non-finite policy gradient" % ckpt in err
    assert len(err.splitlines()) == 1


def test_truncated_checkpoint_exit_code(tmp_path, small_model, capsys):
    _, trees_path, ckpt = small_model
    data = ckpt.read_bytes()
    ckpt.write_bytes(data[: len(data) // 2])
    capsys.readouterr()
    assert run(["finetune", str(ckpt), str(trees_path), str(trees_path),
                str(tmp_path / "out.npz")]) == 2
    assert "error: %s: not a readable checkpoint" % ckpt in capsys.readouterr().err


def test_checkpoint_without_meta_exit_code(tmp_path, capsys):
    import numpy as np

    ckpt = tmp_path / "nometa.npz"
    np.savez(ckpt, param_0=np.zeros(3))
    tagged = tmp_path / "in.tagged"
    tagged.write_text("the\tDT\ndog\tNN\n\n", encoding="utf-8")
    assert run(["predict", str(ckpt), str(tagged), str(tmp_path / "out.trees")]) == 2
    assert "error: %s: not a readable checkpoint" % ckpt in capsys.readouterr().err


def test_finetune_zero_epochs_exit_code(tmp_path, small_model, capsys):
    _, trees_path, ckpt = small_model
    capsys.readouterr()
    assert run(["finetune", str(ckpt), str(trees_path), str(trees_path),
                str(tmp_path / "out.npz"), "--epochs", "0",
                "--log", str(tmp_path / "pg.tsv")]) == 2
    assert "error: need at least one epoch" in capsys.readouterr().err


def test_encode_reserved_label_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.trees"
    bad.write_text("(S (A a) (B b))\n\n(S (NP+X (A a) (B b)) (C c))\n", encoding="utf-8")
    assert run(["encode", str(bad), str(tmp_path / "out.seq")]) == 2
    assert "error: %s: tree 2: nonterminal 'NP+X'" % bad in capsys.readouterr().err


def test_encode_distance_cap_below_one_exit_code(tmp_path, forest_file, capsys):
    assert run(["encode", str(forest_file), str(tmp_path / "out.seq"),
                "--aux", "dist", "--distance-cap", "0"]) == 2
    assert "distance cap must be >= 1" in capsys.readouterr().err


def test_checkpoint_with_cut_head_exit_code(tmp_path, small_model, capsys):
    import json

    import numpy as np

    _, trees_path, ckpt = small_model
    with np.load(ckpt) as data:
        arrays = dict(data)
    names = json.loads(str(arrays["meta"]))["param_names"]
    for i, name in enumerate(names):
        if name in ("W_n", "b_n"):
            arrays["param_%d" % i] = arrays["param_%d" % i][..., :1]
    cut = tmp_path / "cut.npz"
    np.savez(cut, **arrays)
    tagged = tmp_path / "in.tagged"
    tagged.write_text("the\tDT\ndog\tNN\n\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["predict", str(cut), str(tagged), str(tmp_path / "out.trees")]) == 2
    err = capsys.readouterr().err
    assert "error: %s: not a readable checkpoint: parameter W_n has shape" % cut in err


@pytest.mark.parametrize("scheme", [None, "bogus"])
def test_checkpoint_with_unknown_scheme_exit_code(tmp_path, small_model, capsys, scheme):
    import json

    import numpy as np

    _, trees_path, ckpt = small_model
    with np.load(ckpt) as data:
        arrays = dict(data)
    meta = json.loads(str(arrays["meta"]))
    meta["scheme"] = scheme
    arrays["meta"] = np.array(json.dumps(meta))
    bad = tmp_path / "scheme.npz"
    np.savez(bad, **arrays)
    tagged = tmp_path / "in.tagged"
    tagged.write_text("the\tDT\ndog\tNN\n\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["predict", str(bad), str(tagged), str(tmp_path / "out.trees")]) == 2
    err = capsys.readouterr().err
    assert "error: %s: not a readable checkpoint: unknown scheme %r" % (bad, scheme) in err


def write_tagged(path, forest):
    from treetag.trees import leaves

    with open(path, "w", encoding="utf-8") as fh:
        for t in forest:
            fh.writelines("%s\t%s\n" % (leaf.word, leaf.pos) for leaf in leaves(t))
            fh.write("\n")


def test_checkpoint_with_nonfinite_row_exit_code(tmp_path, small_model, capsys):
    import json

    import numpy as np

    _, trees_path, ckpt = small_model
    with np.load(ckpt) as data:
        arrays = dict(data)
    names = json.loads(str(arrays["meta"]))["param_names"]
    arrays["param_%d" % names.index("W_u")][0] = np.nan
    bad = tmp_path / "nan.npz"
    np.savez(bad, **arrays)
    tagged = tmp_path / "in.tagged"
    write_tagged(tagged, load_trees(trees_path))
    capsys.readouterr()
    assert run(["predict", str(bad), str(tagged), str(tmp_path / "out.trees")]) == 2
    assert run(["finetune", str(bad), str(trees_path), str(trees_path),
                str(tmp_path / "out.npz")]) == 2
    err = capsys.readouterr().err
    message = "error: %s: not a readable checkpoint: parameter W_u has non-finite values" % bad
    assert err.count(message) == 2


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_predict_with_nonfinite_logits_exit_code(tmp_path, small_model, capsys):
    import json

    import numpy as np

    # every value is finite, so the checkpoint loads, but with every hidden
    # unit at tanh(1000) = 1 each n logit sums 8 weights of 1e308 to inf
    _, trees_path, ckpt = small_model
    with np.load(ckpt) as data:
        arrays = dict(data)
    names = json.loads(str(arrays["meta"]))["param_names"]
    arrays["param_%d" % names.index("b1")][:] = 1e3
    arrays["param_%d" % names.index("W_n")][:] = 1e308
    bad = tmp_path / "huge.npz"
    np.savez(bad, **arrays)
    tagged, out = tmp_path / "in.tagged", tmp_path / "out.trees"
    write_tagged(tagged, load_trees(trees_path))
    capsys.readouterr()
    assert run(["predict", str(bad), str(tagged), str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: %s: prediction failed: non-finite logits in head 'n'" % bad in err
    assert not out.exists()


def test_predict_writes_the_single_sentence_trees(tmp_path, small_model):
    from treetag.encodings import decode
    from treetag.seqfile import read_tagged
    from treetag.tagger import load_model, predict_greedy

    _, trees_path, ckpt = small_model
    tagged, out, expected = (tmp_path / name for name in ("in.tagged", "out.trees", "exp.trees"))
    write_tagged(tagged, load_trees(trees_path))
    assert run(["predict", str(ckpt), str(tagged), str(out)]) == 0
    model = load_model(ckpt)
    save_trees(expected, [decode(predict_greedy(model, s)) for s in read_tagged(tagged)])
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("aux", [[], ["--aux", "n+1"]])
@pytest.mark.parametrize("cap", ["0", "3"])
def test_distance_cap_without_dist_track_is_usage_error(tmp_path, forest_file, capsys, aux, cap):
    out = tmp_path / "out.seq"
    assert run(["encode", str(forest_file), str(out), "--distance-cap", cap] + aux) == 1
    err = capsys.readouterr().err
    assert "usage error: --distance-cap needs --aux dist" in err
    assert not out.exists()


@pytest.mark.parametrize("scheme", ["relative", "absolute", "dynamic"])
@pytest.mark.parametrize("cap", [None, 3])
def test_encode_shares_one_walk_per_tree(tmp_path, monkeypatch, scheme, cap):
    from treetag import auxtracks, encodings, trees
    from treetag.seqfile import write_seq
    from treetag.trees import random_tree

    forest = [random_tree(seed, 15, 8, ["S", "NP", "VP"]) for seed in range(40)]
    path = tmp_path / "in.trees"
    save_trees(path, forest)
    # the per-tree library calls, each walking the tree on its own
    encoded = [encodings.encode(t, scheme) for t in forest]
    expected = tmp_path / "expected.seq"
    write_seq(expected, [
        (enc, {"dist": auxtracks.syntactic_distances(t, cap), "n+1": auxtracks.shifted_n(enc, 1)})
        for t, enc in zip(forest, encoded)
    ])

    calls = []
    walk = encodings.boundaries

    def counting(tree):
        calls.append(tree)
        return walk(tree)

    monkeypatch.setattr(encodings, "boundaries", counting)
    monkeypatch.setattr(auxtracks, "boundaries", counting)
    # the words come from the same walk, not from a second one
    leaf_walks = []
    walk_leaves = trees.leaves
    monkeypatch.setattr(trees, "leaves", lambda tree: leaf_walks.append(tree) or walk_leaves(tree))
    out = tmp_path / "out.seq"
    argv = ["encode", str(path), str(out), "--scheme", scheme, "--aux", "n+1", "--aux", "dist"]
    assert run(argv + (["--distance-cap", str(cap)] if cap else [])) == 0
    assert calls == forest
    assert leaf_walks == []
    assert out.read_bytes() == expected.read_bytes()


REPAIRS = ("repairs: clamped %d, interior_dummies %d, label_conflicts %d, placeholders %d, "
           "spliced %d")


def test_decode_and_predict_build_no_tree(tmp_path, small_model, monkeypatch, capsys):
    from treetag import trees
    from treetag.encodings import decode_with_repairs
    from treetag.seqfile import read_tagged
    from treetag.tagger import load_model, predict_greedy

    _, trees_path, ckpt = small_model
    forest = [random_tree(seed, 15, 8, ["S", "NP", "VP"]) for seed in range(40)]
    gold, seq = tmp_path / "gold.trees", tmp_path / "gold.seq"
    save_trees(gold, forest)
    assert run(["encode", "--scheme", "dynamic", "--aux", "n+1", str(gold), str(seq)]) == 0
    tagged, expected = tmp_path / "in.tagged", tmp_path / "expected.trees"
    write_tagged(tagged, load_trees(trees_path) + forest)
    model = load_model(ckpt)
    predicted = [decode_with_repairs(predict_greedy(model, s)) for s in read_tagged(tagged)]
    save_trees(expected, [tree for tree, _ in predicted])
    counts = [sum(getattr(log, kind) for _, log in predicted) for kind in
              ("clamped", "interior_dummies", "label_conflicts", "placeholders", "spliced")]
    capsys.readouterr()

    built = []
    for cls in (trees.Leaf, trees.Internal):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__",
                            lambda self, *args, init=init: built.append(args) or init(self, *args))
    monkeypatch.setattr(trees, "serialize", lambda tree: built.append(tree))
    back, out = tmp_path / "back.trees", tmp_path / "out.trees"
    assert run(["decode", str(seq), str(back)]) == 0
    assert run(["predict", str(ckpt), str(tagged), str(out)]) == 0
    assert built == []
    assert back.read_bytes() == gold.read_bytes()
    assert out.read_bytes() == expected.read_bytes()
    assert capsys.readouterr().out.splitlines() == [
        "decoded 40 sentences to %s; %s" % (back, REPAIRS % (0, 0, 0, 0, 0)),
        "predicted %d sentences to %s; %s" % (len(predicted), out, REPAIRS % tuple(counts)),
    ]


def test_decode_prints_the_summed_repairs(tmp_path, capsys):
    seq, out = tmp_path / "in.seq", tmp_path / "out.trees"
    seq.write_text("# scheme=dynamic aux=\n"
                   "a\tP\tr-3~S~A+B\nb\tP\tDUMMY~DUMMY~NONE\n\n"  # clamped
                   "a\tP\ta3~S~NONE\nb\tP\tr1~NP~NONE\nc\tP\tDUMMY~DUMMY~NONE\n\n"  # 2 spliced
                   "a\tP\tr1~S~NONE\nb\tP\tr0~NP~NONE\nc\tP\tDUMMY~DUMMY~NONE\n\n",  # conflict
                   encoding="utf-8")
    assert run(["decode", str(seq), str(out)]) == 0
    assert capsys.readouterr().out == "decoded 3 sentences to %s; %s\n" % (
        out, REPAIRS % (1, 0, 1, 0, 2))
    assert out.read_text() == ("(S (A (B (P a))) (P b))\n(S (P a) (NP (P b) (P c)))\n"
                               "(S (P a) (P b) (P c))\n")


DEEP = 5000


def assert_deep_round_trip(tmp_path, capsys, text):
    """encode (every scheme, with aux tracks) -> decode -> eval of one tree
    nested DEEP levels: the same bytes back, and F1 100."""
    path = tmp_path / "deep.trees"
    path.write_text(text + "\n", encoding="utf-8")
    for scheme in ("relative", "absolute", "dynamic"):
        seq = tmp_path / ("%s.seq" % scheme)
        back = tmp_path / ("%s.trees" % scheme)
        assert run(["encode", "--scheme", scheme, "--aux", "dist", "--aux", "n+1",
                    str(path), str(seq)]) == 0
        assert run(["decode", str(seq), str(back)]) == 0
        assert back.read_bytes() == path.read_bytes()
        capsys.readouterr()
        assert run(["eval", str(path), str(back)]) == 0
        assert capsys.readouterr().out == "P 100.00 R 100.00 F1 100.00\n"


def test_deep_chain_round_trip(tmp_path, capsys):
    assert_deep_round_trip(tmp_path, capsys, "(A " * DEEP + "(P w)" + ")" * DEEP)


def test_deep_spine_round_trip(tmp_path, capsys):
    spine = "".join("(A (P w%d) " % i for i in range(DEEP)) + "(P w)" + ")" * DEEP
    assert_deep_round_trip(tmp_path, capsys, spine)


def write_pair(tmp_path, gold_text, pred_text):
    gold, pred = tmp_path / "gold.trees", tmp_path / "pred.trees"
    gold.write_text(gold_text, encoding="utf-8")
    pred.write_text(pred_text, encoding="utf-8")
    return gold, pred


def test_eval_leaf_count_mismatch_names_file_and_tree(tmp_path, capsys):
    gold, pred = write_pair(tmp_path, "(S (A a) (B b))\n(S (A a) (B b))\n",
                            "(S (A a) (B b))\n(S (A a) (B b) (C c))\n")
    assert run(["eval", str(gold), str(pred)]) == 2
    err = capsys.readouterr().err
    assert err == "error: %s: tree 2: gold has 2 leaves, prediction has 3\n" % pred


def test_eval_length_mismatch_names_both_files(tmp_path, capsys):
    gold, pred = write_pair(tmp_path, "(S (A a) (B b))\n(S (A a) (B b))\n",
                            "(S (A a) (B b))\n")
    assert run(["eval", str(gold), str(pred)]) == 2
    assert capsys.readouterr().err == "error: %s has 2 trees, %s has 1\n" % (gold, pred)


@pytest.mark.parametrize("bad_side", [0, 1], ids=["gold", "pred"])
def test_eval_per_n_reserved_label_names_file_and_tree(tmp_path, capsys, bad_side):
    good = "(S (A a) (B b))\n(S (NP (A a) (B b)) (C c))\n"
    bad = "(S (A a) (B b))\n(S (NP+X (A a) (B b)) (C c))\n"
    files = write_pair(tmp_path, *((bad, good) if bad_side == 0 else (good, bad)))
    argv = ["eval", str(files[0]), str(files[1]), "--per-n", str(tmp_path / "per_n.tsv")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s: tree 2: nonterminal 'NP+X'" % files[bad_side])


def test_decode_unknown_scheme_is_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.seq"
    bad.write_text("# scheme=bogus aux=\nthe\tDT\tDUMMY~DUMMY~NONE\n\n", encoding="utf-8")
    assert run(["decode", str(bad), str(tmp_path / "out.trees")]) == 2
    assert capsys.readouterr().err == "error: %s:1: unknown scheme 'bogus'\n" % bad


@pytest.mark.parametrize("option,value,message", [
    ("--batch-size", "0", "batch_size must be >= 1"),
    ("--dropout", "1.0", "dropout must be in [0, 1)"),
    ("--window", "-1", "window must be >= 0"),
    ("--hidden-dim", "0", "word_dim, pos_dim and hidden_dim must be >= 1"),
    ("--epochs", "0", "need at least one epoch"),
    ("--epochs", "-2", "need at least one epoch"),
    ("--lr", "-0.5", "learning_rate must be >= 0"),
    ("--decay", "-1", "decay must be >= 0"),
    ("--momentum", "1", "momentum must be in [0, 1)"),
    ("--seed", "-1", "seed must be >= 0"),
    ("--aux-weight", "nan", "aux_weight must be >= 0"),
    ("--decay", "inf", "decay must be finite"),
], ids=["batch-size", "dropout", "window", "hidden-dim", "epochs-zero", "epochs-negative", "lr",
        "decay", "momentum", "seed", "aux-weight-nan", "decay-inf"])
def test_train_out_of_range_setting_exit_code(tmp_path, small_model, capsys, option, value,
                                              message):
    seq, _, _ = small_model
    capsys.readouterr()
    out = tmp_path / "bad.npz"
    assert run(["train", str(seq), str(seq), str(out), "--epochs", "1", option, value]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()


@pytest.mark.parametrize("option,value,message", [
    ("--seed", "-1", "seed must be >= 0"),
    ("--burn-in", "-5", "burn_in must be >= 0"),
    ("--lr", "nan", "coefficients must be >= 0"),
    ("--entropy", "nan", "coefficients must be >= 0"),
    ("--lr", "inf", "learning_rate must be finite"),
], ids=["seed", "burn-in", "lr-nan", "entropy-nan", "lr-inf"])
def test_finetune_out_of_range_setting_exit_code(tmp_path, small_model, capsys, option, value,
                                                 message):
    _, trees_path, ckpt = small_model
    capsys.readouterr()
    out = tmp_path / "tuned.npz"
    assert run(["finetune", str(ckpt), str(trees_path), str(trees_path), str(out),
                "--epochs", "1", option, value]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()


def test_parse_error_names_its_position_once(tmp_path, capsys):
    bad = tmp_path / "bad.trees"
    bad.write_text("(S (A a))\n(S (B b)\n", encoding="utf-8")
    assert run(["eval", str(bad), str(bad)]) == 2
    assert capsys.readouterr().err == "error: %s:2: byte 9: unbalanced '('\n" % bad


@pytest.mark.parametrize("option,value,message", [
    ("--noise-std", "-1", "noise_std must be >= 0"),
    ("--noise-std", "nan", "noise_std must be >= 0"),
    ("--noise-std", "inf", "noise_std must be finite"),
    ("--noise-target", "-0.1", "noise_target must be >= 0"),
    ("--noise-adapt", "0", "noise_adapt must be >= 1"),
], ids=["std-negative", "std-nan", "std-inf", "target", "adapt"])
def test_finetune_noise_setting_out_of_range_exit_code(tmp_path, small_model, capsys, option,
                                                       value, message):
    _, trees_path, ckpt = small_model
    capsys.readouterr()
    out = tmp_path / "tuned.npz"
    assert run(["finetune", str(ckpt), str(trees_path), str(trees_path), str(out),
                "--epochs", "1", option, value]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()


def test_finetune_noise_std_zero_is_no_noise(tmp_path, small_model, capsys):
    _, trees_path, ckpt = small_model
    for name, extra in (("plain", []), ("zero", ["--noise-std", "0"])):
        assert run(["finetune", str(ckpt), str(trees_path), str(trees_path),
                    str(tmp_path / (name + ".npz")), "--epochs", "1", "--samples", "2",
                    "--log", str(tmp_path / (name + ".tsv"))] + extra) == 0
    for suffix in (".npz", ".tsv"):
        assert ((tmp_path / ("plain" + suffix)).read_bytes()
                == (tmp_path / ("zero" + suffix)).read_bytes())
    # noise has no switch of its own: --noise is no option
    capsys.readouterr()
    assert run(["finetune", str(ckpt), str(trees_path), str(trees_path),
                str(tmp_path / "t.npz"), "--noise"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "unrecognized arguments: --noise" in err
    assert not (tmp_path / "t.npz").exists()


@pytest.mark.parametrize("argv", [["--ep", "1"], ["--epochs", "1", "--hidden", "8"]],
                         ids=["ep", "hidden"])
def test_option_prefix_is_a_usage_error(tmp_path, small_model, capsys, argv):
    # an option is only its full name, so a unique prefix is no option either
    seq, _, _ = small_model
    capsys.readouterr()
    out = tmp_path / "m.npz"
    assert run(["train", str(seq), str(seq), str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert err == "usage error: unrecognized arguments: %s\n" % " ".join(argv[-2:])
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-1"])
def test_synth_count_below_one_exit_code(tmp_path, capsys, count):
    out = tmp_path / "empty.trees"
    assert run(["synth", str(out), "--count", count]) == 2
    assert capsys.readouterr().err == "error: --count must be >= 1\n"
    assert not out.exists()


def test_synth_label_that_utf8_cannot_encode_exits_2_with_file_and_line(tmp_path, capsys):
    # an argument byte that is not UTF-8 reaches the label as a lone surrogate
    out = tmp_path / "out.trees"
    assert run(["synth", str(out), "--count", "2", "--alphabet", "S,\udce9"]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: %s:\d+: not UTF-8 encodable \(surrogates not allowed\)\n"
                        % re.escape(str(out)), err)
    assert not out.exists()


@pytest.fixture
def empty_trees(tmp_path):
    path = tmp_path / "empty.trees"
    path.write_text("\n\n", encoding="utf-8")
    return path


def test_load_trees_rejects_a_file_without_trees(empty_trees):
    from treetag.trees import ParseError

    with pytest.raises(ParseError, match="^%s:1: file contains no trees$" % empty_trees):
        load_trees(empty_trees)


def test_eval_empty_file_exit_code(tmp_path, forest_file, empty_trees, capsys):
    for gold, pred in ((empty_trees, empty_trees), (forest_file, empty_trees)):
        assert run(["eval", str(gold), str(pred)]) == 2
        assert capsys.readouterr().err == "error: %s:1: file contains no trees\n" % empty_trees


@pytest.mark.parametrize("side", ["train", "dev"])
def test_finetune_empty_file_exit_code(tmp_path, small_model, empty_trees, capsys, side):
    _, trees_path, ckpt = small_model
    files = (empty_trees, trees_path) if side == "train" else (trees_path, empty_trees)
    capsys.readouterr()
    out = tmp_path / "tuned.npz"
    assert run(["finetune", str(ckpt), *map(str, files), str(out), "--epochs", "1"]) == 2
    assert capsys.readouterr().err == "error: %s:1: file contains no trees\n" % empty_trees
    assert not out.exists()


@pytest.fixture
def captured_configs(monkeypatch):
    """The config each of train_mtl and finetune_pg is called with; both
    then fail, so the subcommand exits 2 without writing a checkpoint."""
    from treetag import pg, tagger

    configs = {}

    def capture(name):
        def fake(data, config, **_):
            configs[name] = config
            raise RuntimeError("captured")
        return fake

    monkeypatch.setattr(tagger, "train_mtl", capture("train"))
    monkeypatch.setattr(pg, "finetune_pg", lambda policy, train, config, **kw:
                        capture("finetune")(train, config))
    return configs


def test_train_and_finetune_defaults_are_the_configs(tmp_path, small_model, captured_configs):
    from treetag.pg import PGConfig
    from treetag.tagger import TrainConfig

    seq, trees_path, ckpt = small_model
    assert run(["train", str(seq), str(seq), str(tmp_path / "m.npz")]) == 2
    assert run(["finetune", str(ckpt), str(trees_path), str(trees_path),
                str(tmp_path / "t.npz")]) == 2
    assert captured_configs == {"train": TrainConfig(), "finetune": PGConfig()}


def test_renamed_flags_reach_their_fields(tmp_path, small_model, captured_configs):
    seq, trees_path, ckpt = small_model
    assert run(["train", str(seq), str(seq), str(tmp_path / "m.npz"),
                "--lr", "0.3", "--batch-size", "3", "--aux-weight", "0.5"]) == 2
    assert run(["finetune", str(ckpt), str(trees_path), str(trees_path), str(tmp_path / "t.npz"),
                "--lr", "0.001", "--entropy", "0.2", "--burn-in", "7"]) == 2
    train, finetune = captured_configs["train"], captured_configs["finetune"]
    assert (train.learning_rate, train.batch_size, train.aux_weight) == (0.3, 3, 0.5)
    assert (finetune.learning_rate, finetune.entropy_coef, finetune.burn_in) == (0.001, 0.2, 7)


def test_help_keeps_the_flag_metavars(capsys):
    assert run(["train", "--help"]) == 0
    assert "--lr LR" in capsys.readouterr().out
    assert run(["finetune", "--help"]) == 0
    text = capsys.readouterr().out
    assert "--entropy ENTROPY" in text and "--noise-std NOISE_STD" in text
    assert "[--noise]" not in text


FIELD_RULE = "is empty or holds whitespace or a bracket"


@pytest.mark.parametrize("word", ["(dog", "big cat"])
def test_predict_rejects_a_field_no_tree_can_hold(tmp_path, small_model, capsys, word):
    _, _, ckpt = small_model
    tagged, out = tmp_path / "in.tagged", tmp_path / "out.trees"
    tagged.write_text("the\tDT\n%s\tNN\n\n" % word, encoding="utf-8")
    capsys.readouterr()
    assert run(["predict", str(ckpt), str(tagged), str(out)]) == 2
    assert capsys.readouterr().err == "error: %s:2: column 1 %r %s\n" % (tagged, word, FIELD_RULE)
    assert not out.exists()


def test_decode_rejects_a_field_no_tree_can_hold(tmp_path, capsys):
    seq, out = tmp_path / "in.seq", tmp_path / "out.trees"
    seq.write_text("# scheme=relative aux=\nthe dog\tNN\tDUMMY~DUMMY~NONE\n\n", encoding="utf-8")
    assert run(["decode", str(seq), str(out)]) == 2
    assert capsys.readouterr().err == "error: %s:2: column 1 'the dog' %s\n" % (seq, FIELD_RULE)
    assert not out.exists()


@pytest.mark.parametrize("option,value", [
    ("--max-leaves", "1"), ("--max-depth", "2"), ("--alphabet", "Q"),
])
def test_synth_pcfg_with_a_random_mode_option_is_usage_error(tmp_path, capsys, option, value):
    out = tmp_path / "p.trees"
    assert run(["synth", str(out), "--mode", "pcfg", option, value]) == 1
    assert capsys.readouterr().err == "usage error: %s needs --mode random\n" % option
    assert not out.exists()


def test_synth_random_mode_options_reach_the_trees(tmp_path):
    out = tmp_path / "r.trees"
    assert run(["synth", str(out), "--count", "30", "--max-leaves", "3", "--max-depth", "2",
                "--alphabet", "Q"]) == 0
    texts = [serialize(t) for t in load_trees(out)]
    assert all(len(re.findall(r"[^()\s]+ [^()\s]+\)", t)) <= 3 for t in texts)
    assert {label for t in texts for label in re.findall(r"\((\S+) \(", t)} == {"Q"}


def test_eval_scheme_without_per_n_is_usage_error(forest_file, capsys):
    assert run(["eval", str(forest_file), str(forest_file), "--scheme", "absolute"]) == 1
    assert capsys.readouterr().err == "usage error: --scheme needs --per-n\n"


def test_eval_per_n_report_in_the_chosen_scheme(tmp_path, forest_file):
    report = tmp_path / "per_n.tsv"
    assert run(["eval", str(forest_file), str(forest_file), "--per-n", str(report),
                "--scheme", "absolute"]) == 0
    tokens = [line.split("\t")[0] for line in report.read_text().splitlines()[1:]]
    assert tokens and all(tok == "DUMMY" or tok.startswith("a") for tok in tokens)


def test_eval_strips_punctuation(tmp_path, capsys):
    """test_metrics' punctuation case through `treetag eval`."""
    gold, pred = write_pair(tmp_path, *(text + "\n" for text in PUNCTUATED_PAIR))
    assert run(["eval", str(gold), str(pred)]) == 0
    assert capsys.readouterr().out == "P 66.67 R 66.67 F1 66.67\n"
    assert run(["eval", str(gold), str(pred), "--strip-punctuation"]) == 0
    assert capsys.readouterr().out == "P 100.00 R 100.00 F1 100.00\n"


@pytest.mark.parametrize("strip", [False, True])
@pytest.mark.parametrize("gold_text, pred_text, counts", LEAF_COUNT_MISMATCHES)
def test_eval_leaf_count_mismatch_counts_raw_leaves(tmp_path, capsys, gold_text, pred_text,
                                                    counts, strip):
    """Punctuation leaves count towards the check even when stripped."""
    gold, pred = write_pair(tmp_path, gold_text + "\n", pred_text + "\n")
    assert run(["eval", str(gold), str(pred)] + ["--strip-punctuation"] * strip) == 2
    message = "gold has %d leaves, prediction has %d" % counts
    assert capsys.readouterr().err == "error: %s: tree 1: %s\n" % (pred, message)


@pytest.mark.parametrize("seed", range(4))
def test_eval_report_is_the_corpus_score(tmp_path, capsys, seed):
    rng = random.Random(seed)
    alphabet = ["S", "NP", "VP", "NP+VP", "-NONE-"]
    gold, pred = [], []
    while len(gold) < 40:
        g, p = (random_tree(rng.randrange(10**6), 12, 8, alphabet) for _ in range(2))
        if len(Sentence.from_tree(g)) == len(Sentence.from_tree(p)):
            gold.append(g)
            pred.append(p)
    save_trees(tmp_path / "gold.trees", gold)
    save_trees(tmp_path / "pred.trees", pred)
    assert run(["eval", str(tmp_path / "gold.trees"), str(tmp_path / "pred.trees")]) == 0
    expected = format_bracket_report(corpus_bracket_score(gold, pred))
    assert capsys.readouterr().out == expected + "\n"


def test_the_reused_parser_keeps_no_state(tmp_path, forest_file, small_model, captured_configs,
                                          capsys):
    """Every run reads its arguments with one parser: a flag of one run does
    not reach the next, and no default is changed in place."""
    from treetag import cli
    from treetag.pg import PGConfig

    parser = cli.build_parser()
    aux_default = parser.parse_args(["encode", "in", "out"]).aux
    seq = tmp_path / "out.seq"
    assert run(["encode", str(forest_file), str(seq), "--aux", "dist"]) == 0
    assert seq.read_text().splitlines()[0] == "# scheme=relative aux=dist"
    assert run(["encode", str(forest_file), str(seq)]) == 0
    assert seq.read_text().splitlines()[0] == "# scheme=relative aux="

    _, trees_path, ckpt = small_model
    finetune = ["finetune", str(ckpt), str(trees_path), str(trees_path), str(tmp_path / "t.npz")]
    assert run(finetune + ["--noise-std", "0.1"]) == 2
    assert captured_configs["finetune"].noise_std == 0.1
    assert run(finetune) == 2
    assert captured_configs["finetune"] == PGConfig()

    gold, pred = write_pair(tmp_path, *(text + "\n" for text in PUNCTUATED_PAIR))
    capsys.readouterr()
    assert run(["eval", str(gold), str(pred), "--strip-punctuation"]) == 0
    assert run(["eval", str(gold), str(pred)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "P 66.67 R 66.67 F1 66.67"

    assert cli.build_parser() is parser
    assert parser.parse_args(["encode", "in", "out"]).aux is aux_default == []


TINY = ["--epochs", "1", "--hidden-dim", "8", "--word-dim", "4", "--pos-dim", "4"]


@pytest.mark.parametrize("argv, source", [
    (["eval", "{trees}", "{bad}"], "trees"),
    (["encode", "{bad}", "{out}"], "trees"),
    (["decode", "{bad}", "{out}"], "seq"),
    (["stats", "{bad}"], "seq"),
    (["train", "{bad}", "{seq}", "{out}", *TINY], "seq"),
    (["train", "{seq}", "{bad}", "{out}", *TINY], "seq"),
    (["finetune", "{ckpt}", "{bad}", "{trees}", "{out}", "--epochs", "1"], "trees"),
    (["predict", "{ckpt}", "{bad}", "{out}"], "tagged"),
], ids=["eval", "encode", "decode", "stats", "train", "train-dev", "finetune", "predict"])
def test_a_byte_that_is_not_utf8_exits_2_with_file_and_line(tmp_path, small_model, capsys, argv,
                                                           source):
    seq, trees_path, ckpt = small_model
    tagged = tmp_path / "small.tagged"
    write_tagged(tagged, load_trees(trees_path))
    files = {"seq": seq, "trees": trees_path, "ckpt": ckpt, "tagged": tagged,
             "bad": tmp_path / "latin", "out": tmp_path / "out"}
    lines = files[source].read_bytes().split(b"\n")
    lines[1] = b"caf\xe9" + lines[1]
    files["bad"].write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert run([arg.format(**files) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s:2: " % files["bad"])
    assert len(err.splitlines()) == 1
    assert not files["out"].exists()

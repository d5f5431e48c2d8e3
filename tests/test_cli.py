"""End-to-end command-line tests (driving run() directly)."""

import pytest

from treetag.cli import run
from treetag.trees import load_trees, save_trees, sample_corpus, serialize
from treetag.seqfile import read_seq


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
    corpus, aux, scheme = read_seq(seq)
    assert scheme == "relative"
    assert set(aux[0].keys()) == {"dist", "n+1"}


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
    assert log.read_text().startswith("epoch\t")


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_policy_gradient_overflow_exit_code(tmp_path, small_model, capsys):
    _, trees_path, ckpt = small_model
    capsys.readouterr()
    assert run(["finetune", str(ckpt), str(trees_path), str(trees_path),
                str(tmp_path / "bad.npz"), "--epochs", "1", "--entropy", "1e308"]) == 2
    err = capsys.readouterr().err
    assert "error: %s: fine-tuning failed: non-finite policy gradient" % ckpt in err


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
    from treetag import auxtracks, encodings
    from treetag.seqfile import write_seq
    from treetag.trees import random_tree

    forest = [random_tree(seed, 15, 8, ["S", "NP", "VP"]) for seed in range(40)]
    path = tmp_path / "in.trees"
    save_trees(path, forest)
    # the per-tree library calls, each walking the tree on its own
    encoded = [encodings.encode(t, scheme) for t in forest]
    expected = tmp_path / "expected.seq"
    write_seq(expected, encoded, [
        {name: auxtracks.make_track(name, t, enc, cap) for name in ("dist", "n+1")}
        for t, enc in zip(forest, encoded)
    ])

    calls = []
    walk = encodings.boundaries

    def counting(tree):
        calls.append(tree)
        return walk(tree)

    monkeypatch.setattr(encodings, "boundaries", counting)
    monkeypatch.setattr(auxtracks, "boundaries", counting)
    out = tmp_path / "out.seq"
    argv = ["encode", str(path), str(out), "--scheme", scheme, "--aux", "n+1", "--aux", "dist"]
    assert run(argv + (["--distance-cap", str(cap)] if cap else [])) == 0
    assert calls == forest
    assert out.read_bytes() == expected.read_bytes()


@pytest.fixture
def deep_chain(tmp_path):
    # a 3,000-level unary chain: deeper than the recursive tree walks reach
    path = tmp_path / "deep.trees"
    path.write_text("(A " * 3000 + "(P w)" + ")" * 3000 + "\n", encoding="utf-8")
    return path


def test_eval_of_too_deep_tree_exit_code(deep_chain, capsys):
    assert run(["eval", str(deep_chain), str(deep_chain)]) == 2
    err = capsys.readouterr().err
    assert err == "error: %s: a tree is nested too deeply to process\n" % deep_chain


def test_decode_of_too_deep_tree_exit_code(tmp_path, deep_chain, capsys):
    seq = tmp_path / "deep.seq"
    assert run(["encode", str(deep_chain), str(seq)]) == 0
    capsys.readouterr()
    assert run(["decode", str(seq), str(tmp_path / "back.trees")]) == 2
    err = capsys.readouterr().err
    assert err == "error: %s: a tree is nested too deeply to process\n" % seq


def test_parse_error_names_its_position_once(tmp_path, capsys):
    bad = tmp_path / "bad.trees"
    bad.write_text("(S (A a))\n(S (B b)\n", encoding="utf-8")
    assert run(["eval", str(bad), str(bad)]) == 2
    assert capsys.readouterr().err == "error: %s:2: byte 9: unbalanced '('\n" % bad

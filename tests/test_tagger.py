"""Tagger tests: featurization, forward contracts, a full finite-difference
gradient check, loss composition, and desk-scale memorization."""

import json
import re

import numpy as np
import pytest

from treetag import tagger
from treetag.trees import Sentence, parse_bracketed, sample_corpus
from treetag.encodings import decode, encode_dynamic, encode_relative
from treetag.auxtracks import make_track
from treetag.metrics import corpus_bracket_score
from treetag.tagger import (
    BOS,
    EOS,
    OOV,
    MAIN_TASKS,
    TaggerModel,
    TrainConfig,
    Vocabularies,
    _gold_ids,
    encoded_from_ids,
    featurize,
    load_model,
    mtl_loss,
    predict_greedy,
    predict_trees,
    save_model,
    task_losses,
    train_mtl,
)


def tiny_config(**kw):
    base = dict(
        word_dim=6,
        pos_dim=4,
        hidden_dim=8,
        window=1,
        dropout=0.0,
        epochs=5,
        batch_size=4,
        learning_rate=0.1,
        seed=3,
    )
    base.update(kw)
    return TrainConfig(**base)


def tiny_corpus(n=6, aux_names=("n+1", "dist"), cap=None):
    forest = sample_corpus(17, n)
    corpus = []
    for t in forest:
        enc = encode_dynamic(t)
        aux = {name: make_track(name, t, enc, cap=cap) for name in aux_names}
        corpus.append((enc.sentence, enc, aux))
    return forest, corpus


# ---------------------------------------------------------------------------
# vocabularies / featurize

def test_vocab_reserved_ids():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    assert vocab.word2id[OOV] == 0
    assert vocab.word2id[BOS] == 1
    assert vocab.word2id[EOS] == 2
    ids = sorted(vocab.word2id.values())
    assert ids == list(range(len(ids)))  # dense
    for task, table in vocab.tasks.items():
        assert sorted(table.values()) == list(range(len(table)))


def test_featurize_window_padding():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    s = Sentence(("dog",), ("NN",))
    word_win, pos_win = featurize(s, vocab, r=2)
    assert word_win.shape == (1, 5)
    assert list(word_win[0][:2]) == [vocab.word2id[BOS]] * 2
    assert list(word_win[0][3:]) == [vocab.word2id[EOS]] * 2
    padding = sum(1 for v in word_win[0] if v in (vocab.word2id[BOS], vocab.word2id[EOS]))
    assert padding == 4


def test_featurize_oov():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    s = Sentence(("zzz", "qqq"), ("NN", "ZZTAG"))
    word_win, pos_win = featurize(s, vocab, r=0)
    assert word_win[0, 0] == vocab.word2id[OOV]
    assert pos_win[1, 0] == vocab.pos2id[OOV]


def featurize_old(sentence, vocab, r):
    """The per-sentence window builder `windows` stacked before it read
    all sentences from one padded id list."""
    T = len(sentence)
    oov_word, oov_pos = vocab.word2id[OOV], vocab.pos2id[OOV]
    padded = np.empty((2, T + 2 * r), dtype=np.int64)
    padded[:, :r] = [[vocab.word2id[BOS]], [vocab.pos2id[BOS]]]
    padded[:, r + T :] = [[vocab.word2id[EOS]], [vocab.pos2id[EOS]]]
    padded[0, r : r + T] = [vocab.word2id.get(w, oov_word) for w in sentence.words]
    padded[1, r : r + T] = [vocab.pos2id.get(p, oov_pos) for p in sentence.pos]
    word_win, pos_win = padded[:, np.arange(T)[:, None] + np.arange(2 * r + 1)]
    return word_win, pos_win


@pytest.mark.parametrize("r", [0, 2])
@pytest.mark.parametrize("count", [1, 5])
def test_windows_equal_stacked_per_sentence_windows(r, count):
    _, corpus = tiny_corpus()
    model = TaggerModel(Vocabularies.build(corpus), tiny_config(window=r), "dynamic")
    rng = np.random.default_rng(count + 10 * r)
    words = sorted(model.vocab.word2id)[3:] + ["zzz", "qqq"]  # two OOV words
    tags = sorted(model.vocab.pos2id)[3:] + ["ZZTAG"]
    sentences = []
    for length in rng.integers(1, 9, size=count):
        sentences.append(Sentence(tuple(rng.choice(words, length)), tuple(rng.choice(tags, length))))
    vocab = model.vocab
    expected = np.concatenate([np.hstack(featurize_old(s, vocab, r)) for s in sentences])
    windows = model.windows(sentences)
    assert windows.dtype == expected.dtype
    np.testing.assert_array_equal(windows, expected)
    for s in sentences:
        for new, old in zip(featurize(s, vocab, r), featurize_old(s, vocab, r)):
            np.testing.assert_array_equal(new, old)


def test_input_dim_r0():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    cfg = tiny_config(window=0)
    model = TaggerModel(vocab, cfg, "dynamic")
    X = model.forward(corpus[0][0])["X"]
    assert X.shape == (len(corpus[0][0]), cfg.word_dim + cfg.pos_dim)


def test_input_dim_windowed():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    cfg = tiny_config(window=2)
    model = TaggerModel(vocab, cfg, "dynamic")
    X = model.forward(corpus[0][0])["X"]
    assert X.shape[1] == 5 * (cfg.word_dim + cfg.pos_dim)


def test_all_oov_sentence_finite():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, tiny_config(), "dynamic")
    s = Sentence(("qq", "ww", "ee"), ("Z1", "Z2", "Z3"))
    cache = model.forward(s)
    for name in model.tasks:
        assert np.isfinite(cache["probs"][name]).all()


# ---------------------------------------------------------------------------
# forward contracts

def test_probabilities_sum_to_one():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, tiny_config(), "dynamic")
    cache = model.forward(corpus[0][0])
    for name in model.tasks:
        np.testing.assert_allclose(cache["probs"][name].sum(axis=1), 1.0, atol=1e-9)


def test_zero_heads_give_uniform():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, tiny_config(), "dynamic")
    for name in model.tasks:
        model.params["W_" + name][:] = 0.0
        model.params["b_" + name][:] = 0.0
    cache = model.forward(corpus[0][0])
    for name in model.tasks:
        k = cache["probs"][name].shape[1]
        np.testing.assert_allclose(cache["probs"][name], 1.0 / k, atol=1e-12)


def test_nonfinite_parameters_fault():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, tiny_config(), "dynamic")
    model.params["W1"][0, 0] = np.nan
    with pytest.raises(RuntimeError):
        model.forward(corpus[0][0])


def test_nonfinite_head_faults_prediction():
    _, corpus = tiny_corpus()
    model = TaggerModel(Vocabularies.build(corpus), tiny_config(), "dynamic")
    model.params["W_u"][:, 0] = np.nan
    with pytest.raises(RuntimeError, match="non-finite logits in head 'u'"):
        predict_greedy(model, corpus[0][0])


def test_hard_sharing_head_independence():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, tiny_config(), "dynamic")
    before = model.forward(corpus[0][0])["probs"]["n"].copy()
    model.params["W_c"] += 0.5
    model.params["b_c"] -= 0.25
    after = model.forward(corpus[0][0])["probs"]["n"]
    np.testing.assert_array_equal(before, after)


def test_argmax_invariant_under_logit_shift():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, tiny_config(), "dynamic")
    s = corpus[0][0]
    base = predict_greedy(model, s)
    # adding a constant to all logits of one token == shifting head bias
    model.params["b_n"] += 3.7
    model.params["b_c"] += 3.7
    model.params["b_u"] += 3.7
    assert predict_greedy(model, s).labels == base.labels


# ---------------------------------------------------------------------------
# gradient check

def analytic_grads(model, *instances, dropout_rng=None):
    # one forward/backward over the stacked tokens of all instances
    cache = model.forward(model.windows([s for s, _, _ in instances]), dropout_rng=dropout_rng)
    _, dlogits = task_losses(cache, _gold_ids(model.vocab, instances))
    beta = model.config.aux_weight
    for name in dlogits:
        if name not in MAIN_TASKS:
            dlogits[name] *= beta
    return model.backward(cache, dlogits)


def summed_loss(model, *instances):
    # un-normalised loss of the instances (matches analytic_grads)
    cache = model.forward(model.windows([s for s, _, _ in instances]))
    losses, _ = task_losses(cache, _gold_ids(model.vocab, instances))
    beta = model.config.aux_weight
    total = sum(losses[n] for n in MAIN_TASKS)
    total += beta * sum(v for n, v in losses.items() if n not in MAIN_TASKS)
    return total


def assert_gradients_match_finite_differences(model, instances):
    grads = analytic_grads(model, *instances)
    eps = 1e-4
    for name, tensor in model.params.items():
        flat = tensor.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = summed_loss(model, *instances)
            flat[i] = orig - eps
            lo = summed_loss(model, *instances)
            flat[i] = orig
            fd = (hi - lo) / (2 * eps)
            denom = max(abs(fd), abs(gflat[i]), 1e-8)
            assert abs(fd - gflat[i]) / denom < 1e-4, (
                "%s[%d]: analytic %g vs fd %g" % (name, i, gflat[i], fd)
            )


def test_gradients_match_finite_differences():
    (t,) = parse_bracketed("(S (NP (DT the) (NN dog)) (VB runs))")
    enc = encode_dynamic(t)
    aux = {name: make_track(name, t, enc) for name in ("n+1", "dist")}
    instance = (enc.sentence, enc, aux)
    vocab = Vocabularies.build([instance])
    model = TaggerModel(vocab, tiny_config(), "dynamic")
    assert_gradients_match_finite_differences(model, [instance])


def test_batched_gradients_match_finite_differences():
    instances = []
    for text in ("(S (NP (DT the) (NN dog)) (VB runs))", "(S (NN cats) (VP (VB sleep) (RB now)))"):
        (t,) = parse_bracketed(text)
        enc = encode_dynamic(t)
        instances.append((enc.sentence, enc, {name: make_track(name, t, enc) for name in ("n+1", "dist")}))
    vocab = Vocabularies.build(instances)
    model = TaggerModel(vocab, tiny_config(hidden_dim=5), "dynamic")
    assert_gradients_match_finite_differences(model, instances)


def test_batch_gradient_is_sum_of_sentence_gradients():
    # with dropout on: one (sum T, H) mask draw is the per-sentence draws in order
    _, corpus = tiny_corpus(n=5)
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, tiny_config(dropout=0.5), "dynamic")
    batched = analytic_grads(model, *corpus, dropout_rng=np.random.default_rng(1))
    rng = np.random.default_rng(1)
    per_sentence = [analytic_grads(model, instance, dropout_rng=rng) for instance in corpus]
    assert batched.keys() == model.params.keys()
    for name in model.params:
        np.testing.assert_allclose(
            batched[name], sum(g[name] for g in per_sentence), rtol=0, atol=1e-12
        )


def test_backward_skips_frozen_and_missing_heads():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, tiny_config(), "dynamic")
    cache = model.forward(corpus[0][0], heads=("n",))
    assert set(cache["probs"]) == {"n"}
    grads = model.backward(cache, {"n": cache["probs"]["n"]}, frozen=("E_word", "E_pos"))
    assert set(grads) == {"W_n", "b_n", "W1", "b1"}
    full = model.backward(cache, {"n": cache["probs"]["n"]})
    for name in grads:
        np.testing.assert_array_equal(grads[name], full[name])
    for frozen in ("E_word", "E_pos"):
        partial = model.backward(cache, {"n": cache["probs"]["n"]}, frozen=(frozen,))
        assert frozen not in partial
        for name in partial:
            np.testing.assert_array_equal(partial[name], full[name])


def test_embedding_gradients_equal_row_scatter_bytes():
    # a batch repeating every id: the flat scatter must add each row's
    # contributions in np.add.at's order, so the sums match to the bit
    _, corpus = tiny_corpus(n=4)
    model = TaggerModel(Vocabularies.build(corpus), tiny_config(window=2), "dynamic")
    instances = corpus * 3
    cache = model.forward(model.windows([s for s, _, _ in instances]))
    _, dlogits = task_losses(cache, _gold_ids(model.vocab, instances))
    grads = model.backward(cache, dlogits)
    P = model.params
    dh = np.zeros_like(cache["h"])
    for name, dz in dlogits.items():
        dh += dz @ P["W_" + name].T
    dX = (dh * (1.0 - cache["h_raw"] ** 2)) @ P["W1"].T
    W = cache["windows"].shape[1] // 2
    split = W * model.config.word_dim
    for name, win, dx in (
        ("E_word", cache["windows"][:, :W], dX[:, :split]),
        ("E_pos", cache["windows"][:, W:], dX[:, split:]),
    ):
        assert len(np.unique(win)) < win.size
        expected = np.zeros_like(P[name])
        np.add.at(expected, win, dx.reshape(win.shape + (-1,)))
        assert grads[name].tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# projected hidden layer

def repeated_instances(copies=22):
    # one 3-word sentence stacked `copies` times: few distinct ids, and
    # with the default 66 rows more than PROJECT_MIN_ROWS
    (t,) = parse_bracketed("(S (NP (DT the) (NN dog)) (VB runs))")
    enc = encode_dynamic(t)
    instance = (enc.sentence, enc, {name: make_track(name, t, enc) for name in ("n+1", "dist")})
    return [instance] * copies


@pytest.mark.parametrize("batch", ["repeated", "distinct"])
def test_projected_and_direct_pre_activations_agree(monkeypatch, batch):
    _, corpus = tiny_corpus(n=12)
    model = TaggerModel(Vocabularies.build(corpus), tiny_config(window=2), "dynamic")
    if batch == "repeated":
        windows = model.windows([s for s, _, _ in corpus])
    else:
        words = tuple(sorted(model.vocab.word2id)[3:])
        windows = model.windows([Sentence(words, ("NN",) * len(words))])
        assert len(np.unique(windows[:, 2])) == len(windows)
    monkeypatch.setattr(tagger, "PROJECT_SHARE", 0.0)
    direct, X = model._pre_activation(windows)
    assert X is not None
    monkeypatch.setattr(tagger, "PROJECT_SHARE", np.inf)
    monkeypatch.setattr(tagger, "PROJECT_MIN_ROWS", 0)
    projected, X = model._pre_activation(windows)
    assert X is None
    np.testing.assert_allclose(projected, direct, rtol=0, atol=1e-12)


def test_projected_gradients_match_finite_differences():
    instances = repeated_instances()
    model = TaggerModel(Vocabularies.build(instances[:1]), tiny_config(hidden_dim=5), "dynamic")
    windows = model.windows([s for s, _, _ in instances])
    assert model._pre_activation(windows)[1] is None
    assert_gradients_match_finite_differences(model, instances)


def test_nonfinite_w1_faults_on_both_paths():
    instances = repeated_instances()
    model = TaggerModel(Vocabularies.build(instances[:1]), tiny_config(), "dynamic")
    model.params["W1"][0, 0] = np.nan
    single = model.windows([instances[0][0]])
    batch = model.windows([s for s, _, _ in instances])
    assert model._pre_activation(single)[1] is not None
    assert model._pre_activation(batch)[1] is None
    for windows in (single, batch):
        with pytest.raises(RuntimeError):
            model.forward(windows)


def test_single_distinct_sentence_takes_direct_path():
    # default dimensions; 100 distinct words under a single POS tag
    words = tuple("w%d" % i for i in range(100))
    sentence = Sentence(words, ("NN",) * len(words))
    (t,) = parse_bracketed("(S %s)" % " ".join("(NN %s)" % w for w in words))
    enc = encode_relative(t)
    model = TaggerModel(Vocabularies.build([(enc.sentence, enc, {})]), TrainConfig(), "relative")
    assert len(sentence) >= tagger.PROJECT_MIN_ROWS
    assert model.forward(sentence)["X"] is not None


def test_encoded_from_gold_ids_gives_the_gold_labels():
    # the id -> label tables invert the vocabularies, empty u chains included
    _, corpus = tiny_corpus(n=12)
    model = TaggerModel(Vocabularies.build(corpus), tiny_config(), "dynamic")
    assert "" in model.vocab.u_chains
    for instance in corpus:
        ids = _gold_ids(model.vocab, [instance])
        assert tagger.encoded_from_ids(model, instance[0], ids) == instance[1]


# ---------------------------------------------------------------------------
# loss composition

@pytest.mark.parametrize("beta", [0.0, 0.1])
def test_loss_composition(beta):
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, tiny_config(aux_weight=beta), "dynamic")
    total, parts = mtl_loss(model, corpus, beta=beta)
    expected = parts["n"] + parts["c"] + parts["u"]
    expected += beta * sum(parts[name] for name in vocab.aux_tasks)
    assert abs(total - expected) <= 1e-9


def test_loss_beta_zero_drops_aux():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, tiny_config(), "dynamic")
    total, parts = mtl_loss(model, corpus, beta=0.0)
    assert total == pytest.approx(parts["n"] + parts["c"] + parts["u"])


def test_singleton_task_vocab_zero_entropy():
    # every u is NONE in this corpus, so the u head has one label and
    # cross-entropy is exactly zero
    (t,) = parse_bracketed("(S (A a) (B b))")
    enc = encode_relative(t)
    corpus = [(enc.sentence, enc, {})]
    vocab = Vocabularies.build(corpus)
    assert len(vocab.tasks["u"]) == 1
    model = TaggerModel(vocab, tiny_config(), "relative")
    _, parts = mtl_loss(model, corpus)
    assert parts["u"] == 0.0


# ---------------------------------------------------------------------------
# training

def test_train_empty_corpus_rejected():
    with pytest.raises(ValueError):
        train_mtl([], tiny_config())


BAD_SETTINGS = [
    ({"batch_size": 0}, "batch_size must be >= 1"),
    ({"window": -1}, "window must be >= 0"),
    ({"dropout": 1.0}, "dropout must be in [0, 1)"),
    ({"dropout": -0.1}, "dropout must be in [0, 1)"),
    ({"dropout": float("nan")}, "dropout must be in [0, 1)"),
    ({"word_dim": 0}, "word_dim, pos_dim and hidden_dim must be >= 1"),
    ({"pos_dim": 0}, "word_dim, pos_dim and hidden_dim must be >= 1"),
    ({"hidden_dim": 0}, "word_dim, pos_dim and hidden_dim must be >= 1"),
]


def _setting_ids(cases):
    return ["%s=%s" % next(iter(settings.items())) for settings, _ in cases]


@pytest.mark.parametrize("settings,message", BAD_SETTINGS, ids=_setting_ids(BAD_SETTINGS))
def test_train_config_rejects_out_of_range_settings(settings, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        tiny_config(**settings)


def test_train_config_allows_zero_epochs_and_no_dropout():
    config = tiny_config(epochs=0, dropout=0.0, window=0)
    _, corpus = tiny_corpus()
    assert train_mtl(corpus, config).history == []


def test_loss_decreases_early():
    _, corpus = tiny_corpus(n=16)
    model = train_mtl(corpus, tiny_config(epochs=10, dropout=0.3))
    losses = [h["loss"] for h in model.history]
    assert np.mean(losses[5:]) < np.mean(losses[:5])


def test_memorizes_repeated_tree():
    (t,) = parse_bracketed("(S (NP (DT the) (NN dog)) (VP (VB chases) (NP (DT a) (NN cat))))")
    enc = encode_relative(t)
    corpus = [(enc.sentence, enc, {})] * 8
    cfg = tiny_config(epochs=200, learning_rate=0.1, dropout=0.0,
                      hidden_dim=16, word_dim=8, pos_dim=4)
    model = train_mtl(corpus, cfg)
    pred = predict_greedy(model, enc.sentence)
    assert pred.labels == enc.labels
    assert decode(pred) == t


def test_predict_deterministic_and_decodable():
    _, corpus = tiny_corpus()
    model = train_mtl(corpus, tiny_config(epochs=2))
    s = corpus[0][0]
    assert predict_greedy(model, s).labels == predict_greedy(model, s).labels
    # random parameters still yield decodable output
    fresh = TaggerModel(model.vocab, tiny_config(seed=99), "dynamic")
    for sentence, _, _ in corpus:
        decode(predict_greedy(fresh, sentence))


def test_predict_corpus_order_and_batching(monkeypatch):
    _, corpus = tiny_corpus(n=7)
    model = train_mtl(corpus, tiny_config(epochs=2))
    sentences = [c[0] for c in corpus]
    words = [w for s in sentences for w in s.words] * 8
    pos = [p for s in sentences for p in s.pos] * 8
    long = Sentence(tuple(words), tuple(pos))
    assert len(long) > tagger.TOKEN_BUDGET
    sentences = sentences[:3] + [long] + sentences[3:]
    expected = [predict_greedy(model, s).labels for s in sentences]
    trees = [decode(predict_greedy(model, s)) for s in sentences]
    for budget in (1, 10, tagger.TOKEN_BUDGET):
        monkeypatch.setattr(tagger, "TOKEN_BUDGET", budget)
        ids = tagger._predict_ids(model, sentences)
        assert [encoded_from_ids(model, s, i).labels for s, i in zip(sentences, ids)] == expected
        assert predict_trees(model, sentences) == trees
    assert predict_trees(model, []) == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_predicted_ids_are_the_argmax_of_probabilities(seed):
    _, corpus = tiny_corpus()
    model = TaggerModel(Vocabularies.build(corpus), tiny_config(seed=seed), "dynamic")
    rng = np.random.default_rng(seed)
    for name in model.tasks:  # biases start at zero
        model.params["b_" + name] = rng.normal(size=model.params["b_" + name].shape)
    words = sorted(model.vocab.word2id)[3:] + ["zzz"]
    tags = sorted(model.vocab.pos2id)[3:]
    sentences = [
        Sentence(tuple(rng.choice(words, n)), tuple(rng.choice(tags, n)))
        for n in rng.integers(1, 12, size=40)
    ]
    assert model._pre_activation(model.windows(sentences))[1] is None  # projected
    for batch in [sentences, sentences[:1]]:
        probs = model.forward(model.windows(batch))["probs"]
        ids = list(tagger._predict_ids(model, batch))
        for name in MAIN_TASKS:
            got = np.concatenate([sentence_ids[name] for sentence_ids in ids])
            np.testing.assert_array_equal(got, probs[name].argmax(axis=1))
        assert predict_trees(model, batch) == [decode(predict_greedy(model, s)) for s in batch]


def test_dev_selection_keeps_best():
    forest, corpus = tiny_corpus(n=12)
    dev = [(c[0], t) for c, t in zip(corpus, forest)]
    model = train_mtl(corpus, tiny_config(epochs=8), dev=dev)
    assert all("dev_f1" in h for h in model.history)
    best = max(h["dev_f1"] for h in model.history)
    preds = [decode(predict_greedy(model, c[0])) for c in corpus]
    assert corpus_bracket_score(forest, preds).f1 == pytest.approx(best)


def test_distance_cap_limits_aux_vocab():
    _, corpus = tiny_corpus(n=20, aux_names=("dist",))
    raw = {v for _, _, aux in corpus for v in aux["dist"] if v != "PAD"}
    assert any(int(v) > 2 for v in raw)
    _, corpus = tiny_corpus(n=20, aux_names=("dist",), cap=2)
    model = train_mtl(corpus, tiny_config(epochs=1))
    capped = set(model.vocab.tasks["dist"])
    assert all(v == "PAD" or int(v) <= 2 for v in capped)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip(tmp_path):
    _, corpus = tiny_corpus()
    model = train_mtl(corpus, tiny_config(epochs=3))
    path = tmp_path / "model.npz"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.scheme == model.scheme
    for name in model.params:
        np.testing.assert_array_equal(loaded.params[name], model.params[name])
    for sentence, _, _ in corpus:
        assert predict_greedy(loaded, sentence).labels == predict_greedy(model, sentence).labels


def _rewrite_meta(path, edit):
    with np.load(path) as data:
        arrays = dict(data)
    meta = json.loads(str(arrays["meta"]))
    edit(meta)
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


@pytest.fixture
def saved_model(tmp_path):
    _, corpus = tiny_corpus()
    model = train_mtl(corpus, tiny_config(epochs=2))
    path = tmp_path / "model.npz"
    save_model(path, model)
    return path, model, corpus


@pytest.mark.parametrize("edit", [
    lambda meta: meta.pop("word2id"),
    lambda meta: meta["config"].update(bogus=1),
    lambda meta: meta["param_names"].remove("b_u"),
], ids=["no_word2id", "unknown_config_key", "missing_head"])
def test_malformed_checkpoint_meta_rejected(saved_model, edit):
    path, _, _ = saved_model
    _rewrite_meta(path, edit)
    with pytest.raises(ValueError, match=re.escape("%s: not a readable checkpoint" % path)):
        load_model(path)


@pytest.mark.parametrize("settings,message", BAD_SETTINGS[:4], ids=_setting_ids(BAD_SETTINGS[:4]))
def test_checkpoint_with_out_of_range_config_rejected(saved_model, settings, message):
    path, _, _ = saved_model
    _rewrite_meta(path, lambda meta: meta["config"].update(settings))
    expected = "%s: not a readable checkpoint: %s" % (path, message)
    with pytest.raises(ValueError, match=re.escape(expected)):
        load_model(path)


def test_checkpoint_with_distance_cap_key_loads(saved_model):
    """Older checkpoints carry a `distance_cap` config key; it is ignored."""
    path, model, corpus = saved_model
    _rewrite_meta(path, lambda meta: meta["config"].update(distance_cap=None))
    loaded = load_model(path)
    for sentence, _, _ in corpus:
        assert predict_greedy(loaded, sentence).labels == predict_greedy(model, sentence).labels

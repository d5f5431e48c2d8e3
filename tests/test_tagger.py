"""Tagger tests: featurization, forward contracts, a full finite-difference
gradient check, loss composition, and desk-scale memorization."""

import json
import re
from collections import Counter

import numpy as np
import pytest

from treetag import encodings, pg, tagger
from treetag.trees import Sentence, parse_bracketed, sample_corpus, serialize
from treetag.encodings import DUMMY, NO_CHAIN, NComponent, TagLabel
from treetag.encodings import decode, decode_with_repairs, encode_dynamic, encode_relative
from treetag.auxtracks import shifted_n, syntactic_distances
from treetag.metrics import BracketScore, corpus_bracket_score, labeled_spans, span_score
from treetag.tagger import (
    BOS,
    EOS,
    OOV,
    MAIN_TASKS,
    TaggerModel,
    TrainConfig,
    Vocabularies,
    _gold_ids,
    _softmax,
    encoded_from_ids,
    featurize,
    load_model,
    predict_greedy,
    predicted_lines,
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
        aux = {"n+1": shifted_n(enc, 1), "dist": syntactic_distances(t, cap)}
        corpus.append((enc, {name: aux[name] for name in aux_names}))
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
    X = model.forward(model.windows([corpus[0][0].sentence]))["X"]
    assert X.shape == (len(corpus[0][0].sentence), cfg.word_dim + cfg.pos_dim)


def test_input_dim_windowed():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    cfg = tiny_config(window=2)
    model = TaggerModel(vocab, cfg, "dynamic")
    X = model.forward(model.windows([corpus[0][0].sentence]))["X"]
    assert X.shape[1] == 5 * (cfg.word_dim + cfg.pos_dim)


def test_all_oov_sentence_finite():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, tiny_config(), "dynamic")
    s = Sentence(("qq", "ww", "ee"), ("Z1", "Z2", "Z3"))
    cache = model.forward(model.windows([s]))
    for name in model.tasks:
        assert np.isfinite(_softmax(cache["logits"][name])).all()


# ---------------------------------------------------------------------------
# forward contracts

def test_probabilities_sum_to_one():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, tiny_config(), "dynamic")
    cache = model.forward(model.windows([corpus[0][0].sentence]))
    for name in model.tasks:
        np.testing.assert_allclose(_softmax(cache["logits"][name]).sum(axis=1), 1.0, atol=1e-9)


def test_zero_heads_give_uniform():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, tiny_config(), "dynamic")
    for name in model.tasks:
        model.params["W_" + name][:] = 0.0
        model.params["b_" + name][:] = 0.0
    cache = model.forward(model.windows([corpus[0][0].sentence]))
    for name in model.tasks:
        k = cache["logits"][name].shape[1]
        np.testing.assert_allclose(_softmax(cache["logits"][name]), 1.0 / k, atol=1e-12)


def test_nonfinite_parameters_fault():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, tiny_config(), "dynamic")
    model.params["W1"][0, 0] = np.nan
    with pytest.raises(RuntimeError):
        model.forward(model.windows([corpus[0][0].sentence]))


def test_nonfinite_head_faults_prediction():
    # one message, from forward, for every path that runs a head
    _, corpus = tiny_corpus()
    sentences = [enc.sentence for enc, _ in corpus]
    for head in ("u", "n"):
        model = TaggerModel(Vocabularies.build(corpus), tiny_config(), "dynamic")
        model.params["W_" + head][:, 0] = np.nan
        for call in (lambda: model.forward(model.windows(sentences)),
                     lambda: predict_greedy(model, sentences[0]),
                     lambda: predicted_lines(model, sentences)):
            with pytest.raises(RuntimeError, match="^non-finite logits in head %r$" % head):
                call()


def test_forward_cache_holds_logits_not_probabilities():
    _, corpus = tiny_corpus()
    model = TaggerModel(Vocabularies.build(corpus), tiny_config(), "dynamic")
    cache = model.forward(model.windows([corpus[0][0].sentence]))
    assert set(cache) == {"windows", "X", "h_raw", "h", "mask", "logits"}
    assert set(cache["logits"]) == set(model.tasks)


def test_hard_sharing_head_independence():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, tiny_config(), "dynamic")
    windows = model.windows([corpus[0][0].sentence])
    before = _softmax(model.forward(windows)["logits"]["n"])
    model.params["W_c"] += 0.5
    model.params["b_c"] -= 0.25
    after = _softmax(model.forward(windows)["logits"]["n"])
    np.testing.assert_array_equal(before, after)


def test_argmax_invariant_under_logit_shift():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, tiny_config(), "dynamic")
    s = corpus[0][0].sentence
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
    windows = model.windows([enc.sentence for enc, _ in instances])
    cache = model.forward(windows, dropout_rng=dropout_rng)
    _, dlogits = task_losses(cache, _gold_ids(model.vocab, instances))
    beta = model.config.aux_weight
    for name in dlogits:
        if name not in MAIN_TASKS:
            dlogits[name] *= beta
    return model.backward(cache, dlogits)


def summed_loss(model, *instances):
    # un-normalised loss of the instances (matches analytic_grads)
    cache = model.forward(model.windows([enc.sentence for enc, _ in instances]))
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
    aux = {"n+1": shifted_n(enc, 1), "dist": syntactic_distances(t)}
    instance = (enc, aux)
    vocab = Vocabularies.build([instance])
    model = TaggerModel(vocab, tiny_config(), "dynamic")
    assert_gradients_match_finite_differences(model, [instance])


def test_batched_gradients_match_finite_differences():
    instances = []
    for text in ("(S (NP (DT the) (NN dog)) (VB runs))", "(S (NN cats) (VP (VB sleep) (RB now)))"):
        (t,) = parse_bracketed(text)
        enc = encode_dynamic(t)
        instances.append((enc, {"n+1": shifted_n(enc, 1), "dist": syntactic_distances(t)}))
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
    cache = model.forward(model.windows([corpus[0][0].sentence]), heads=("n",))
    assert set(cache["logits"]) == {"n"}
    dlogits = {"n": _softmax(cache["logits"]["n"])}
    grads = model.backward(cache, dlogits, frozen=("E_word", "E_pos"))
    assert set(grads) == {"W_n", "b_n", "W1", "b1"}
    full = model.backward(cache, dlogits)
    for name in grads:
        np.testing.assert_array_equal(grads[name], full[name])
    for frozen in ("E_word", "E_pos"):
        partial = model.backward(cache, dlogits, frozen=(frozen,))
        assert frozen not in partial
        for name in partial:
            np.testing.assert_array_equal(partial[name], full[name])


@pytest.mark.parametrize("heads", [None, MAIN_TASKS])
@pytest.mark.parametrize("frozen", [(), ("E_word",), ("E_pos",), ("E_word", "E_pos"),
                                    ("W1", "b_c")])
def test_backward_writes_only_computed_gradients_into_out(frozen, heads):
    # the aux heads go missing from dlogits when only the main heads run;
    # a frozen W1 or head bias is computed on the way but never returned
    _, corpus = tiny_corpus()
    model = TaggerModel(Vocabularies.build(corpus), tiny_config(dropout=0.5), "dynamic")
    cache = model.forward(model.windows([enc.sentence for enc, _ in corpus]), heads=heads,
                          dropout_rng=np.random.default_rng(2))
    dlogits = {name: _softmax(z) for name, z in cache["logits"].items()}
    fresh = model.backward(cache, dlogits, frozen=frozen)
    again = model.backward(cache, dlogits, frozen=frozen)
    bufs = {k: np.full_like(v, 7.0) for k, v in model.params.items()}
    written = model.backward(cache, dlogits, frozen=frozen, out=bufs)
    assert written.keys() == fresh.keys()
    assert all(k not in fresh for k in frozen) and ("W_dist" in fresh) == (heads is None)
    for name, buf in bufs.items():
        if name in fresh:
            assert written[name] is buf
            assert np.array_equal(buf, fresh[name])
            assert not np.shares_memory(fresh[name], again[name])
        else:
            assert (buf == 7.0).all()


def test_embedding_gradients_equal_row_scatter_bytes():
    # a batch repeating every id: each table's gradient must add each row's
    # contributions in np.add.at's order, so the sums match to the bit.  The
    # 40-copy batches hold many times 2**14 flat (id, column) indices per
    # table, the chunk size the sum was once split into: adding per-chunk
    # partial sums re-associates the float adds and changes the bits, so
    # each table must stay one sum in input order
    _, corpus = tiny_corpus(n=4)
    big = dict(word_dim=100, pos_dim=20)
    for copies, dims, frozen in ((3, {}, ()), (40, big, ()), (40, big, ("E_word",)),
                                 (40, big, ("E_pos",))):
        model = TaggerModel(Vocabularies.build(corpus), tiny_config(window=2, **dims), "dynamic")
        instances = corpus * copies
        cache = model.forward(model.windows([enc.sentence for enc, _ in instances]))
        _, dlogits = task_losses(cache, _gold_ids(model.vocab, instances))
        grads = model.backward(cache, dlogits, frozen=frozen)
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
            assert copies < 40 or dx.size > 4 << 14
            if name in frozen:
                assert name not in grads
                continue
            expected = np.zeros_like(P[name])
            np.add.at(expected, win, dx.reshape(win.shape + (-1,)))
            assert grads[name].tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# prediction table

def repeated_instances(copies=22):
    # one 3-word sentence stacked `copies` times: few distinct ids
    (t,) = parse_bracketed("(S (NP (DT the) (NN dog)) (VB runs))")
    enc = encode_dynamic(t)
    instance = (enc, {"n+1": shifted_n(enc, 1), "dist": syntactic_distances(t)})
    return [instance] * copies


def table_pre_activation(model, windows):
    """The pre-activation predict_logits sums from the table."""
    seen = []
    activate = model._activate
    model._activate = lambda pre, heads: seen.append(pre.copy()) or activate(pre, heads)
    model.predict_logits(windows)
    del model._activate
    return seen[0][: len(windows)]


@pytest.mark.parametrize("batch", ["corpus", "one_token"])
def test_pre_activation_adds_b1_then_the_slots_in_order(batch):
    # b1 sits in the table's word slot 0 rows, which must give the bits of
    # b1 + slot 0's row, then each later slot's row added in window order
    _, corpus = tiny_corpus(n=12)
    model = train_mtl(corpus, tiny_config(window=2, epochs=1))
    assert np.abs(model.params["b1"]).min() > 0
    sentences = ([enc.sentence for enc, _ in corpus] if batch == "corpus"
                 else [Sentence(("dog",), ("NN",))])
    windows = model.windows(sentences)
    P, W = model.params, windows.shape[1] // 2
    blocks = np.split(P["W1"], np.cumsum([model.config.word_dim] * W
                                         + [model.config.pos_dim] * (W - 1)))
    slots = [E @ block for E, block in zip([P["E_word"]] * W + [P["E_pos"]] * W, blocks)]
    expected = P["b1"] + slots[0][windows[:, 0]]
    for slot, column in zip(slots[1:], windows.T[1:]):
        expected += slot[column]
    assert np.array_equal(table_pre_activation(model, windows), expected)


@pytest.mark.parametrize("batch", ["repeated", "distinct"])
def test_projected_and_direct_pre_activations_agree(batch):
    _, corpus = tiny_corpus(n=12)
    model = TaggerModel(Vocabularies.build(corpus), tiny_config(window=2), "dynamic")
    if batch == "repeated":
        windows = model.windows([enc.sentence for enc, _ in corpus])
    else:
        words = tuple(sorted(model.vocab.word2id)[3:])
        windows = model.windows([Sentence(words, ("NN",) * len(words))])
        assert len(np.unique(windows[:, 2])) == len(windows)
    direct = model._inputs(windows) @ model.params["W1"] + model.params["b1"]
    np.testing.assert_allclose(table_pre_activation(model, windows), direct, rtol=0, atol=1e-12)


def test_repeated_batch_gradients_match_finite_differences():
    instances = repeated_instances()
    model = TaggerModel(Vocabularies.build(instances[:1]), tiny_config(hidden_dim=5), "dynamic")
    assert_gradients_match_finite_differences(model, instances)


def test_nonfinite_w1_faults_training_and_every_prediction():
    instances = repeated_instances()
    model = TaggerModel(Vocabularies.build(instances[:1]), tiny_config(), "dynamic")
    model.params["W1"][0, 0] = np.nan
    sentences = [enc.sentence for enc, _ in instances]
    assert sum(map(len, sentences)) > tagger._SHORT_BATCH  # one long batch
    pairs = [(s, frozenset()) for s in sentences]
    for call in (lambda: model.forward(model.windows(sentences)),
                 lambda: predict_greedy(model, sentences[0]),
                 lambda: predicted_lines(model, sentences),
                 lambda: tagger._dev_scorer(model, pairs)()):
        with pytest.raises(RuntimeError, match="^non-finite hidden activations"):
            call()


def test_hidden_fault_is_named_before_any_head_fault():
    # the hidden layer is checked only once a head's logits are not
    # finite; a NaN hidden unit makes every head's logits NaN, so its
    # message still wins over a head's own fault
    _, corpus = tiny_corpus()
    sentences = [enc.sentence for enc, _ in corpus]

    def calls(model, sentences):
        # batch predictions also in one batch of more than _SHORT_BATCH rows
        long = sentences * (tagger._SHORT_BATCH // sum(map(len, sentences)) + 1)
        return (lambda: model.forward(model.windows(sentences)),
                lambda: predict_greedy(model, sentences[0]),
                lambda: predicted_lines(model, sentences),
                lambda: tagger._dev_scorer(model, [(s, Counter()) for s in sentences])(),
                lambda: predicted_lines(model, long),
                lambda: tagger._dev_scorer(model, [(s, Counter()) for s in long])())

    for faults, message in ((("b1", "W_c"), "^non-finite hidden activations"),
                            (("W_c",), "^non-finite logits in head 'c'$")):
        model = TaggerModel(Vocabularies.build(corpus), tiny_config(), "dynamic")
        for name in faults:
            model.params[name][..., 0] = np.nan
        for call in calls(model, sentences):
            with pytest.raises(RuntimeError, match=message):
                call()
    # a NaN in an embedding row that no window reads is never seen
    model = TaggerModel(Vocabularies.build(corpus), tiny_config(), "dynamic")
    read = sentences[:2]
    unread = sorted(set(model.vocab.word2id) - {OOV, BOS, EOS}
                    - {w for s in read for w in s.words})
    model.params["E_word"][model.vocab.word2id[unread[0]]] = np.nan
    for call in calls(model, read):
        call()
    assert np.isnan(model._table[0]).any()


def random_sentences(model, rng, count=40):
    words = sorted(model.vocab.word2id)[3:] + ["zzz"]
    tags = sorted(model.vocab.pos2id)[3:]
    return [
        Sentence(tuple(rng.choice(words, n)), tuple(rng.choice(tags, n)))
        for n in [1] + list(rng.integers(1, 12, size=count - 1))
    ]


def test_single_and_batched_logits_are_equal():
    _, corpus = tiny_corpus()
    model = train_mtl(corpus, tiny_config(epochs=2))
    sentences = random_sentences(model, np.random.default_rng(4))
    batched = model.predict_logits(model.windows(sentences))
    single = [model.predict_logits(model.windows([s])) for s in sentences]
    for name in MAIN_TASKS:
        assert np.array_equal(np.concatenate([z[name] for z in single]), batched[name])


def sequential_pre_activation(model, windows):
    """The table rows of each window added one slot at a time, word slots
    first: the loop the table sum runs on long batches."""
    table, offsets, _ = model._projection()
    rows = (windows + offsets).T
    pre = table[rows[0]]
    for r in rows[1:]:
        pre += table[r]
    return pre


@pytest.mark.parametrize("hidden_dim", [1, 8])
@pytest.mark.parametrize("tokens", [1, 2, tagger._SHORT_BATCH, tagger._SHORT_BATCH + 1,
                                    tagger.TOKEN_BUDGET])
def test_both_gather_forms_give_the_same_bits(tokens, hidden_dim):
    # a batch of at most _SHORT_BATCH rows is summed in one gather and one
    # reduce, a longer one slot by slot; one word is summed as two rows
    _, corpus = tiny_corpus()
    model = train_mtl(corpus, tiny_config(window=2, hidden_dim=hidden_dim, epochs=1))
    rng = np.random.default_rng(tokens)
    words, tags = sorted(model.vocab.word2id)[3:] + ["zzz"], sorted(model.vocab.pos2id)[3:]
    lengths = []
    while sum(lengths) < tokens:
        lengths.append(min(int(rng.integers(1, 12)), tokens - sum(lengths)))
    sentences = [Sentence(tuple(rng.choice(words, n)), tuple(rng.choice(tags, n)))
                 for n in lengths]
    windows = model.windows(sentences)
    oracle = sequential_pre_activation(model, windows)
    assert np.array_equal(table_pre_activation(model, windows), oracle)
    batched, batched_ids = model.predict_logits(windows), model.predict_ids(windows)
    end = 0
    for sentence in sentences:
        first, end = end, end + len(sentence)
        single = model.windows([sentence])
        assert np.array_equal(table_pre_activation(model, single), oracle[first:end])
        for name, z in model.predict_logits(single).items():
            assert np.array_equal(z, batched[name][first:end])
            assert np.array_equal(z.argmax(axis=1), batched_ids[name][first:end])


def assert_table_matches_params(model, windows):
    # the float32 heads too, read by a batch of more than _SHORT_BATCH rows
    fresh = TaggerModel(model.vocab, model.config, model.scheme,
                        params={k: v.copy() for k, v in model.params.items()})
    expected = fresh.predict_logits(windows)
    for name, z in model.predict_logits(windows).items():
        assert np.array_equal(z, expected[name])
    long = np.concatenate([windows] * (tagger._SHORT_BATCH // len(windows) + 1))
    expected = fresh.predict_ids(long)
    for name, ids in model.predict_ids(long).items():
        assert np.array_equal(ids, expected[name])
    for name, arrays in model._table[2].items():
        for array, fresh_array in zip(arrays, fresh._table[2][name]):
            assert array.tobytes() == fresh_array.tobytes()


@pytest.mark.parametrize("change", ["train_step", "best_params", "pg_update", "reload"])
def test_stale_table_is_never_read(monkeypatch, tmp_path, change):
    forest, corpus = tiny_corpus(n=8)
    windows = TaggerModel(Vocabularies.build(corpus), tiny_config(), "dynamic").windows(
        [enc.sentence for enc, _ in corpus])
    if change in ("train_step", "best_params"):
        # one step per epoch; each dev evaluation builds the table, which
        # the next step and, with the first epoch scored best, the final
        # restore must drop; the check runs once per epoch, or it checks nothing
        dev_scorer, checks = tagger._dev_scorer, []
        # each epoch's dev F1, as the matched spans of one 2-span sentence
        matched = iter([2, 0, 0] if change == "best_params" else [0, 1, 2])

        def checked_dev_scorer(model, dev):
            dev_scores = dev_scorer(model, dev)

            def checked_dev_scores():
                assert_table_matches_params(model, windows)
                dev_scores()
                assert model._table is not None
                checks.append(len(model.history))
                return [BracketScore(next(matched), 2, 2)]
            return checked_dev_scores

        monkeypatch.setattr(tagger, "_dev_scorer", checked_dev_scorer)
        model = train_mtl(corpus, tiny_config(epochs=3, batch_size=len(corpus)), dev=corpus)
        assert len(model.history) == 3
        assert checks == [0, 1, 2]
    else:
        model = train_mtl(corpus, tiny_config(epochs=2))
        model.predict_logits(windows)
        assert model._table is not None
        if change == "pg_update":
            config = pg.PGConfig(samples=2, learning_rate=0.5, seed=1)
            before = model.params["W1"].copy()
            run = tagger._Steps(model, [corpus[0][0].sentence])
            pg.pg_update(run, [0], [labeled_spans(forest[0])], [0.0],
                         config, pg.AdvantageTracker(0), np.random.default_rng(1))
            assert not np.array_equal(model.params["W1"], before)
        else:
            save_model(tmp_path / "model.npz", model)
            model = load_model(tmp_path / "model.npz")
    assert_table_matches_params(model, windows)


def test_large_vocabulary_predicts_through_the_table():
    # 14,000 words at the default sizes: a 68 MiB table, above the 64 MiB
    # at which prediction used to fall back to forward
    _, corpus = tiny_corpus()
    small = Vocabularies.build(corpus)
    words = [OOV, BOS, EOS] + ["w%05d" % i for i in range(14000)]
    vocab = Vocabularies({w: i for i, w in enumerate(words)}, small.pos2id, small.tasks)
    model = TaggerModel(vocab, TrainConfig(), "dynamic")
    sentences = random_sentences(model, np.random.default_rng(5))
    batched = table_pre_activation(model, model.windows(sentences))
    single = [table_pre_activation(model, model.windows([s])) for s in sentences]
    assert np.array_equal(np.concatenate(single), batched)
    assert model._table[0].nbytes > 64 * 2**20


# ---------------------------------------------------------------------------
# float32 head products of long batches

def near_tie_model():
    """A trained model and random sentences of more than _SHORT_BATCH tokens
    in all.  The model's u columns 0 and 1 differ by less than float32
    resolves, in a hidden unit whose sign varies over the sentences' rows,
    and a bias makes one of the two every row's argmax."""
    _, corpus = tiny_corpus()
    model = train_mtl(corpus, tiny_config(epochs=2))
    sentences = random_sentences(model, np.random.default_rng(6))
    h = model.forward(model.windows(sentences))["h"]
    unit = np.argmax(np.minimum((h > 0).sum(axis=0), (h < 0).sum(axis=0)))
    W, b = model.params["W_u"], model.params["b_u"]
    W[:, 1] = W[:, 0]
    W[unit, 1] += 1e-9
    b[:2] = b.max() + 20.0
    assert sum(map(len, sentences)) > tagger._SHORT_BATCH
    return model, sentences


def test_a_near_tie_gets_the_float64_id_in_a_long_batch():
    model, sentences = near_tie_model()
    windows = model.windows(sentences)
    ids = model.predict_ids(windows)
    for name, z in model.predict_logits(windows).items():
        assert np.array_equal(ids[name], z.argmax(axis=1))
    assert set(ids["u"].tolist()) == {0, 1}
    # the columns are closer than the margin: the tie is settled in float64
    W = model.params["W_u"]
    assert np.abs(W[:, 1] - W[:, 0]).sum() < model._table[2]["u"][2]
    end = 0
    for sentence in sentences:
        first, end = end, end + len(sentence)
        own = {name: i[first:end] for name, i in ids.items()}
        assert predict_greedy(model, sentence) == encoded_from_ids(model, sentence, own)


def test_a_row_within_the_margin_takes_the_float64_product():
    # float32 sees columns 0 and 1 of u as equal and takes the first, so
    # each row given column 1 was computed again in float64
    model, sentences = near_tie_model()
    windows = model.windows(sentences)
    W32, b32, _ = model._projection()[2]["u"]
    assert np.array_equal(W32[:, 0], W32[:, 1]) and b32[0] == b32[1]
    h32 = np.tanh(model._pre_activations(windows)).astype(np.float32)
    assert ((h32 @ W32 + b32).argmax(axis=1) == 0).all()
    ids = model.predict_ids(windows)["u"]
    assert 0 < np.count_nonzero(ids == 1) < len(ids)


@pytest.mark.parametrize("hidden_dim", [1, 8, 128])
@pytest.mark.parametrize("scale", [1e-42, 1e-20, 1e-3, 1.0, 1e3, 1e30])
def test_the_margin_covers_float32_and_float64_rounding(hidden_dim, scale):
    # any id whose float32 top two are more than the margin apart is the
    # exact argmax and every float64 product's: each logit's float32 error
    # plus its float64 error is at most half the margin, checked against
    # extended precision on random hidden rows in [-1, 1] and on rows of
    # one sign (the largest accumulated error), with weights of one sign too
    _, corpus = tiny_corpus()
    model = TaggerModel(Vocabularies.build(corpus), tiny_config(hidden_dim=hidden_dim), "dynamic")
    rng = np.random.default_rng(hidden_dim)
    for name in MAIN_TASKS:
        W, b = model.params["W_" + name], model.params["b_" + name]
        W[...] = scale * rng.uniform(-1, 1, W.shape)
        W[:, 0] = scale * rng.uniform(0.5, 1, len(W))
        b[...] = scale * rng.uniform(-1, 1, b.shape)
    h = np.concatenate([rng.uniform(-1, 1, (200, hidden_dim)),
                        rng.uniform(0.99, 1, (50, hidden_dim))])
    for name, (W32, b32, margin) in model._projection()[2].items():
        W, b = model.params["W_" + name], model.params["b_" + name]
        exact = h.astype(np.longdouble) @ W.astype(np.longdouble) + b.astype(np.longdouble)
        z32 = h.astype(np.float32) @ W32
        z32 += b32
        z64 = h @ W + b
        error = np.abs(z32 - exact) + np.abs(z64 - exact)
        assert np.isfinite(margin) and error.max() <= margin / 2


@pytest.mark.parametrize("param, value", [("W_u", 1e39), ("W_u", 3e38), ("b_c", 1e39)])
def test_weights_beyond_float32_predict_through_float64(param, value):
    # an inf float32 weight, or a float32 product that overflows, sends a
    # long batch through the float64 heads, without a warning; in float32
    # columns 0 and 1 would both be inf, and column 0 every such row's id
    _, corpus = tiny_corpus()
    model = train_mtl(corpus, tiny_config(epochs=2))
    model.params[param][..., :2] = [value, 1.1 * value]
    sentences = random_sentences(model, np.random.default_rng(7))
    windows = model.windows(sentences)
    assert len(windows) > tagger._SHORT_BATCH
    ids = model.predict_ids(windows)
    for name, z in model.predict_logits(windows).items():
        assert np.array_equal(ids[name], z.argmax(axis=1))
    W32, b32, _ = model._table[2][param[2:]]
    h32 = np.tanh(model._pre_activations(windows)).astype(np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(h32 @ W32 + b32).all()
    lines = predicted_lines(model, sentences)
    assert [line for line, _ in lines] == [
        serialize(decode(predict_greedy(model, s))) for s in sentences]


def test_encoded_from_gold_ids_gives_the_gold_labels():
    # the id -> label tables invert the vocabularies, empty u chains included
    _, corpus = tiny_corpus(n=12)
    model = TaggerModel(Vocabularies.build(corpus), tiny_config(), "dynamic")
    assert "" in model.vocab.u_chains
    for instance in corpus:
        ids = _gold_ids(model.vocab, [instance])
        assert tagger.encoded_from_ids(model, instance[0].sentence, ids) == instance[0]


def old_predicted_labels(model, ids):
    """The labels greedy prediction assembled before it took them from the
    encoders' table: a new TagLabel per token, read off the vocabulary,
    and a dummy-n, DUMMY-c label for the last."""
    names = model.vocab.task_labels
    labels = []
    for n, c, u in zip(ids["n"].tolist(), ids["c"].tolist(), ids["u"].tolist()):
        u = "" if names["u"][u] == NO_CHAIN else names["u"][u]
        labels.append(TagLabel(NComponent.from_token(names["n"][n]), names["c"][c], u))
    labels[-1] = TagLabel(NComponent("dummy"), DUMMY, labels[-1].u)
    return labels


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_predicted_labels_are_the_encoders_labels(seed):
    _, corpus = tiny_corpus()
    model = TaggerModel(Vocabularies.build(corpus), tiny_config(seed=seed), "dynamic")
    rng = np.random.default_rng(seed)
    for name in model.tasks:  # biases start at zero
        model.params["b_" + name] = rng.normal(size=model.params["b_" + name].shape)
    for sentence in random_sentences(model, rng):
        ids = next(tagger._predict_ids(model, [sentence]))
        labels = predict_greedy(model, sentence).labels
        assert list(labels) == old_predicted_labels(model, ids)
        for label in labels:
            assert label is encodings._label(label.n.scale, label.n.value, label.c, label.u)


# ---------------------------------------------------------------------------
# loss composition

def mean_loss(model, corpus):
    """Mean per-token loss over (EncodedSentence, aux dict) pairs, from
    forward and task_losses over chunks of at most TOKEN_BUDGET tokens.

    Returns (total, components): components maps each task to its mean
    cross-entropy; total is the mean of the per-token losses weighted as
    train_mtl weights them (aux heads by model.config.aux_weight).
    """
    sums = {name: 0.0 for name in model.tasks}
    weighted = 0.0
    tokens = 0
    for start, stop in tagger._chunks([len(encoded) for encoded, _ in corpus]):
        part = corpus[start:stop]
        cache = model.forward(model.windows([encoded.sentence for encoded, _ in part]))
        losses, _ = task_losses(cache, _gold_ids(model.vocab, part))
        for name, value in losses.items():
            sums[name] += value
            weighted += value * (1.0 if name in MAIN_TASKS else model.config.aux_weight)
        tokens += len(cache["h"])
    return weighted / tokens, {name: value / tokens for name, value in sums.items()}


@pytest.mark.parametrize("beta", [0.0, 0.1])
def test_loss_composition(beta):
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, tiny_config(aux_weight=beta), "dynamic")
    total, parts = mean_loss(model, corpus)
    expected = parts["n"] + parts["c"] + parts["u"]
    expected += beta * sum(parts[name] for name in vocab.tasks if name not in MAIN_TASKS)
    assert abs(total - expected) <= 1e-9


def test_loss_beta_zero_drops_aux():
    _, corpus = tiny_corpus()
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, tiny_config(aux_weight=0.0), "dynamic")
    total, parts = mean_loss(model, corpus)
    assert total == pytest.approx(parts["n"] + parts["c"] + parts["u"])


def test_singleton_task_vocab_zero_entropy():
    # every u is NONE in this corpus, so the u head has one label and
    # cross-entropy is exactly zero
    (t,) = parse_bracketed("(S (A a) (B b))")
    enc = encode_relative(t)
    corpus = [(enc, {})]
    vocab = Vocabularies.build(corpus)
    assert len(vocab.tasks["u"]) == 1
    model = TaggerModel(vocab, tiny_config(), "relative")
    _, parts = mean_loss(model, corpus)
    assert parts["u"] == 0.0


@pytest.mark.parametrize("beta", [0.0, 0.1])
def test_recorded_epoch_loss_is_the_mean_loss(beta):
    # at learning rate 0 the parameters never move, so the loss train_mtl
    # records over its mini-batches is the loss of the model it returns
    _, corpus = tiny_corpus(n=40)
    config = tiny_config(aux_weight=beta, learning_rate=0.0, dropout=0.0, epochs=1)
    model = train_mtl(corpus, config)
    total, _ = mean_loss(model, corpus)
    assert abs(model.history[0]["loss"] - total) <= 1e-9


# ---------------------------------------------------------------------------
# training

def test_train_empty_corpus_rejected():
    with pytest.raises(ValueError):
        train_mtl([], tiny_config())


def test_train_empty_dev_rejected():
    # no dev trees would score F1 0 at every epoch and keep epoch 0's parameters
    _, corpus = tiny_corpus()
    with pytest.raises(ValueError, match="^no gold trees to score against$"):
        train_mtl(corpus, tiny_config(epochs=2), dev=[])


BAD_SETTINGS = [
    ({"batch_size": 0}, "batch_size must be >= 1"),
    ({"window": -1}, "window must be >= 0"),
    ({"dropout": 1.0}, "dropout must be in [0, 1)"),
    ({"dropout": -0.1}, "dropout must be in [0, 1)"),
    ({"dropout": float("nan")}, "dropout must be in [0, 1)"),
    ({"word_dim": 0}, "word_dim, pos_dim and hidden_dim must be >= 1"),
    ({"pos_dim": 0}, "word_dim, pos_dim and hidden_dim must be >= 1"),
    ({"hidden_dim": 0}, "word_dim, pos_dim and hidden_dim must be >= 1"),
    ({"epochs": 0}, "need at least one epoch"),
    ({"epochs": -2}, "need at least one epoch"),
    ({"learning_rate": -0.5}, "learning_rate must be >= 0"),
    ({"learning_rate": float("nan")}, "learning_rate must be >= 0"),
    ({"momentum": 1.0}, "momentum must be in [0, 1)"),
    ({"momentum": -0.1}, "momentum must be in [0, 1)"),
    ({"momentum": float("nan")}, "momentum must be in [0, 1)"),
    ({"decay": -1.0}, "decay must be >= 0"),
    ({"decay": float("nan")}, "decay must be >= 0"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"aux_weight": float("nan")}, "aux_weight must be >= 0"),
    # inf passed the range checks: decay=inf made epoch 0's lr inf * 0 = NaN
    ({"learning_rate": float("inf")}, "learning_rate must be finite"),
    ({"decay": float("inf")}, "decay must be finite"),
    ({"aux_weight": float("inf")}, "aux_weight must be finite"),
]


def _setting_ids(cases):
    return ["%s=%s" % next(iter(settings.items())) for settings, _ in cases]


@pytest.mark.parametrize("settings,message", BAD_SETTINGS, ids=_setting_ids(BAD_SETTINGS))
def test_train_config_rejects_out_of_range_settings(settings, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        tiny_config(**settings)


def test_train_config_allows_its_boundary_settings():
    config = tiny_config(epochs=1, dropout=0.0, window=0, learning_rate=0.0, momentum=0.0,
                         decay=0.0, seed=0)
    _, corpus = tiny_corpus()
    assert len(train_mtl(corpus, config).history) == 1


def test_loss_decreases_early():
    _, corpus = tiny_corpus(n=16)
    model = train_mtl(corpus, tiny_config(epochs=10, dropout=0.3))
    losses = [h["loss"] for h in model.history]
    assert np.mean(losses[5:]) < np.mean(losses[:5])


def test_memorizes_repeated_tree():
    (t,) = parse_bracketed("(S (NP (DT the) (NN dog)) (VP (VB chases) (NP (DT a) (NN cat))))")
    enc = encode_relative(t)
    corpus = [(enc, {})] * 8
    cfg = tiny_config(epochs=200, learning_rate=0.1, dropout=0.0,
                      hidden_dim=16, word_dim=8, pos_dim=4)
    model = train_mtl(corpus, cfg)
    pred = predict_greedy(model, enc.sentence)
    assert pred.labels == enc.labels
    assert decode(pred) == t


def test_predict_deterministic_and_decodable():
    _, corpus = tiny_corpus()
    model = train_mtl(corpus, tiny_config(epochs=2))
    s = corpus[0][0].sentence
    assert predict_greedy(model, s).labels == predict_greedy(model, s).labels
    # random parameters still yield decodable output
    fresh = TaggerModel(model.vocab, tiny_config(seed=99), "dynamic")
    for sentence in (enc.sentence for enc, _ in corpus):
        decode(predict_greedy(fresh, sentence))


def greedy_lines(model, sentences):
    """(serialize(tree), log) of decode_with_repairs(predict_greedy(model, s))
    for each sentence: what predicted_lines must return."""
    pairs = (decode_with_repairs(predict_greedy(model, s)) for s in sentences)
    return [(serialize(tree), log) for tree, log in pairs]


def test_predict_corpus_order_and_batching(monkeypatch):
    _, corpus = tiny_corpus(n=7)
    model = train_mtl(corpus, tiny_config(epochs=2))
    sentences = [enc.sentence for enc, _ in corpus]
    words = [w for s in sentences for w in s.words] * 8
    pos = [p for s in sentences for p in s.pos] * 8
    long = Sentence(tuple(words), tuple(pos))
    assert len(long) > tagger.TOKEN_BUDGET
    sentences = sentences[:3] + [long] + sentences[3:]
    expected = [predict_greedy(model, s).labels for s in sentences]
    lines = greedy_lines(model, sentences)
    for budget in (1, 10, tagger.TOKEN_BUDGET):
        monkeypatch.setattr(tagger, "TOKEN_BUDGET", budget)
        ids = tagger._predict_ids(model, sentences)
        assert [encoded_from_ids(model, s, i).labels for s, i in zip(sentences, ids)] == expected
        assert predicted_lines(model, sentences) == lines
    assert predicted_lines(model, []) == []


def test_predicted_lines_runs_one_forward_per_chunk(monkeypatch):
    _, corpus = tiny_corpus(n=12)
    model = TaggerModel(Vocabularies.build(corpus), tiny_config(), "dynamic")
    sentences = [enc.sentence for enc, _ in corpus]
    lengths = [len(s) for s in sentences]
    monkeypatch.setattr(tagger, "TOKEN_BUDGET", max(max(lengths), sum(lengths) // 3))
    chunks = list(tagger._chunks(lengths))
    assert len(chunks) > 1
    expected = greedy_lines(model, sentences)
    activate = model._activate
    calls = []
    model._activate = lambda pre, heads: calls.append(len(pre)) or activate(pre, heads)
    assert predicted_lines(model, sentences) == expected
    assert calls == [sum(lengths[start:stop]) for start, stop in chunks]


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
    for batch in [sentences, sentences[:1]]:
        logits = model.forward(model.windows(batch))["logits"]
        probs = {name: _softmax(z) for name, z in logits.items()}
        ids = list(tagger._predict_ids(model, batch))
        for name in MAIN_TASKS:
            got = np.concatenate([sentence_ids[name] for sentence_ids in ids])
            np.testing.assert_array_equal(got, probs[name].argmax(axis=1))
        assert predicted_lines(model, batch) == greedy_lines(model, batch)


def reference_train(corpus, config, dev):
    """train_mtl's loop without its reused parts: a fresh backward and a
    momentum step per parameter array each step, np.arange rows per batch,
    and every dev prediction, from windows built per epoch, decoded and
    scored.  Without `dev` (gold trees), the last epoch's parameters."""
    vocab = Vocabularies.build(corpus)
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    model = TaggerModel(vocab, config, "dynamic", rng=np.random.default_rng(seeds[0]))
    shuffle_rng = np.random.default_rng(seeds[1])
    dropout_rng = np.random.default_rng(seeds[2])
    windows = model.windows([encoded.sentence for encoded, _ in corpus])
    dev = None if dev is None else tagger.with_gold_spans(dev)
    gold = _gold_ids(vocab, corpus)
    ends = np.cumsum([len(encoded) for encoded, _ in corpus])
    velocity = {k: np.zeros_like(v) for k, v in model.params.items()}
    best_f1, best_params, history = -1.0, None, []
    order = np.arange(len(corpus))
    for epoch in range(config.epochs):
        lr = config.learning_rate / (1.0 + config.decay * epoch)
        shuffle_rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            rows = np.concatenate([np.arange(ends[i] - len(corpus[i][0]), ends[i])
                                   for i in order[start : start + config.batch_size]])
            cache = model.forward(windows[rows], dropout_rng=dropout_rng)
            losses, dlogits = task_losses(cache, {name: ids[rows] for name, ids in gold.items()})
            for name in dlogits:
                w = 1.0 if name in MAIN_TASKS else config.aux_weight
                dlogits[name] *= w / len(rows)
                epoch_loss += w * losses[name]
            for k, g in model.backward(cache, dlogits).items():
                velocity[k] *= config.momentum
                g *= lr
                velocity[k] -= g
            for k, v in velocity.items():
                model.params[k] += v
            model._table = None
        if dev is None:
            history.append({"epoch": epoch, "loss": epoch_loss / len(windows), "lr": lr})
            continue
        ids = tagger._predict_ids(model, [sentence for sentence, _ in dev])
        scores = [span_score(gold_spans, tagger.spans_from_ids(model, i))
                  for i, (_, gold_spans) in zip(ids, dev)]
        f1 = sum(scores, BracketScore(0, 0, 0)).f1
        history.append({"epoch": epoch, "loss": epoch_loss / len(windows), "lr": lr, "dev_f1": f1})
        if f1 > best_f1:
            best_f1, best_params = f1, {k: v.copy() for k, v in model.params.items()}
    return (model.params if dev is None else best_params), history


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_training_matches_the_loop_without_reuse(monkeypatch, seed):
    # train_mtl steps one flat vector, reuses a table of token rows and its
    # dev windows, and across epochs keeps each dev sentence's score for
    # repeated ids: every float must be the loop's, and some scoring must
    # have been spared; the dev set spans several TOKEN_BUDGET chunks.  The
    # loop scores gold trees decoded from dev's labels, and train_mtl the
    # same labels' pairs
    _, corpus = tiny_corpus(n=14)
    dev = [(encode_dynamic(t), {}) for t in sample_corpus(23, 80)]
    assert len(list(tagger._chunks([len(e) for e, _ in dev]))) > 1
    config = tiny_config(dropout=0.5, epochs=6, batch_size=4, seed=seed)
    params, history = reference_train(corpus, config, [decode(e) for e, _ in dev])
    calls = []
    spans_from_ids = tagger.spans_from_ids
    monkeypatch.setattr(tagger, "spans_from_ids", lambda *a: calls.append(1) or spans_from_ids(*a))
    model = train_mtl(corpus, config, dev=dev)
    assert model.history == history
    assert model.params.keys() == params.keys()
    for name, value in params.items():
        assert np.array_equal(model.params[name], value), name
    assert 0 < len(calls) < config.epochs * len(dev)
    # without a dev set, the last epoch's parameters
    params, history = reference_train(corpus, config, None)
    model = train_mtl(corpus, config)
    assert model.history == history
    for name, value in params.items():
        assert np.array_equal(model.params[name], value), name


def test_dev_selection_keeps_best():
    forest, corpus = tiny_corpus(n=12)
    model = train_mtl(corpus, tiny_config(epochs=8), dev=corpus)
    assert all("dev_f1" in h for h in model.history)
    best = max(h["dev_f1"] for h in model.history)
    preds = [decode(predict_greedy(model, enc.sentence)) for enc, _ in corpus]
    assert corpus_bracket_score(forest, preds).f1 == pytest.approx(best)


def test_distance_cap_limits_aux_vocab():
    _, corpus = tiny_corpus(n=20, aux_names=("dist",))
    raw = {v for _, aux in corpus for v in aux["dist"] if v != "PAD"}
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
    for sentence in (enc.sentence for enc, _ in corpus):
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


# a checkpoint written before the training-loop settings were checked may
# hold one of the rows from the ninth on; it no longer loads
CHECKPOINT_SETTINGS = BAD_SETTINGS[:4] + BAD_SETTINGS[8:]


@pytest.mark.parametrize("settings,message", CHECKPOINT_SETTINGS,
                         ids=_setting_ids(CHECKPOINT_SETTINGS))
def test_checkpoint_with_out_of_range_config_rejected(saved_model, settings, message):
    path, _, _ = saved_model
    _rewrite_meta(path, lambda meta: meta["config"].update(settings))
    expected = "%s: not a readable checkpoint: %s" % (path, message)
    with pytest.raises(ValueError, match=re.escape(expected)):
        load_model(path)


def test_loaded_model_has_the_attributes_of_a_built_one(saved_model):
    path, model, _ = saved_model
    built = TaggerModel(model.vocab, model.config, model.scheme)
    assert vars(load_model(path)).keys() == vars(built).keys()


@pytest.mark.parametrize("scheme", [None, "bogus"])
def test_checkpoint_with_unknown_scheme_rejected(saved_model, scheme):
    path, _, _ = saved_model
    _rewrite_meta(path, lambda meta: meta.update(scheme=scheme))
    expected = "%s: not a readable checkpoint: unknown scheme %r" % (path, scheme)
    with pytest.raises(ValueError, match="^%s$" % re.escape(expected)):
        load_model(path)


def test_checkpoint_with_distance_cap_key_loads(saved_model):
    """Older checkpoints carry a `distance_cap` config key; it is ignored."""
    path, model, corpus = saved_model
    _rewrite_meta(path, lambda meta: meta["config"].update(distance_cap=None))
    loaded = load_model(path)
    for sentence in (enc.sentence for enc, _ in corpus):
        assert predict_greedy(loaded, sentence).labels == predict_greedy(model, sentence).labels

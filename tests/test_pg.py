"""Policy-gradient tests.

The REINFORCE estimator is validated against exact enumeration of a toy
policy whose whole outcome space is four label sequences; the expected
reward and its gradient are computed independently of the estimator.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treetag.trees import Sentence, parse_bracketed, sample_corpus
from treetag.encodings import (
    ABSOLUTE,
    DYNAMIC,
    RELATIVE,
    EncodedSentence,
    NComponent,
    TagLabel,
    decode,
    encode_relative,
)
from treetag.metrics import labeled_spans, span_score
from treetag.tagger import (
    MAIN_TASKS,
    OOV,
    TaggerModel,
    TrainConfig,
    Vocabularies,
    encoded_from_ids,
    predict_greedy,
    spans_from_ids,
    train_mtl,
)
from treetag import pg
from treetag.pg import (
    AdvantageTracker,
    NoiseState,
    PGConfig,
    adapt_noise,
    estimate_policy_gradient,
    finetune_pg,
    pg_update,
    tree_reward,
)


def sample_sequence(policy, sentence, rng, noise_std=0.0):
    """Sample a label sequence from the policy, one sample at a time: the
    sequential oracle of the batched sampler.

    Every head is sampled per token except the final token's n and c,
    which are forced to the dummy and contribute no log-probability (its u
    is still a real decision).  Returns (EncodedSentence, total
    log-probability of the sampled decisions).
    """
    probs, picks = pg._sample(policy.forward(sentence, heads=MAIN_TASKS), 1, rng, noise_std)
    logprob = 0.0
    for name in MAIN_TASKS:
        chosen = np.take_along_axis(probs[name][0], picks[name][0][:, None], axis=1)
        logprob += float(np.log(chosen if name == "u" else chosen[:-1]).sum())
    ids = {name: picks[name][0] for name in MAIN_TASKS}
    return encoded_from_ids(policy, sentence, ids), logprob


def toy_policy(u_labels=("",), seed=5):
    """A 2-word policy with |N|=2 (r1/DUMMY), |C|=2 (S/DUMMY).

    The only free decisions are word 0's n and c picks: 4 outcomes.
    """
    sentence = Sentence(("a", "b"), ("PA", "PB"))
    labels = [TagLabel(NComponent(RELATIVE, 1), "S", u_labels[0]), TagLabel.dummy()]
    corpus = [(sentence, EncodedSentence(sentence, labels, RELATIVE), {})]
    for extra in u_labels[1:]:
        lab2 = [TagLabel(NComponent(RELATIVE, 1), "S", extra), TagLabel.dummy()]
        corpus.append((sentence, EncodedSentence(sentence, lab2, RELATIVE), {}))
    vocab = Vocabularies.build(corpus)
    config = TrainConfig(word_dim=4, pos_dim=3, hidden_dim=6, window=1,
                         dropout=0.0, seed=seed)
    return TaggerModel(vocab, config, RELATIVE), sentence, vocab


# ---------------------------------------------------------------------------
# sampling

def test_sample_matches_greedy_when_saturated():
    model, sentence, vocab = toy_policy()
    # drive one outcome to near-certainty via huge biases
    model.params["b_n"][:] = 0.0
    model.params["b_n"][vocab.tasks["n"]["r1"]] = 40.0
    model.params["b_c"][:] = 0.0
    model.params["b_c"][vocab.tasks["c"]["S"]] = 40.0
    model.params["W_n"][:] = 0.0
    model.params["W_c"][:] = 0.0
    greedy = predict_greedy(model, sentence)
    rng = np.random.default_rng(0)
    for _ in range(50):
        sampled, _ = sample_sequence(model, sentence, rng)
        assert sampled.labels == greedy.labels


def test_sample_frequencies_near_uniform():
    model, sentence, vocab = toy_policy()
    for name in ("n", "c", "u"):
        model.params["W_" + name][:] = 0.0
        model.params["b_" + name][:] = 0.0
    rng = np.random.default_rng(7)
    r1 = vocab.tasks["n"]["r1"]
    hits = 0
    for _ in range(10000):
        sampled, _ = sample_sequence(model, sentence, rng)
        hits += sampled.labels[0].n == NComponent(RELATIVE, 1)
    assert abs(hits / 10000 - 0.5) < 0.02


def test_sample_logprob_recomputation():
    model, sentence, vocab = toy_policy(u_labels=("", "NP"))
    rng = np.random.default_rng(3)
    for _ in range(20):
        sampled, logprob = sample_sequence(model, sentence, rng)
        cache = model.forward(sentence)
        expected = 0.0
        for t, lab in enumerate(sampled.labels):
            u_tok = lab.u if lab.u else "NONE"
            expected += math.log(cache["probs"]["u"][t, vocab.tasks["u"][u_tok]])
            if t < len(sampled.labels) - 1:
                expected += math.log(cache["probs"]["n"][t, vocab.tasks["n"][lab.n.token()]])
                expected += math.log(cache["probs"]["c"][t, vocab.tasks["c"][lab.c]])
        assert logprob == pytest.approx(expected)


def test_sampled_last_token_forced_dummy():
    model, sentence, _ = toy_policy()
    rng = np.random.default_rng(11)
    for _ in range(20):
        sampled, _ = sample_sequence(model, sentence, rng)
        assert sampled.labels[-1].n.is_dummy
        assert sampled.labels[-1].c == "DUMMY"


# ---------------------------------------------------------------------------
# rewards

def test_reward_perfect_and_range():
    (t,) = parse_bracketed("(S (NP (D the) (N dog)) (VP (V barks)))")
    enc = encode_relative(t)
    assert tree_reward(enc, t) == 1.0
    model, sentence, _ = toy_policy()
    rng = np.random.default_rng(1)
    (gold,) = parse_bracketed("(S (PA a) (PB b))")
    for _ in range(30):
        sampled, _ = sample_sequence(model, sentence, rng)
        assert 0.0 <= tree_reward(sampled, gold) <= 1.0


def test_reward_flat_tree_half():
    (gold,) = parse_bracketed("(S (NP (D the) (N dog)) (VP (V barks)))")
    flat = parse_bracketed("(S (D the) (N dog) (V barks))")[0]
    enc = encode_relative(flat)
    # flat tree shares only the root span with a 3-node gold: F1 = 0.5
    assert tree_reward(enc, gold) == pytest.approx(0.5)


def test_reward_of_a_deep_climb_is_a_score():
    # every sample's first label climbs 3,000 levels; the decoder splices
    # out the 2,999 unlabelled ones, so the reward is a score, not an error
    sentence = Sentence(("a", "b"), ("PA", "PB"))
    labels = [TagLabel(NComponent(ABSOLUTE, 3000), "S"), TagLabel.dummy()]
    corpus = [(sentence, EncodedSentence(sentence, labels, DYNAMIC), {})]
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, TrainConfig(word_dim=4, pos_dim=3, hidden_dim=6, window=1),
                        DYNAMIC)
    model.params["W_n"][:] = 0.0
    model.params["b_n"][:] = 0.0
    model.params["b_n"][vocab.tasks["n"]["a3000"]] = 40.0
    (gold,) = parse_bracketed("(S (PA a) (PB b))")
    config = PGConfig(samples=4, learning_rate=0.0, seed=2)
    stats = pg_update(model, model.clone(), sentence, gold, config, AdvantageTracker(),
                      np.random.default_rng(2))
    assert 0.0 <= stats["reward"] <= 1.0
    assert 0.0 <= stats["baseline"] <= 1.0
    ids = {"n": np.array([vocab.tasks["n"]["a3000"]] * 2),
           "c": np.array([vocab.tasks["c"]["S"]] * 2), "u": np.array([0, 0])}
    assert span_score(labeled_spans(gold), spans_from_ids(model, ids)).f1 == 1.0


# Label ids over a vocabulary that exercises every repair: negative and
# overlong counts, interior dummies, unlabelled and chained nodes.
SPAN_N = ["DUMMY"] + ["r%d" % v for v in range(-4, 5)] + ["a%d" % v for v in range(1, 7)]
SPAN_C = ["DUMMY", "S", "NP", "X+Y"]
SPAN_U = ["NONE", "NP", "Q+R"]


def span_policy():
    tasks = {name: {tok: i for i, tok in enumerate(toks)}
             for name, toks in (("n", SPAN_N), ("c", SPAN_C), ("u", SPAN_U))}
    vocab = Vocabularies({OOV: 0}, {OOV: 0}, tasks)
    return TaggerModel(vocab, TrainConfig(word_dim=2, pos_dim=2, hidden_dim=2, window=0), DYNAMIC)


def label_ids(length):
    return st.fixed_dictionaries({
        name: st.lists(st.integers(0, len(toks) - 1), min_size=length, max_size=length)
        .map(np.array)
        for name, toks in (("n", SPAN_N), ("c", SPAN_C), ("u", SPAN_U))
    })


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(1, 12).flatmap(lambda T: st.tuples(label_ids(T), label_ids(T))))
def test_spans_from_ids_score_like_decoded_trees(pair):
    ids, gold_ids = pair
    model = span_policy()
    T = len(ids["n"])
    sentence = Sentence(tuple("w%d" % i for i in range(T)), ("P",) * T)
    encoded = encoded_from_ids(model, sentence, ids)
    assert spans_from_ids(model, ids) == labeled_spans(decode(encoded))
    gold = decode(encoded_from_ids(model, sentence, gold_ids))
    reward = span_score(labeled_spans(gold), spans_from_ids(model, ids)).f1
    assert reward == tree_reward(encoded, gold)


# ---------------------------------------------------------------------------
# advantage tracker

def test_tracker_burn_in_and_floor():
    tracker = AdvantageTracker(burn_in=5)
    for x in (1.0, 1.0, 1.0):
        tracker.update(x)
        assert tracker.standardize(2.0) == 2.0  # inactive before burn-in
    for x in (1.0, 1.0):
        tracker.update(x)
    # active now; zero variance hits the floor instead of dividing by 0
    assert tracker.std == AdvantageTracker.STD_FLOOR
    assert tracker.standardize(1.0) == 0.0


def test_tracker_running_mean_converges():
    rng = np.random.default_rng(2)
    tracker = AdvantageTracker(burn_in=10)
    xs = rng.normal(0.3, 0.05, size=5000)
    outs = []
    for x in xs:
        tracker.update(x)
        outs.append(tracker.standardize(x))
    assert tracker.mean == pytest.approx(0.3, abs=0.01)
    assert abs(np.mean(outs[1000:])) < 0.1


# ---------------------------------------------------------------------------
# REINFORCE against enumeration

def reward_table(vocab):
    r1 = vocab.tasks["n"]["r1"]
    s = vocab.tasks["c"]["S"]
    table = {}
    for ni in range(2):
        for ci in range(2):
            table[(ni, ci)] = {
                (True, True): 1.0,
                (True, False): 0.3,
                (False, True): 0.6,
                (False, False): 0.1,
            }[(ni == r1, ci == s)]
    return table


def table_reward_fn(model, sentence, table):
    def fn(ids):
        lab = encoded_from_ids(model, sentence, ids).labels[0]
        ni = model.vocab.tasks["n"][lab.n.token()]
        ci = model.vocab.tasks["c"][lab.c]
        return table[(ni, ci)]

    return fn


def expected_reward(model, sentence, table):
    cache = model.forward(sentence)
    pn = cache["probs"]["n"][0]
    pc = cache["probs"]["c"][0]
    return sum(pn[ni] * pc[ci] * r for (ni, ci), r in table.items())


def exact_gradient_fd(model, sentence, table, names, eps=1e-5):
    grads = {}
    for name in names:
        tensor = model.params[name]
        g = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = expected_reward(model, sentence, table)
            flat[i] = orig - eps
            lo = expected_reward(model, sentence, table)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
        grads[name] = g
    return grads


def test_reinforce_matches_enumerated_gradient():
    model, sentence, vocab = toy_policy()
    table = reward_table(vocab)
    rng = np.random.default_rng(123)
    mc, _ = estimate_policy_gradient(
        model, sentence, table_reward_fn(model, sentence, table), 10000, rng
    )
    names = ["W_n", "b_n", "W_c", "b_c", "W1", "b1"]
    exact = exact_gradient_fd(model, sentence, table, names)
    mc_vec = np.concatenate([mc[n].reshape(-1) for n in names])
    ex_vec = np.concatenate([exact[n].reshape(-1) for n in names])
    rel_err = np.linalg.norm(mc_vec - ex_vec) / np.linalg.norm(ex_vec)
    assert rel_err < 0.05, rel_err


def test_entropy_gradient_zero_at_uniform():
    model, sentence, vocab = toy_policy(u_labels=("", "NP"))
    for name in ("n", "c", "u"):
        model.params["W_" + name][:] = 0.0
        model.params["b_" + name][:] = 0.0
    rng = np.random.default_rng(4)
    grads, stats = estimate_policy_gradient(
        model, sentence, lambda e: 0.0, 50, rng, entropy_coef=0.5
    )
    # four uniform binary decisions: word 0's n and c, both words' u
    assert stats["entropy"] == pytest.approx(4 * math.log(2))
    for name in ("W_n", "b_n", "W_c", "b_c", "W_u", "b_u"):
        np.testing.assert_allclose(grads[name], 0.0, atol=1e-12)


def test_zero_advantage_when_sample_equals_baseline():
    model, sentence, vocab = toy_policy()
    baseline = model.clone()
    (gold,) = parse_bracketed("(S (PA a) (PB b))")
    config = PGConfig(samples=4, learning_rate=0.0, entropy_coef=0.0, seed=8)
    tracker = AdvantageTracker(burn_in=10**9)
    rng = np.random.default_rng(8)
    stats = pg_update(model, baseline, sentence, gold, config, tracker, rng)
    # baseline predicts greedily on the same model: samples equal to the
    # greedy choice carry exactly zero advantage
    assert stats["baseline"] == tree_reward(predict_greedy(baseline, sentence), gold)


def test_zero_learning_rate_changes_nothing():
    model, sentence, vocab = toy_policy()
    before = {k: v.copy() for k, v in model.params.items()}
    baseline = model.clone()
    (gold,) = parse_bracketed("(S (PA a) (PB b))")
    config = PGConfig(samples=8, learning_rate=0.0, entropy_coef=0.01, seed=9)
    tracker = AdvantageTracker(burn_in=0)
    rng = np.random.default_rng(9)
    for _ in range(5):
        pg_update(model, baseline, sentence, gold, config, tracker, rng)
    for name in before:
        np.testing.assert_array_equal(model.params[name], before[name])


def test_frozen_layers_and_baseline_untouched():
    forest = sample_corpus(21, 10)
    corpus = []
    for t in forest:
        enc = encode_relative(t)
        corpus.append((enc.sentence, enc, {}))
    model = train_mtl(corpus, TrainConfig(word_dim=8, pos_dim=4, hidden_dim=12,
                                          window=1, dropout=0.0, epochs=3, seed=2))
    baseline = model.clone()
    baseline_before = {k: v.copy() for k, v in baseline.params.items()}
    emb_before = {k: model.params[k].copy() for k in ("E_word", "E_pos")}
    config = PGConfig(samples=2, learning_rate=0.001, seed=17, epochs=2)
    tracker = AdvantageTracker(config.burn_in)
    rng = np.random.default_rng(17)
    for sentence, _, _ in corpus:
        gold = forest[[c[0] for c in corpus].index(sentence)]
        pg_update(model, baseline, sentence, gold, config, tracker, rng)
    for k in emb_before:
        np.testing.assert_array_equal(model.params[k], emb_before[k])
    for k in baseline_before:
        np.testing.assert_array_equal(baseline.params[k], baseline_before[k])
    # trunk did move
    assert not np.array_equal(model.params["W1"], baseline.params["W1"])


# ---------------------------------------------------------------------------
# noise adaptation

def test_noise_zero_divergence_grows_std():
    model, sentence, _ = toy_policy()
    state = NoiseState(std=0.0, target=0.5, adapt=1.05)
    rng = np.random.default_rng(6)
    adapt_noise(model, state, [sentence], rng)
    assert state.history[-1] == 0.0
    assert state.std == 0.0  # multiplicative on zero stays zero
    state = NoiseState(std=0.1, target=0.5, adapt=1.05)
    adapt_noise(model, state, [sentence], rng)
    assert state.std == pytest.approx(0.1 * 1.05)


def test_noise_adaptation_multiplicative():
    model, sentence, _ = toy_policy()
    state = NoiseState(std=0.1, target=0.5, adapt=1.05)
    rng = np.random.default_rng(10)
    adapt_noise(model, state, [sentence], rng)
    adapt_noise(model, state, [sentence], rng)
    assert state.std == pytest.approx(0.1 * 1.05**2)


def test_noise_divergence_reaches_band():
    model, sentence, _ = toy_policy(u_labels=("", "NP"))
    state = NoiseState(std=0.1, target=0.5, adapt=1.05)
    rng = np.random.default_rng(12)
    entered = None
    for batch in range(200):
        adapt_noise(model, state, [sentence], rng)
        if entered is None and abs(state.history[-1] - 0.5) < 0.05:
            entered = batch
    assert entered is not None and entered < 200
    # once large, the measured divergence hovers around the target
    tail = state.history[-30:]
    assert 0.4 < np.mean(tail) < 0.6


# ---------------------------------------------------------------------------
# fine-tuning driver

def test_finetune_runs_and_logs(tmp_path):
    forest = sample_corpus(33, 8)
    corpus = []
    for t in forest:
        enc = encode_relative(t)
        corpus.append((enc.sentence, enc, {}))
    model = train_mtl(corpus, TrainConfig(word_dim=8, pos_dim=4, hidden_dim=12,
                                          window=1, dropout=0.0, epochs=5, seed=4))
    train = [(c[0], t) for c, t in zip(corpus, forest)]
    config = PGConfig(samples=2, epochs=2, seed=3)
    log = tmp_path / "pg.tsv"
    model, rows = finetune_pg(model, train, config, dev=train, log_path=str(log))
    assert len(rows) == 2
    lines = log.read_text().splitlines()
    assert lines[0].split("\t") == [
        "epoch", "reward", "baseline", "standardized", "entropy", "dev_f1", "noise_std",
    ]
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# one forward, K samples, one backward

def small_trained_policy():
    forest = sample_corpus(21, 10)
    corpus = []
    for t in forest:
        enc = encode_relative(t)
        corpus.append((enc.sentence, enc, {}))
    model = train_mtl(corpus, TrainConfig(word_dim=8, pos_dim=4, hidden_dim=12,
                                          window=1, dropout=0.0, epochs=3, seed=2))
    sentence, gold = max(zip([c[0] for c in corpus], forest), key=lambda p: len(p[0]))
    return model, sentence, gold


def recording_reward(model, sentence, gold, seen):
    def fn(ids):
        encoded = encoded_from_ids(model, sentence, ids)
        seen.append(encoded.labels)
        return tree_reward(encoded, gold)

    return fn


def test_vectorised_sampler_matches_sequential_samples():
    model, sentence, gold = small_trained_policy()
    seen = []
    estimate_policy_gradient(model, sentence, recording_reward(model, sentence, gold, seen), 8,
                             np.random.default_rng(5))
    rng = np.random.default_rng(5)
    assert seen == [sample_sequence(model, sentence, rng)[0].labels for _ in range(8)]
    assert len(set(seen)) > 1


def test_single_backward_equals_mean_of_sample_gradients():
    model, sentence, gold = small_trained_policy()
    reward = lambda ids: tree_reward(encoded_from_ids(model, sentence, ids), gold)
    kwargs = dict(entropy_coef=0.05, baseline_reward=0.4)
    joint, stats = estimate_policy_gradient(
        model, sentence, reward, 8, np.random.default_rng(6),
        tracker=AdvantageTracker(burn_in=3), **kwargs)
    rng = np.random.default_rng(6)
    tracker = AdvantageTracker(burn_in=3)
    singles = [
        estimate_policy_gradient(model, sentence, reward, 1, rng, tracker=tracker, **kwargs)
        for _ in range(8)
    ]
    assert joint.keys() == singles[0][0].keys()
    for name in joint:
        mean = sum(g[name] for g, _ in singles) / 8
        np.testing.assert_allclose(joint[name], mean, rtol=0, atol=1e-12)
    for key in stats:
        assert stats[key] == pytest.approx(np.mean([s[key] for _, s in singles]), abs=1e-12)


def test_noisy_samples_share_one_hidden_layer():
    model, sentence, gold = small_trained_policy()
    forward = model.forward
    calls = []
    model.forward = lambda *a, **kw: calls.append(a) or forward(*a, **kw)
    seen = []
    K, std = 4, 0.5
    estimate_policy_gradient(model, sentence, recording_reward(model, sentence, gold, seen), K,
                             np.random.default_rng(7), noise_std=std)
    assert len(calls) == 1

    # replay: K noise draws per head on the clean logits, then the uniforms
    rng = np.random.default_rng(7)
    logits = forward(sentence)["logits"]
    probs = {}
    for name in ("n", "c", "u"):
        z = logits[name] + rng.normal(0.0, std, size=(K,) + logits[name].shape)
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        probs[name] = e / e.sum(axis=-1, keepdims=True)
    draws = rng.random((K, 3, len(sentence)))
    vocab = model.vocab
    for k, labels in enumerate(seen):
        got = {
            "n": [vocab.tasks["n"][lab.n.token()] for lab in labels[:-1]],
            "c": [vocab.tasks["c"][lab.c] for lab in labels[:-1]],
            "u": [vocab.tasks["u"][lab.u if lab.u else "NONE"] for lab in labels],
        }
        for j, name in enumerate(("n", "c", "u")):
            p = probs[name][k]
            ids = np.minimum((draws[k, j, :, None] > p.cumsum(axis=1)).sum(axis=1), p.shape[1] - 1)
            assert got[name] == list(ids[: len(got[name])])


def test_finetune_scores_baseline_once(monkeypatch):
    from treetag import pg

    model, _, _ = small_trained_policy()
    forest = sample_corpus(21, 10)
    train = [(encode_relative(t).sentence, t) for t in forest]
    expected = [tree_reward(predict_greedy(model, s), t) for s, t in train]
    monkeypatch.setattr(pg, "predict_greedy", lambda *a: pytest.fail("baseline re-scored"))
    _, rows = finetune_pg(model, train, PGConfig(samples=2, epochs=2, seed=3))
    for row in rows:
        assert row["baseline"] == pytest.approx(np.mean(expected), abs=1e-12)

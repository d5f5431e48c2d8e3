"""Policy-gradient tests.

The REINFORCE estimator is validated against exact enumeration of a toy
policy whose whole outcome space is four label sequences; the expected
reward and its gradient are computed independently of the estimator.
"""

import copy
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treetag.trees import Sentence, parse_bracketed, sample_corpus
from treetag.auxtracks import shifted_n, syntactic_distances
from treetag.encodings import (
    ABSOLUTE,
    DUMMY,
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
    _dev_scorer,
    _softmax,
    _Steps,
    encoded_from_ids,
    load_model,
    predict_greedy,
    save_model,
    spans_from_ids,
    train_mtl,
    with_gold_spans,
)
from treetag import pg
from treetag.pg import (
    AdvantageTracker,
    PGConfig,
    adapt_noise,
    estimate_policy_gradient,
    finetune_pg,
    pg_update,
    tree_reward,
)


def greedy_reward(baseline, sentence, gold):
    """The baseline reward pg_update takes: the frozen model's greedy tree
    score on the sentence."""
    return tree_reward(predict_greedy(baseline, sentence), gold)


def steps(model, sentences):
    """A fine-tuning run of `model` over `sentences`, and the batch of all of
    them: the first two arguments of the PG step functions."""
    return _Steps(model, sentences), np.arange(len(sentences))


def sample_sequence(policy, sentence, rng, noise_std=0.0):
    """Sample a label sequence from the policy, one sample at a time: the
    sequential oracle of the batched sampler.

    Every head is sampled per token except the final token's n and c,
    which are forced to the dummy and contribute no log-probability (its u
    is still a real decision).  Returns (EncodedSentence, total
    log-probability of the sampled decisions, the sampled ids per task).
    """
    cache = policy.forward(policy.windows([sentence]), heads=MAIN_TASKS)
    probs, picks = pg._sample(cache["logits"], 1, rng, noise_std)
    logprob = 0.0
    for name in MAIN_TASKS:
        p = np.broadcast_to(probs[name], picks[name].shape + probs[name].shape[-1:])[0]
        chosen = np.take_along_axis(p, picks[name][0][:, None], axis=1)
        logprob += float(np.log(chosen if name == "u" else chosen[:-1]).sum())
    ids = {name: picks[name][0] for name in MAIN_TASKS}
    return encoded_from_ids(policy, sentence, ids), logprob, ids


def sample_key(ids):
    """What tells two samples apart: their ids on every head and token."""
    return tuple(tuple(ids[name].tolist()) for name in MAIN_TASKS)


def toy_policy(u_labels=("",), seed=5):
    """A 2-word policy with |N|=2 (r1/DUMMY), |C|=2 (S/DUMMY).

    The only free decisions are word 0's n and c picks: 4 outcomes.
    """
    sentence = Sentence(("a", "b"), ("PA", "PB"))
    last = TagLabel(NComponent("dummy"), DUMMY)
    labels = [TagLabel(NComponent(RELATIVE, 1), "S", u_labels[0]), last]
    corpus = [(EncodedSentence(sentence, labels, RELATIVE), {})]
    for extra in u_labels[1:]:
        lab2 = [TagLabel(NComponent(RELATIVE, 1), "S", extra), last]
        corpus.append((EncodedSentence(sentence, lab2, RELATIVE), {}))
    vocab = Vocabularies.build(corpus)
    config = TrainConfig(word_dim=4, pos_dim=3, hidden_dim=6, window=1,
                         dropout=0.0, seed=seed)
    return TaggerModel(vocab, config, RELATIVE), sentence, vocab


@pytest.mark.parametrize("field", ["learning_rate", "entropy_coef", "noise_std", "noise_target",
                                   "noise_adapt"])
def test_config_rejects_an_infinite_setting(field):
    # learning_rate=inf used to fail one step late, as non-finite hidden
    # activations, or, at the last step without dev, to return silently
    with pytest.raises(ValueError, match="^%s must be finite$" % field):
        PGConfig(**{field: math.inf})


def test_noise_std_zero_is_off_and_below_zero_is_rejected():
    assert PGConfig(noise_std=0).noise_std == 0
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError, match="^noise_std must be >= 0$"):
            PGConfig(noise_std=bad)


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
        sampled, _, _ = sample_sequence(model, sentence, rng)
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
        sampled, _, _ = sample_sequence(model, sentence, rng)
        hits += sampled.labels[0].n == NComponent(RELATIVE, 1)
    assert abs(hits / 10000 - 0.5) < 0.02


def test_sample_logprob_recomputation():
    model, sentence, vocab = toy_policy(u_labels=("", "NP"))
    rng = np.random.default_rng(3)
    for _ in range(20):
        sampled, logprob, _ = sample_sequence(model, sentence, rng)
        logits = model.forward(model.windows([sentence]))["logits"]
        probs = {name: _softmax(z) for name, z in logits.items()}
        expected = 0.0
        for t, lab in enumerate(sampled.labels):
            u_tok = lab.u if lab.u else "NONE"
            expected += math.log(probs["u"][t, vocab.tasks["u"][u_tok]])
            if t < len(sampled.labels) - 1:
                expected += math.log(probs["n"][t, vocab.tasks["n"][lab.n.token()]])
                expected += math.log(probs["c"][t, vocab.tasks["c"][lab.c]])
        assert logprob == pytest.approx(expected)


def test_sampled_last_token_forced_dummy():
    model, sentence, _ = toy_policy()
    rng = np.random.default_rng(11)
    for _ in range(20):
        sampled, _, _ = sample_sequence(model, sentence, rng)
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
        sampled, _, _ = sample_sequence(model, sentence, rng)
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
    labels = [TagLabel(NComponent(ABSOLUTE, 3000), "S"), TagLabel(NComponent("dummy"), DUMMY)]
    corpus = [(EncodedSentence(sentence, labels, DYNAMIC), {})]
    vocab = Vocabularies.build(corpus)
    model = TaggerModel(vocab, TrainConfig(word_dim=4, pos_dim=3, hidden_dim=6, window=1),
                        DYNAMIC)
    model.params["W_n"][:] = 0.0
    model.params["b_n"][:] = 0.0
    model.params["b_n"][vocab.tasks["n"]["a3000"]] = 40.0
    (gold,) = parse_bracketed("(S (PA a) (PB b))")
    config = PGConfig(samples=4, learning_rate=0.0, seed=2)
    stats = pg_update(*steps(model, [sentence]), [labeled_spans(gold)],
                      [greedy_reward(model, sentence, gold)], config,
                      AdvantageTracker(config.burn_in), np.random.default_rng(2))[0]
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
    cache = model.forward(model.windows([sentence]))
    pn = _softmax(cache["logits"]["n"])[0]
    pc = _softmax(cache["logits"]["c"])[0]
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
        *steps(model, [sentence]), [table_reward_fn(model, sentence, table)], [0.0],
        PGConfig(samples=10000, entropy_coef=0.0), AdvantageTracker(math.inf), rng
    )
    names = ["W_n", "b_n", "W_c", "b_c", "W1", "b1"]
    exact = exact_gradient_fd(model, sentence, table, names)
    mc_vec = np.concatenate([mc[n].reshape(-1) for n in names])
    ex_vec = np.concatenate([exact[n].reshape(-1) for n in names])
    rel_err = np.linalg.norm(mc_vec - ex_vec) / np.linalg.norm(ex_vec)
    assert rel_err < 0.05, rel_err


def test_each_distinct_sample_is_scored_once():
    model, sentence, vocab = toy_policy()
    reward = table_reward_fn(model, sentence, reward_table(vocab))
    scored = {}

    def scoring(ids):
        key = tuple(tuple(ids[name].tolist()) for name in MAIN_TASKS)
        assert key not in scored
        scored[key] = reward(ids)
        return scored[key]

    _, (stats,) = estimate_policy_gradient(*steps(model, [sentence]), [scoring], [0.0],
                                           PGConfig(samples=50, entropy_coef=0.0),
                                           AdvantageTracker(math.inf), np.random.default_rng(8))
    cache = model.forward(model.windows([sentence]), heads=MAIN_TASKS)
    _, picks = pg._sample(cache["logits"], 50, np.random.default_rng(8))  # the same draws
    samples = [tuple(tuple(picks[name][k].tolist()) for name in MAIN_TASKS) for k in range(50)]
    assert scored.keys() == set(samples) and len(scored) < len(samples)
    assert stats["reward"] == pytest.approx(np.mean([scored[s] for s in samples]), abs=1e-12)


def test_entropy_gradient_zero_at_uniform():
    model, sentence, vocab = toy_policy(u_labels=("", "NP"))
    for name in ("n", "c", "u"):
        model.params["W_" + name][:] = 0.0
        model.params["b_" + name][:] = 0.0
    rng = np.random.default_rng(4)
    grads, (stats,) = estimate_policy_gradient(
        *steps(model, [sentence]), [lambda e: 0.0], [0.0], PGConfig(samples=50, entropy_coef=0.5),
        AdvantageTracker(math.inf), rng
    )
    # four uniform binary decisions: word 0's n and c, both words' u
    assert stats["entropy"] == pytest.approx(4 * math.log(2))
    for name in ("W_n", "b_n", "W_c", "b_c", "W_u", "b_u"):
        np.testing.assert_allclose(grads[name], 0.0, atol=1e-12)


def test_zero_advantage_when_sample_equals_baseline():
    model, sentence, vocab = toy_policy()
    baseline = copy.deepcopy(model)
    (gold,) = parse_bracketed("(S (PA a) (PB b))")
    config = PGConfig(samples=4, learning_rate=0.0, entropy_coef=0.0, seed=8)
    tracker = AdvantageTracker(burn_in=10**9)
    rng = np.random.default_rng(8)
    stats = pg_update(*steps(model, [sentence]), [labeled_spans(gold)],
                      [greedy_reward(baseline, sentence, gold)], config, tracker, rng)[0]
    # baseline predicts greedily on the same model: samples equal to the
    # greedy choice carry exactly zero advantage
    assert stats["baseline"] == tree_reward(predict_greedy(baseline, sentence), gold)


def test_zero_learning_rate_changes_nothing():
    model, sentence, vocab = toy_policy()
    before = {k: v.copy() for k, v in model.params.items()}
    baseline = copy.deepcopy(model)
    (gold,) = parse_bracketed("(S (PA a) (PB b))")
    config = PGConfig(samples=8, learning_rate=0.0, entropy_coef=0.01, seed=9)
    tracker = AdvantageTracker(burn_in=0)
    rng = np.random.default_rng(9)
    run, batch = steps(model, [sentence])
    for _ in range(5):
        pg_update(run, batch, [labeled_spans(gold)],
                  [greedy_reward(baseline, sentence, gold)], config, tracker, rng)
    for name in before:
        np.testing.assert_array_equal(model.params[name], before[name])


def test_frozen_layers_and_baseline_untouched():
    forest = sample_corpus(21, 10)
    corpus = []
    for t in forest:
        enc = encode_relative(t)
        corpus.append((enc, {}))
    model = train_mtl(corpus, TrainConfig(word_dim=8, pos_dim=4, hidden_dim=12,
                                          window=1, dropout=0.0, epochs=3, seed=2))
    baseline = copy.deepcopy(model)
    baseline_before = {k: v.copy() for k, v in baseline.params.items()}
    emb_before = {k: model.params[k].copy() for k in ("E_word", "E_pos")}
    config = PGConfig(samples=2, learning_rate=0.001, seed=17, epochs=2)
    tracker = AdvantageTracker(config.burn_in)
    rng = np.random.default_rng(17)
    sentences = [enc.sentence for enc, _ in corpus]
    run, _ = steps(model, sentences)
    for i, sentence in enumerate(sentences):
        gold = forest[sentences.index(sentence)]
        pg_update(run, [i], [labeled_spans(gold)],
                  [greedy_reward(baseline, sentence, gold)], config, tracker, rng)
    for k in emb_before:
        np.testing.assert_array_equal(model.params[k], emb_before[k])
    for k in baseline_before:
        np.testing.assert_array_equal(baseline.params[k], baseline_before[k])
    # trunk did move
    assert not np.array_equal(model.params["W1"], baseline.params["W1"])


# ---------------------------------------------------------------------------
# noise adaptation

NOISE = PGConfig(noise_std=0.1, noise_target=0.5, noise_adapt=1.05)


def test_noise_zero_divergence_grows_std():
    model, sentence, _ = toy_policy()
    rng = np.random.default_rng(6)
    run, batch = steps(model, [sentence])
    std, divergence = adapt_noise(run, batch, NOISE, 0.0, rng)
    assert divergence == 0.0
    assert std == 0.0  # multiplicative on zero stays zero
    std, _ = adapt_noise(run, batch, NOISE, 0.1, rng)
    assert std == pytest.approx(0.1 * 1.05)


def test_noise_adaptation_multiplicative():
    model, sentence, _ = toy_policy()
    std = 0.1
    rng = np.random.default_rng(10)
    run, batch = steps(model, [sentence])
    std, _ = adapt_noise(run, batch, NOISE, std, rng)
    std, _ = adapt_noise(run, batch, NOISE, std, rng)
    assert std == pytest.approx(0.1 * 1.05**2)


def test_noise_divergence_reaches_band():
    model, sentence, _ = toy_policy(u_labels=("", "NP"))
    std = 0.1
    history = []
    rng = np.random.default_rng(12)
    entered = None
    run, batch = steps(model, [sentence])
    for step in range(200):
        std, divergence = adapt_noise(run, batch, NOISE, std, rng)
        history.append(divergence)
        if entered is None and abs(history[-1] - 0.5) < 0.05:
            entered = step
    assert entered is not None and entered < 200
    # once large, the measured divergence hovers around the target
    tail = history[-30:]
    assert 0.4 < np.mean(tail) < 0.6


# ---------------------------------------------------------------------------
# fine-tuning driver

def test_finetune_runs_and_logs():
    forest = sample_corpus(33, 8)
    corpus = []
    for t in forest:
        enc = encode_relative(t)
        corpus.append((enc, {}))
    model = train_mtl(corpus, TrainConfig(word_dim=8, pos_dim=4, hidden_dim=12,
                                          window=1, dropout=0.0, epochs=5, seed=4))
    config = PGConfig(samples=2, epochs=2, seed=3)
    model, rows = finetune_pg(model, forest, config, dev=forest)
    assert len(rows) == 2
    assert [list(row) for row in rows] == [[
        "epoch", "reward", "baseline", "standardized", "entropy", "dev_f1", "noise_std",
    ]] * 2


# ---------------------------------------------------------------------------
# one forward, K samples, one backward

def small_trained_policy():
    forest = sample_corpus(21, 10)
    corpus = []
    for t in forest:
        enc = encode_relative(t)
        corpus.append((enc, {}))
    model = train_mtl(corpus, TrainConfig(word_dim=8, pos_dim=4, hidden_dim=12,
                                          window=1, dropout=0.0, epochs=3, seed=2))
    sentence, gold = max(zip([enc.sentence for enc, _ in corpus], forest),
                         key=lambda p: len(p[0]))
    return model, sentence, gold


def recording_reward(model, sentence, gold, seen):
    def fn(ids):
        encoded = encoded_from_ids(model, sentence, ids)
        seen.append(encoded.labels)
        return tree_reward(encoded, gold)

    return fn


def sampled_and_scored(peak, seed):
    """The samples one estimate_policy_gradient call scores, in call order;
    the distinct samples the sequential oracle draws from the same seed, in
    first-seen order; and the advantage tracker.  `peak` scales the head
    weights: a peaked policy draws repeats."""
    model, sentence, gold = small_trained_policy()
    for name in MAIN_TASKS:
        model.params["W_" + name] *= peak
        model.params["b_" + name] *= peak
    seen = []
    tracker = AdvantageTracker(math.inf)
    estimate_policy_gradient(*steps(model, [sentence]),
                             [recording_reward(model, sentence, gold, seen)],
                             [0.0], PGConfig(samples=8, entropy_coef=0.0), tracker,
                             np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    distinct = {}
    for encoded, _, ids in (sample_sequence(model, sentence, rng) for _ in range(8)):
        distinct.setdefault(sample_key(ids), encoded.labels)
    return seen, list(distinct.values()), tracker


def test_vectorised_sampler_matches_sequential_samples():
    seen, distinct, _ = sampled_and_scored(1.0, 5)
    assert seen == distinct
    assert len(set(seen)) > 1


def test_repeated_samples_take_one_reward_call_and_an_advantage_each():
    seen, distinct, tracker = sampled_and_scored(4.0, 5)
    assert seen == distinct
    assert 1 < len(seen) < 8
    assert tracker.count == 8  # one advantage per sample, repeats included


def test_single_backward_equals_mean_of_sample_gradients():
    model, sentence, gold = small_trained_policy()
    reward = lambda ids: tree_reward(encoded_from_ids(model, sentence, ids), gold)
    # a run's gradients are views that its next backward overwrites: one run per call
    joint, (stats,) = estimate_policy_gradient(
        *steps(model, [sentence]), [reward], [0.4], PGConfig(samples=8, entropy_coef=0.05),
        AdvantageTracker(burn_in=3), np.random.default_rng(6))
    rng = np.random.default_rng(6)
    tracker = AdvantageTracker(burn_in=3)
    one = PGConfig(samples=1, entropy_coef=0.05)
    singles = [
        estimate_policy_gradient(*steps(model, [sentence]), [reward], [0.4], one, tracker, rng)
        for _ in range(8)
    ]
    assert joint.keys() == singles[0][0].keys()
    for name in joint:
        mean = sum(g[name] for g, _ in singles) / 8
        np.testing.assert_allclose(joint[name], mean, rtol=0, atol=1e-12)
    for key in stats:
        assert stats[key] == pytest.approx(np.mean([s[0][key] for _, s in singles]), abs=1e-12)


def test_noisy_samples_share_one_hidden_layer():
    model, sentence, gold = small_trained_policy()
    forward = model.forward
    calls = []
    model.forward = lambda *a, **kw: calls.append(a) or forward(*a, **kw)
    seen = []
    K, std = 4, 0.5
    estimate_policy_gradient(*steps(model, [sentence]),
                             [recording_reward(model, sentence, gold, seen)],
                             [0.0], PGConfig(samples=K, entropy_coef=0.0),
                             AdvantageTracker(math.inf), np.random.default_rng(7), noise_std=std)
    assert len(calls) == 1

    # replay: K noise draws per head on the clean logits, then the uniforms
    rng = np.random.default_rng(7)
    logits = forward(model.windows([sentence]))["logits"]
    probs = {}
    for name in ("n", "c", "u"):
        z = logits[name] + rng.normal(0.0, std, size=(K,) + logits[name].shape)
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        probs[name] = e / e.sum(axis=-1, keepdims=True)
    draws = rng.random((K, 3, len(sentence)))
    replayed = [
        {name: np.minimum((draws[k, j, :, None] > probs[name][k].cumsum(axis=1)).sum(axis=1),
                          probs[name].shape[-1] - 1) for j, name in enumerate(("n", "c", "u"))}
        for k in range(K)
    ]
    # the reward sees each distinct sample once: map each call to the
    # index of the first sample drawn with its ids
    first = {}
    for k, ids in enumerate(replayed):
        first.setdefault(sample_key(ids), k)
    assert len(seen) == len(first)
    vocab = model.vocab
    for k, labels in zip(first.values(), seen):
        got = {
            "n": [vocab.tasks["n"][lab.n.token()] for lab in labels[:-1]],
            "c": [vocab.tasks["c"][lab.c] for lab in labels[:-1]],
            "u": [vocab.tasks["u"][lab.u if lab.u else "NONE"] for lab in labels],
        }
        for name in ("n", "c", "u"):
            assert got[name] == list(replayed[k][name][: len(got[name])])


def test_finetune_scores_baseline_once(monkeypatch):
    model, _, _ = small_trained_policy()
    forest = sample_corpus(21, 10)
    expected = [tree_reward(predict_greedy(model, Sentence.from_tree(t)), t) for t in forest]
    calls = []  # each greedy scoring of a set of sentences; without dev, the baseline's

    def counted_scorer(model, pairs):
        score = _dev_scorer(model, pairs)
        return lambda: calls.append(len(pairs)) or score()

    monkeypatch.setattr(pg, "_dev_scorer", counted_scorer)
    _, rows = finetune_pg(model, forest, PGConfig(samples=2, epochs=2, seed=3))
    assert calls == [len(forest)]
    for row in rows:
        assert row["baseline"] == pytest.approx(np.mean(expected), abs=1e-12)


def test_noise_adapts_on_each_slice_of_updated_sentences(monkeypatch):
    model, _, _ = small_trained_policy()
    forest = sample_corpus(21, 19)
    update, adapt = pg.pg_update, pg.adapt_noise
    events = []  # the index of each updated sentence; a list per adaptation
    monkeypatch.setattr(pg, "pg_update", lambda run, batch, *a:
                        events.extend(batch.tolist()) or update(run, batch, *a))
    monkeypatch.setattr(pg, "adapt_noise", lambda run, batch, *a:
                        events.append(batch.tolist()) or adapt(run, batch, *a))
    config = PGConfig(samples=2, epochs=2, seed=3, noise_std=0.1)
    finetune_pg(model, forest, config)

    slices, updated = [], []
    for event in events:
        if isinstance(event, list):
            # each slice is exactly the sentences updated since the last one
            assert event == updated[sum(map(len, slices)):]
            slices.append(event)
        else:
            updated.append(event)
    assert [len(s) for s in slices] == [8, 8, 3] * config.epochs
    assert len(updated) == sum(map(len, slices))
    epochs = [updated[:19], updated[19:]]
    assert all(sorted(order) == list(range(19)) for order in epochs)
    assert epochs[0] != list(range(19)) and epochs[0] != epochs[1]


def test_a_zero_noise_std_never_adapts(monkeypatch):
    model, _, _ = small_trained_policy()
    monkeypatch.setattr(pg, "adapt_noise", lambda *args: pytest.fail("adapted a zero noise scale"))
    _, rows = finetune_pg(model, sample_corpus(21, 9), PGConfig(samples=2, epochs=2, seed=3))
    assert [row["noise_std"] for row in rows] == [0.0, 0.0]


@pytest.mark.parametrize("empty", ["train", "dev"])
def test_finetune_rejects_an_empty_gold_set(empty):
    # no training trees gave all-NaN log rows; no dev trees, a dev F1 of 0
    model, _, _ = small_trained_policy()
    forest = sample_corpus(21, 4)
    train, dev = ([], forest) if empty == "train" else (forest, [])
    with pytest.raises(ValueError, match="^no gold trees to score against$"):
        finetune_pg(model, train, PGConfig(samples=2, epochs=1, seed=3), dev=dev)


# ---------------------------------------------------------------------------
# the run's flat parameter vector

def aux_trained_policy(tmp_path):
    """A policy trained with aux tracks n+1 and dist, its 12 gold trees (two
    slices), and its checkpoint saved as trained and with the aux tasks
    listed first."""
    forest = sample_corpus(31, 12)
    corpus = []
    for t in forest:
        enc = encode_relative(t)
        corpus.append((enc, {"n+1": shifted_n(enc, 1), "dist": syntactic_distances(t)}))
    model = train_mtl(corpus, TrainConfig(word_dim=8, pos_dim=4, hidden_dim=12,
                                          window=1, dropout=0.0, epochs=3, seed=2))
    paths = {"as trained": tmp_path / "model.npz", "aux first": tmp_path / "aux-first.npz"}
    save_model(paths["as trained"], model)
    with np.load(paths["as trained"]) as data:
        arrays = dict(data)
    meta = json.loads(str(arrays["meta"]))
    assert list(meta["tasks"]) == ["n", "c", "u", "dist", "n+1"]
    meta["tasks"] = {name: meta["tasks"][name] for name in ("dist", "n+1", "n", "c", "u")}
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(paths["aux first"], **arrays)
    return model, forest, paths


@pytest.mark.parametrize("noise_std", [0.0, 0.1])
def test_fine_tuning_steps_the_trunk_and_main_heads_in_either_task_order(tmp_path, noise_std):
    # a PG step adds to the one slice of the run's flat vector that holds
    # W1, b1 and the main heads; with aux tasks listed first, that slice
    # must still hold exactly those arrays
    model, forest, paths = aux_trained_policy(tmp_path)
    config = PGConfig(samples=2, epochs=1, learning_rate=0.01, noise_std=noise_std, seed=5)
    tuned = []
    for policy in (model, load_model(paths["aux first"])):
        before = {name: value.copy() for name, value in policy.params.items()}
        finetune_pg(policy, forest, config)
        for name, value in before.items():
            stepped = name in ("W1", "b1") or name[2:] in MAIN_TASKS
            assert np.array_equal(policy.params[name], value) != stepped, name
        tuned.append(policy.params)
    assert list(load_model(paths["aux first"]).vocab.tasks)[0] == "dist"
    for name, value in tuned[0].items():
        assert np.array_equal(tuned[1][name], value), name


def test_fine_tuning_a_reloaded_policy_matches_the_policy_saved(tmp_path):
    # load_model's params are in sorted name order: the run's layout must
    # come from the vocabulary, not from that order
    model, forest, paths = aux_trained_policy(tmp_path)
    reloaded = load_model(paths["as trained"])
    assert list(reloaded.params) == sorted(reloaded.params)
    config = PGConfig(samples=2, epochs=2, learning_rate=0.01, noise_std=0.1, seed=5)
    ours, our_rows = finetune_pg(reloaded, forest, config, dev=forest[:5])
    theirs, their_rows = finetune_pg(model, forest, config, dev=forest[:5])
    assert our_rows == their_rows
    assert ours.params.keys() == theirs.params.keys()
    for name, value in theirs.params.items():
        assert np.array_equal(ours.params[name], value), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowing_policy_gradient_is_named_before_any_step():
    # the first non-finite array in backward's order is named, and no
    # parameter has moved
    model, _, _ = small_trained_policy()
    before = {name: value.copy() for name, value in model.params.items()}
    with pytest.raises(RuntimeError, match="^non-finite policy gradient for 'W_n'$"):
        finetune_pg(model, sample_corpus(21, 10), PGConfig(epochs=1, entropy_coef=1e308))
    for name, value in before.items():
        assert np.array_equal(model.params[name], value), name


# ---------------------------------------------------------------------------
# one step per slice of sentences

def single_sentence_pg_update(policy, sentence, gold_spans, baseline_reward, config, tracker, rng,
                              noise_std=0.0):
    """The step of one sentence as it was before steps took slices: its
    own windows, forward, sampler, dlogits, backward, and check, scale and
    add per parameter array."""
    K = config.samples
    cache = policy.forward(policy.windows([sentence]), heads=MAIN_TASKS)
    probs = {}
    for name in MAIN_TASKS:
        z = cache["logits"][name]
        if noise_std > 0:
            z = z + rng.normal(0.0, noise_std, size=(K,) + z.shape)
        probs[name] = _softmax(z)
    draws = rng.random((K, len(MAIN_TASKS), len(cache["h"])))
    picks = {}
    for j, name in enumerate(MAIN_TASKS):
        ids = (draws[:, j, :, None] > probs[name].cumsum(axis=-1)).sum(axis=-1)
        picks[name] = np.minimum(ids, probs[name].shape[-1] - 1)
    samples = [{name: picks[name][k] for name in MAIN_TASKS} for k in range(K)]
    keys = [b"".join([ids.tobytes() for ids in sample.values()]) for sample in samples]
    reward = lambda ids: span_score(gold_spans, spans_from_ids(policy, ids)).f1
    scored = {key: reward(sample) for key, sample in dict(zip(keys, samples)).items()}
    rewards = [scored[key] for key in keys]
    advantages = [r - baseline_reward for r in rewards]
    standardized = []
    for adv in advantages:
        tracker.update(adv)
        standardized.append(tracker.standardize(adv))
    weights = np.array(standardized, dtype=float)[:, None, None]
    dlogits = {}
    entropies = np.zeros(K)
    for name in MAIN_TASKS:
        p = probs[name]
        logp = np.log(np.clip(p, 1e-300, None))
        ent_rows = -(p * logp).sum(axis=-1)
        ent_d = -p * (logp + ent_rows[..., None])
        onehot = np.eye(p.shape[-1])[picks[name]]
        d = (weights * (onehot - p) + config.entropy_coef * ent_d).sum(axis=0)
        if name != "u":
            d[-1, :] = 0.0
            ent_rows = ent_rows[..., :-1]
        entropies += ent_rows.sum(axis=-1)
        dlogits[name] = d / K
    grads = policy.backward(cache, dlogits, pg.FROZEN)
    for name, g in grads.items():
        assert np.isfinite(g).all()
        g *= config.learning_rate
        policy.params[name] += g
    policy._table = None
    return {"reward": float(np.mean(rewards)), "advantage": float(np.mean(advantages)),
            "standardized": float(np.mean(standardized)), "entropy": float(np.mean(entropies)),
            "baseline": baseline_reward}


def slice_setup():
    """A trained policy and 10 (sentence, gold spans, baseline) triples."""
    model, _, _ = small_trained_policy()
    forest = sample_corpus(21, 10)
    scored = with_gold_spans(forest)
    baselines = [score.f1 for score in _dev_scorer(model, scored)()]
    return model, [(s, spans, b) for (s, spans), b in zip(scored, baselines)]


def assert_a_slice_of_one_is_the_single_sentence_step(noise_std, samples):
    model, triples = slice_setup()
    ours, theirs = copy.deepcopy(model), copy.deepcopy(model)
    # burn-in ends within the 20 calls: raw advantages, then standardised
    config = PGConfig(samples=samples, learning_rate=0.05, entropy_coef=0.05, burn_in=18)
    trackers = AdvantageTracker(config.burn_in), AdvantageTracker(config.burn_in)
    rngs = np.random.default_rng(11), np.random.default_rng(11)
    run, _ = steps(ours, [sentence for sentence, _, _ in triples])  # one run for all 20 steps
    for i, (sentence, spans, baseline) in enumerate(triples * 2):
        expected = single_sentence_pg_update(theirs, sentence, spans, baseline, config,
                                             trackers[0], rngs[0], noise_std)
        assert pg_update(run, [i % len(triples)], [spans], [baseline], config, trackers[1],
                         rngs[1], noise_std) == [expected]
    assert trackers[0].count == 20 * config.samples > config.burn_in
    for name in model.params:
        assert np.array_equal(ours.params[name], theirs.params[name]), name
    assert not np.array_equal(ours.params["W1"], model.params["W1"])
    assert vars(trackers[0]) == vars(trackers[1])
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("noise_std", [0.0, 0.3])
def test_a_slice_of_one_is_the_single_sentence_step_bit_for_bit(noise_std):
    assert_a_slice_of_one_is_the_single_sentence_step(noise_std, samples=4)


@pytest.mark.parametrize("samples", [1, 2, 3, 5, 8, 9, 16, 17])
def test_slice_stats_are_each_sentences_sample_means_bit_for_bit(samples):
    # the stats are row-wise means of a (sentences, samples) array, which
    # must equal np.mean of each sentence's own list at any sample count
    for noise_std in (0.0, 0.3):
        assert_a_slice_of_one_is_the_single_sentence_step(noise_std, samples)


@pytest.mark.parametrize("noise_std", [0.0, 0.3])
def test_a_slice_gradient_sums_its_sentences_gradients(noise_std):
    model, triples = slice_setup()
    config = PGConfig(samples=4, entropy_coef=0.05, burn_in=9)
    sentences, spans, baselines = zip(*triples[:6])
    rewards = [lambda ids, gold=gold: span_score(gold, spans_from_ids(model, ids)).f1
               for gold in spans]
    tracker, rng = AdvantageTracker(config.burn_in), np.random.default_rng(4)
    joint, stats = estimate_policy_gradient(*steps(model, sentences), rewards, baselines, config,
                                            tracker, rng, noise_std)
    one_tracker, one_rng = AdvantageTracker(config.burn_in), np.random.default_rng(4)
    singles = [estimate_policy_gradient(*steps(model, [s]), [r], [b], config, one_tracker,
                                        one_rng, noise_std)
               for s, r, b in zip(sentences, rewards, baselines)]
    assert joint.keys() == singles[0][0].keys()
    for name in joint:
        np.testing.assert_allclose(joint[name], sum(g[name] for g, _ in singles),
                                   rtol=0, atol=1e-12)
    assert len(stats) == len(sentences)
    for row, (_, (single,)) in zip(stats, singles):
        assert row.keys() == single.keys()
        for key in row:
            assert row[key] == pytest.approx(single[key], abs=1e-12)
    assert vars(tracker) == vars(one_tracker)
    assert rng.bit_generator.state == one_rng.bit_generator.state


def test_a_slice_takes_one_forward_backward_and_update():
    model, triples = slice_setup()
    sentences, spans, baselines = zip(*triples[:8])
    run, batch = steps(model, sentences)
    calls, written = Counter(), []
    for owner, method in ((model, "forward"), (model, "backward"), (run, "step")):
        original = getattr(owner, method)
        setattr(owner, method, lambda *a, method=method, original=original, **kw:
                calls.update([method]) or written.append(kw.get("out")) or original(*a, **kw))
    before = {k: v.copy() for k, v in model.params.items()}
    config = PGConfig(samples=4, learning_rate=0.0)
    stats = pg_update(run, batch, spans, baselines, config, AdvantageTracker(0),
                      np.random.default_rng(2), 0.3)
    assert calls == {"forward": 1, "backward": 1, "step": 1}
    # backward wrote the gradients of W1, b1 and the main heads into the run's own views
    outs = [out for out in written if out is not None]
    assert len(outs) == 1 and outs[0] is run.grad_views
    tuned = ["W1", "b1"] + ["%s_%s" % (p, name) for name in MAIN_TASKS for p in "Wb"]
    grads, _ = estimate_policy_gradient(run, batch, [lambda ids: 0.0] * 8, baselines, config,
                                        AdvantageTracker(0), np.random.default_rng(2))
    assert sorted(grads) == sorted(tuned)
    assert all(grads[name] is run.grad_views[name] for name in tuned)
    assert [row["baseline"] for row in stats] == list(baselines)
    for name in before:  # a zero learning rate leaves every parameter as it was
        np.testing.assert_array_equal(model.params[name], before[name])

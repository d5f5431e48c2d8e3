"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch them stream).

The heavyweight artifacts (the 10k-tree corpus and the trained model) are
shared module-scoped fixtures, so the whole file runs in a few minutes.
"""

import copy
import dataclasses
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from treetag.trees import Sentence, load_trees, random_tree, sample_corpus
from treetag.encodings import (
    ABSOLUTE,
    SCHEMES,
    decode,
    decode_with_repairs,
    encode,
    encode_dynamic,
    encode_relative,
)
from treetag.auxtracks import PAD, shifted_n, syntactic_distances
from treetag.metrics import bracket_score, corpus_bracket_score, label_space_stats
from treetag.tagger import TaggerModel, TrainConfig, predict_greedy, train_mtl
from treetag.pg import AdvantageTracker, PGConfig, estimate_policy_gradient, finetune_pg

from test_encodings import oracle_pairs, oracle_paths
from test_metrics import make_pair, oracle_score
from test_auxtracks import oracle_distances
from test_tagger import analytic_grads, mean_loss, summed_loss, tiny_config
from test_pg import exact_gradient_fd, reward_table, table_reward_fn, toy_policy

ALPHABET = ["S", "NP", "VP", "PP", "ADJP", "ADVP", "SBAR"]
CORPUS_SIZE = 10000


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %-28s FAIL" % name, flush=True)
        raise
    print("ACCEPTANCE %-28s PASS" % name, flush=True)


@pytest.fixture(scope="module")
def corpus_10k():
    return [random_tree(i, 40, 12, ALPHABET) for i in range(CORPUS_SIZE)]


@pytest.fixture(scope="module")
def training_setup():
    forest = sample_corpus(42, 200)
    corpus = []
    for t in forest:
        enc = encode_dynamic(t)
        aux = {"n+1": shifted_n(enc, 1), "dist": syntactic_distances(t)}
        corpus.append((enc, aux))
    return forest, corpus


@pytest.fixture(scope="module")
def trained(training_setup):
    forest, corpus = training_setup
    start = time.time()
    model = train_mtl(corpus, TrainConfig(), dev=corpus)
    return model, time.time() - start


def test_round_trip_identity(corpus_10k):
    with criterion("round-trip identity"):
        start = time.time()
        failures = 0
        chains = 0
        for t in corpus_10k:
            for scheme in SCHEMES:
                encoded = encode(t, scheme)
                rebuilt, log = decode_with_repairs(encoded)
                if rebuilt != t or not log.clean():
                    failures += 1
            chains += sum(1 for lab in encoded.labels if lab.u)
        elapsed = time.time() - start
        print("  %d trees x %d schemes in %.1fs, %d leaf chains present"
              % (len(corpus_10k), len(SCHEMES), elapsed, chains), flush=True)
        assert failures == 0
        assert chains > 0
        assert elapsed < 60.0


def test_dynamic_switch_correctness(corpus_10k):
    with criterion("dynamic switch rule"):
        for t in corpus_10k:
            if len(Sentence.from_tree(t)) == 1:
                continue
            pairs = oracle_pairs(t)
            dyn = encode_dynamic(t)
            prev = 0
            for i, (count, _) in enumerate(pairs):
                fired = dyn.labels[i].n.scale == ABSOLUTE
                should = count <= 3 and (count - prev) <= -2
                assert fired == should
                if fired:
                    assert dyn.labels[i].n.value == count
                    assert count <= 3 and (count - prev) <= -2
                prev = count


def test_variability_reduction(corpus_10k):
    with criterion("variability reduction"):
        rel_tokens = set()
        dyn_tokens = set()
        for t in corpus_10k:
            rel_tokens.update(encode_relative(t).n_tokens())
            dyn_tokens.update(encode_dynamic(t).n_tokens())
        print("  distinct n tokens: relative=%d dynamic=%d"
              % (len(rel_tokens), len(dyn_tokens)), flush=True)
        assert len(dyn_tokens) <= len(rel_tokens)


def test_scorer_oracle_equivalence():
    with criterion("scorer oracle equivalence"):
        for seed in range(1000):
            gold, pred = make_pair(seed)
            s = bracket_score(gold, pred)
            assert (s.matched, s.gold_total, s.pred_total) == oracle_score(gold, pred)


def test_syntactic_distances_oracle():
    with criterion("syntactic distances"):
        for seed in range(1000):
            t = random_tree(seed, 20, 10, ALPHABET)
            track = syntactic_distances(t)
            assert list(track) == oracle_distances(t)
            paths = oracle_paths(t)
            if len(paths) == 1:
                continue
            root = max(int(v) for v in track if v != PAD)
            assert root == max(len(p) for p in paths)


def test_gradient_check():
    with criterion("gradient check"):
        from treetag.trees import parse_bracketed
        from treetag.tagger import Vocabularies

        (t,) = parse_bracketed("(S (NP (DT the) (NN dog)) (VB runs))")
        enc = encode_dynamic(t)
        aux = {"n+1": shifted_n(enc, 1), "dist": syntactic_distances(t)}
        instance = (enc, aux)
        vocab = Vocabularies.build([instance])
        model = TaggerModel(vocab, tiny_config(), "dynamic")
        grads = analytic_grads(model, instance)
        eps = 1e-4
        checked = 0
        for name, tensor in model.params.items():
            flat = tensor.reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = summed_loss(model, instance)
                flat[i] = orig - eps
                lo = summed_loss(model, instance)
                flat[i] = orig
                fd = (hi - lo) / (2 * eps)
                denom = max(abs(fd), abs(gflat[i]), 1e-8)
                assert abs(fd - gflat[i]) / denom < 1e-4, (name, i)
                checked += 1
        print("  %d parameter entries checked across %d tensors"
              % (checked, len(model.params)), flush=True)


def test_desk_scale_learning(training_setup, trained):
    with criterion("desk-scale learning"):
        forest, corpus = training_setup
        model, train_time = trained
        correct = total = 0
        decoded = []
        for encoded, _ in corpus:
            pred = predict_greedy(model, encoded.sentence)
            for g, p in zip(encoded.labels, pred.labels):
                correct += g == p
                total += 1
            decoded.append(decode(pred))
        accuracy = correct / total
        f1 = corpus_bracket_score(forest, decoded).f1
        print("  token accuracy %.4f, train F1 %.4f, %.0fs for %d epochs"
              % (accuracy, f1, train_time, model.config.epochs), flush=True)
        assert accuracy >= 0.95
        assert f1 >= 0.90
        assert train_time < 300.0


def test_mtl_loss_composition(training_setup, trained):
    with criterion("MTL loss composition"):
        _, corpus = training_setup
        model, _ = trained
        for beta in (0.0, 0.1):
            config = dataclasses.replace(model.config, aux_weight=beta)
            weighted = TaggerModel(model.vocab, config, model.scheme, params=model.params)
            total, parts = mean_loss(weighted, corpus[:40])
            expected = parts["n"] + parts["c"] + parts["u"]
            expected += beta * sum(parts[k] for k in parts if k not in ("n", "c", "u"))
            assert abs(total - expected) <= 1e-9


def test_reinforce_unbiasedness():
    with criterion("REINFORCE unbiasedness"):
        model, sentence, vocab = toy_policy()
        table = reward_table(vocab)
        rng = np.random.default_rng(123)
        mc, _ = estimate_policy_gradient(
            model, [sentence], [table_reward_fn(model, sentence, table)], [0.0],
            PGConfig(samples=10000, entropy_coef=0.0), AdvantageTracker(math.inf), rng
        )
        names = ["W_n", "b_n", "W_c", "b_c", "W1", "b1"]
        exact = exact_gradient_fd(model, sentence, table, names)
        mc_vec = np.concatenate([mc[n].reshape(-1) for n in names])
        ex_vec = np.concatenate([exact[n].reshape(-1) for n in names])
        rel_err = float(np.linalg.norm(mc_vec - ex_vec) / np.linalg.norm(ex_vec))
        print("  relative error of 10k-sample estimate: %.3f%%" % (100 * rel_err),
              flush=True)
        assert rel_err < 0.05


def test_pg_non_deterioration(training_setup, trained):
    with criterion("PG non-deterioration"):
        forest, corpus = training_setup
        model, _ = trained
        policy = copy.deepcopy(model)
        sentences = [enc.sentence for enc, _ in corpus]
        decoded = [decode(predict_greedy(model, s)) for s in sentences]
        before_f1 = corpus_bracket_score(forest, decoded).f1
        # the baseline is the incoming model's greedy F1 per sentence
        baseline = np.mean([bracket_score(t, tree).f1 for t, tree in zip(forest, decoded)])

        config = PGConfig()  # samples=8, lr=5e-4, entropy 0.01, 10 epochs
        policy, rows = finetune_pg(policy, forest, config)

        after_f1 = corpus_bracket_score(
            forest, [decode(predict_greedy(policy, s)) for s in sentences]
        ).f1
        print("  train F1 %.4f -> %.4f (%+.2f points)"
              % (before_f1, after_f1, 100 * (after_f1 - before_f1)), flush=True)
        assert after_f1 - before_f1 >= -0.005

        # every epoch's mean is over the same per-sentence scores, summed in
        # that epoch's shuffled order
        assert len(rows) == config.epochs
        for row in rows:
            assert row["baseline"] == pytest.approx(baseline, rel=0, abs=1e-12)


PTB_ENV = "PTB_TRAIN_PATH"


@pytest.mark.skipif(PTB_ENV not in os.environ, reason="set %s to run" % PTB_ENV)
def test_ptb_label_space_stats():
    """Data-contingent: needs the licensed WSJ training split as one tree
    per line (function tags stripped by the usual preprocessing)."""
    with criterion("PTB label-space stats"):
        forest = load_trees(os.environ[PTB_ENV], strip_functions=True)
        encoded = [encode_relative(t) for t in forest]
        stats = label_space_stats(encoded, decomposed=False)
        print("  distinct=%d rare_fraction(5)=%.4f"
              % (stats.total_distinct, stats.rare_fraction(5)), flush=True)
        assert stats.total_distinct == 1423
        assert 0.56 <= stats.rare_fraction(5) <= 0.60

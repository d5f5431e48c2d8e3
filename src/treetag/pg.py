"""Policy-gradient fine-tuning of a trained tagger.

The tagger is treated as a policy over label sequences: per token it
factorises into independent picks for the n, c and u heads.  Fine-tuning
samples sequences and scores each by the bracketing F1 of its tree against
the gold tree: the decoder's one pass yields the tree's labeled spans
straight from the sampled ids, and each gold tree's spans are taken once
per run, so no tree is built or walked per sample.  It subtracts the reward
of a frozen copy of the starting model (the baseline), standardises that
advantage with running statistics, and takes small ascent steps on
advantage-weighted log-likelihood plus an entropy bonus.  Embedding tables
stay frozen so the fine-tuned model keeps the supervised lexical
representations.

Optionally, Gaussian noise is added to the logits during sampling; its
scale adapts multiplicatively towards a target amount of induced
distribution change.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .encodings import decode
from .metrics import bracket_score, labeled_spans, span_score
from .tagger import (
    MAIN_TASKS,
    _dev_f1,
    _predict_ids,
    _softmax,
    predict_greedy,
    spans_from_ids,
)


@dataclass
class PGConfig:
    samples: int = 8
    learning_rate: float = 0.0005
    entropy_coef: float = 0.01        # strength of the exploration bonus
    burn_in: int = 1000               # advantages seen before standardising
    frozen: tuple = ("E_word", "E_pos")
    epochs: int = 10
    noise_enabled: bool = False
    noise_std: float = 0.1            # initial logit-noise stddev
    noise_target: float = 0.5         # desired induced action divergence
    noise_adapt: float = 1.05         # multiplicative adaptation step
    noise_batch: int = 8              # sentences between noise adaptations
    seed: int = 29

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("need at least one sample per sentence")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.entropy_coef < 0 or self.learning_rate < 0:
            raise ValueError("coefficients must be >= 0")


class AdvantageTracker:
    """Running mean/stddev of raw advantages (Welford).

    standardize() is the identity until `burn_in` observations have been
    recorded; the stddev is floored at 1e-8.
    """

    STD_FLOOR = 1e-8

    def __init__(self, burn_in=1000):
        self.burn_in = burn_in
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, x):
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)

    @property
    def std(self):
        if self.count == 0:
            return self.STD_FLOOR
        return max(math.sqrt(self._m2 / self.count), self.STD_FLOOR)

    def standardize(self, x):
        if self.count < self.burn_in:
            return x
        return (x - self.mean) / self.std


@dataclass
class NoiseState:
    std: float = 0.1
    target: float = 0.5
    adapt: float = 1.05
    history: list = field(default_factory=list)  # measured divergences

    @classmethod
    def from_config(cls, config):
        return cls(config.noise_std, config.noise_target, config.noise_adapt)


def _sample(cache, n_samples, rng, noise_std=0.0):
    """Draw `n_samples` label-id sequences from a forward cache's main heads.

    Every head is sampled per token, from one draw of (sample, head, token)
    uniforms.  With noise, each sample perturbs the logits of the shared
    hidden layer with its own noise.  Returns (probs, picks): probs maps
    task -> (K, T, k) sampling distributions and picks task -> (K, T) ids.
    """
    K = n_samples
    probs = {}
    for name in MAIN_TASKS:
        if noise_std > 0:
            z = cache["logits"][name]
            probs[name] = _softmax(z + rng.normal(0.0, noise_std, size=(K,) + z.shape))
        else:
            probs[name] = np.broadcast_to(cache["probs"][name], (K,) + cache["probs"][name].shape)
    draws = rng.random((K, len(MAIN_TASKS), len(cache["h"])))
    picks = {}
    for j, name in enumerate(MAIN_TASKS):
        ids = (draws[:, j, :, None] > probs[name].cumsum(axis=-1)).sum(axis=-1)
        picks[name] = np.minimum(ids, probs[name].shape[-1] - 1)
    return probs, picks


def tree_reward(sampled, gold_tree):
    """Bracketing F1 of the decoded sample against the gold tree, in [0,1]."""
    return bracket_score(gold_tree, decode(sampled)).f1


def _entropy_terms(p):
    """Per-row entropy H = -sum p log p and its gradient wrt the logits."""
    logp = np.log(np.clip(p, 1e-300, None))
    H = -(p * logp).sum(axis=-1)
    return H, -p * (logp + H[..., None])


def estimate_policy_gradient(
    policy,
    sentence,
    reward_fn,
    n_samples,
    rng,
    entropy_coef=0.0,
    baseline_reward=0.0,
    tracker=None,
    noise_std=0.0,
    frozen=(),
):
    """Ascent-direction parameter gradients from sampled sequences.

    For each sample: advantage = reward_fn(ids) - baseline_reward (ids
    maps each main task to the sample's per-token label ids), standardised
    through `tracker` when given; the gradient accumulates advantage *
    grad log-prob of the sampled decisions plus entropy_coef * grad entropy
    of the (possibly noise-perturbed) policy.  The final token's n and c
    decisions are forced and therefore excluded from both terms.
    Gradients and stats are averaged over samples.  One forward pass
    serves all samples and the summed logit gradients take one backward
    pass; parameters named in `frozen` get no gradient.
    """
    cache = policy.forward(sentence, heads=MAIN_TASKS)
    probs, picks = _sample(cache, n_samples, rng, noise_std)
    rewards = []
    advantages = []
    standardized = []
    for k in range(n_samples):
        reward = reward_fn({name: picks[name][k] for name in MAIN_TASKS})
        adv = reward - baseline_reward
        if tracker is not None:
            tracker.update(adv)
            adv_hat = tracker.standardize(adv)
        else:
            adv_hat = adv
        rewards.append(reward)
        advantages.append(adv)
        standardized.append(adv_hat)

    weights = np.array(standardized, dtype=float)[:, None, None]
    dlogits = {}
    entropies = np.zeros(n_samples)
    for name in MAIN_TASKS:
        p = probs[name]
        ent_rows, ent_d = _entropy_terms(p)
        onehot = np.eye(p.shape[-1])[picks[name]]
        d = (weights * (onehot - p) + entropy_coef * ent_d).sum(axis=0)
        if name != "u":
            d[-1, :] = 0.0
            ent_rows = ent_rows[:, :-1]
        entropies += ent_rows.sum(axis=1)
        dlogits[name] = d / n_samples
    grads = policy.backward(cache, dlogits, frozen)
    stats = {
        "reward": float(np.mean(rewards)),
        "advantage": float(np.mean(advantages)),
        "standardized": float(np.mean(standardized)),
        "entropy": float(np.mean(entropies)),
    }
    return grads, stats


def pg_update(policy, baseline, sentence, gold_tree, config, tracker, rng, noise_std=0.0,
              baseline_reward=None, gold_spans=None):
    """One fine-tuning step on a single sentence.

    The baseline reward is the frozen model's greedy tree score; it is
    computed here unless `baseline_reward` passes it in, and `gold_spans`
    may pass in labeled_spans(gold_tree).  Parameters named in
    config.frozen are left untouched.  Returns per-sentence stats.
    """
    if baseline_reward is None:
        baseline_reward = tree_reward(predict_greedy(baseline, sentence), gold_tree)
    if gold_spans is None:
        gold_spans = labeled_spans(gold_tree)
    grads, stats = estimate_policy_gradient(
        policy,
        sentence,
        lambda ids: span_score(gold_spans, spans_from_ids(policy, ids)).f1,
        config.samples,
        rng,
        entropy_coef=config.entropy_coef,
        baseline_reward=baseline_reward,
        tracker=tracker,
        noise_std=noise_std,
        frozen=config.frozen,
    )
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise RuntimeError("non-finite policy gradient for %r" % name)
        policy.params[name] += config.learning_rate * g
    stats["baseline"] = baseline_reward
    return stats


def action_divergence(policy, sentences, noise_std, rng):
    """Mean absolute difference between noisy and clean probability
    vectors of the sampled (main) heads: the mean over sentences and heads
    of each sentence's mean over its tokens and labels.  One forward pass
    covers all sentences, and each head takes one noise draw."""
    cache = policy.forward(policy.windows(sentences), heads=MAIN_TASKS)
    lengths = np.array([len(s) for s in sentences])
    starts = np.cumsum(lengths) - lengths
    diffs = []
    for name in MAIN_TASKS:
        z, clean = cache["logits"][name], cache["probs"][name]
        noisy = _softmax(z + rng.normal(0.0, noise_std, size=z.shape)) if noise_std > 0 else clean
        rows = np.abs(noisy - clean).mean(axis=1)
        diffs.append(np.add.reduceat(rows, starts) / lengths)
    return float(np.mean(diffs))


def adapt_noise(policy, state, sentences, rng):
    """Adapt the noise scale after a batch.

    Measures the induced action divergence at the current stddev; grows
    the stddev by the adaptation factor when the divergence falls short of
    the target, shrinks it otherwise.  Returns the new stddev.
    """
    d = action_divergence(policy, sentences, state.std, rng)
    state.history.append(d)
    if d < state.target:
        state.std *= state.adapt
    else:
        state.std /= state.adapt
    return state.std


def finetune_pg(policy, train, config, dev=None, log_path=None, baseline=None):
    """Fine-tune `policy` on (Sentence, gold Tree) pairs.

    A frozen clone of the incoming policy serves as the baseline for every
    update (pass `baseline` to supply the frozen model yourself).  Per
    epoch the corpus is visited in a seeded shuffled order; when `dev` is
    given its bracketing F1 is evaluated after each epoch.  A TSV log
    (epoch, mean reward, mean baseline, mean standardized advantage,
    entropy, dev F1, noise stddev) is written to `log_path` when provided.
    Returns (policy, log rows).
    """
    if baseline is None:
        baseline = policy.clone()
    tracker = AdvantageTracker(config.burn_in)
    rng = np.random.default_rng(config.seed)
    noise = NoiseState.from_config(config) if config.noise_enabled else None
    gold_spans = [labeled_spans(tree) for _, tree in train]
    greedy = _predict_ids(baseline, [sentence for sentence, _ in train])
    baseline_rewards = [span_score(gold, spans_from_ids(baseline, ids)).f1
                        for ids, gold in zip(greedy, gold_spans)]
    if dev is not None:
        dev = [(sentence, labeled_spans(tree)) for sentence, tree in dev]
    order = np.arange(len(train))
    rows = []
    for epoch in range(config.epochs):
        rng.shuffle(order)
        stats_acc = {"reward": [], "baseline": [], "standardized": [], "entropy": []}
        pending = []
        for i in order:
            sentence, gold_tree = train[i]
            std = noise.std if noise is not None else 0.0
            stats = pg_update(policy, baseline, sentence, gold_tree, config, tracker, rng, std,
                              baseline_rewards[i], gold_spans[i])
            for key in stats_acc:
                stats_acc[key].append(stats[key])
            if noise is not None:
                pending.append(sentence)
                if len(pending) >= config.noise_batch:
                    adapt_noise(policy, noise, pending, rng)
                    pending = []
        if noise is not None and pending:
            adapt_noise(policy, noise, pending, rng)
        row = {
            "epoch": epoch,
            "reward": float(np.mean(stats_acc["reward"])),
            "baseline": float(np.mean(stats_acc["baseline"])),
            "standardized": float(np.mean(stats_acc["standardized"])),
            "entropy": float(np.mean(stats_acc["entropy"])),
            "dev_f1": "",
            "noise_std": noise.std if noise is not None else 0.0,
        }
        if dev is not None:
            row["dev_f1"] = _dev_f1(policy, dev)
        rows.append(row)
    if log_path:
        with open(log_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()), delimiter="\t")
            writer.writeheader()
            writer.writerows(rows)
    return policy, rows

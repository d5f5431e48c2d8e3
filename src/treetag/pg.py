"""Policy-gradient fine-tuning of a trained tagger.

The tagger is treated as a policy over label sequences: per token it
factorises into independent picks for the n, c and u heads.  Fine-tuning
samples sequences and scores each by the bracketing F1 of its tree against
the gold tree: the decoder's one pass yields the tree's labeled spans
straight from the sampled ids, and each gold tree's spans are taken once
per run, so no tree is built or walked per sample.  It subtracts the
starting model's greedy reward on the sentence (the baseline, scored once
per run) and standardises that advantage with running statistics.  Each
step is one forward, one backward and one flat parameter step for a slice
of sentences: a small ascent step on the sum of their advantage-weighted
log-likelihoods plus an entropy bonus.  Embedding tables stay frozen so
the fine-tuned model keeps the supervised lexical representations.

With a noise_std above 0, Gaussian noise is added to the logits during
sampling; its scale adapts multiplicatively towards a target amount of
induced distribution change.
"""

import math
from dataclasses import dataclass

import numpy as np

from .encodings import decode
from .metrics import BracketScore, bracket_score, span_score
from .tagger import MAIN_TASKS, _dev_scorer, _softmax, _Steps, spans_from_ids, with_gold_spans

FROZEN = ("E_word", "E_pos")  # parameters fine-tuning leaves as trained
NOISE_BATCH = 8               # sentences per PG step and noise adaptation


@dataclass
class PGConfig:
    samples: int = 8
    learning_rate: float = 0.0005
    entropy_coef: float = 0.01        # strength of the exploration bonus
    burn_in: int = 1000               # advantages seen before standardising
    epochs: int = 10
    noise_std: float = 0.0            # initial logit-noise stddev; 0 is off
    noise_target: float = 0.5         # desired induced action divergence
    noise_adapt: float = 1.05         # multiplicative adaptation step
    seed: int = 29

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("need at least one sample per sentence")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if not (self.entropy_coef >= 0 and self.learning_rate >= 0):
            raise ValueError("coefficients must be >= 0")
        if not self.noise_std >= 0:
            raise ValueError("noise_std must be >= 0")
        if not self.noise_target >= 0:
            raise ValueError("noise_target must be >= 0")
        if not self.noise_adapt >= 1:
            raise ValueError("noise_adapt must be >= 1")
        if not self.burn_in >= 0:
            raise ValueError("burn_in must be >= 0")
        if not self.seed >= 0:
            raise ValueError("seed must be >= 0")
        for name in ("learning_rate", "entropy_coef", "noise_std", "noise_target", "noise_adapt"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)


class AdvantageTracker:
    """Running mean/stddev of raw advantages (Welford).

    standardize() is the identity until `burn_in` observations have been
    recorded; the stddev is floored at 1e-8.
    """

    STD_FLOOR = 1e-8

    def __init__(self, burn_in):
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


def _sample(logits, n_samples, rng, noise_std=0.0):
    """Draw `n_samples` label-id sequences from the main heads' `logits`.

    Every head is sampled per token, from one draw of (sample, head, token)
    uniforms.  With noise, each sample perturbs the logits with its own
    noise.  Returns (probs, picks): probs maps task -> (K, T, k) sampling
    distributions (without noise, the one (T, k) distribution every sample
    shares) and picks task -> (K, T) ids.
    """
    K = n_samples
    probs = {}
    for name in MAIN_TASKS:
        z = logits[name]
        if noise_std > 0:
            z = z + rng.normal(0.0, noise_std, size=(K,) + z.shape)
        probs[name] = _softmax(z)
    draws = rng.random((K, len(MAIN_TASKS), len(logits["n"])))
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


def estimate_policy_gradient(run, batch, reward_fns, baseline_rewards, config, tracker, rng,
                             noise_std=0.0):
    """Ascent-direction gradients of the slice `batch` of a tagger._Steps `run`.

    One forward pass of run.model over the run's window ids serves the
    slice.  Then, sentence by sentence, it draws config.samples samples; a
    sample's advantage, its sentence's reward_fns entry of its ids (each
    main task's per-token label ids; each distinct sample is scored once)
    less its baseline_rewards entry, is standardised through `tracker`.  A
    sentence's gradient is the sample mean of advantage * grad log-prob of
    the sampled decisions plus config.entropy_coef * grad entropy of the
    (possibly noise-perturbed) policy; the final token's forced n and c
    decisions are excluded from both.  One backward pass sums the sentences'
    gradients into run.grad_views, none for the parameters named in FROZEN.
    Returns (those views, per-sentence stats with the baseline).
    """
    K = config.samples
    cache = run.model.forward(run.windows[run.rows(batch)], heads=MAIN_TASKS)
    lengths = run.lengths[batch]
    ends = np.cumsum(lengths)
    drawn, per_sample = [], np.zeros((4, len(batch), K))
    rewards, advantages, standardized, entropy = per_sample
    for j, (a, b, reward_fn) in enumerate(zip(ends - lengths, ends, reward_fns)):
        drawn.append(_sample({name: cache["logits"][name][a:b] for name in MAIN_TASKS}, K, rng,
                             noise_std))
        samples = [{name: picks[k] for name, picks in drawn[-1][1].items()} for k in range(K)]
        keys = [b"".join([ids.tobytes() for ids in sample.values()]) for sample in samples]
        scored = {key: reward_fn(sample) for key, sample in dict(zip(keys, samples)).items()}
        rewards[j] = [scored[key] for key in keys]
        advantages[j] = rewards[j] - baseline_rewards[j]
        for k, adv in enumerate(advantages[j].tolist()):
            tracker.update(adv)
            standardized[j, k] = tracker.standardize(adv)
    # each sentence's sample weights, repeated over its tokens: (K, rows, 1)
    weights = np.repeat(standardized.T, lengths, axis=1)[..., None]
    dlogits, entropies = {}, {}
    for name in MAIN_TASKS:
        p = np.concatenate([probs[name] for probs, _ in drawn], axis=-2)
        entropies[name], ent_d = _entropy_terms(p)
        ids = np.concatenate([picks[name] for _, picks in drawn], axis=1)
        d = (weights * ((ids[..., None] == np.arange(p.shape[-1])) - p)
             + config.entropy_coef * ent_d).sum(axis=0)
        if name != "u":
            d[ends - 1] = 0.0
        dlogits[name] = d / K
    for j, (a, b) in enumerate(zip(ends - lengths, ends)):
        for name in MAIN_TASKS:
            entropy[j] += entropies[name][..., a : b - (name != "u")].sum(axis=-1)
    means = per_sample.mean(axis=2).T.tolist()  # one row per sentence
    stats = [dict(zip(("reward", "advantage", "standardized", "entropy"), row), baseline=b)
             for row, b in zip(means, baseline_rewards)]
    return run.model.backward(cache, dlogits, FROZEN, out=run.grad_views), stats


def pg_update(run, batch, gold_spans, baseline_rewards, config, tracker, rng, noise_std=0.0):
    """One fine-tuning step on the slice `batch` of a tagger._Steps `run`:
    the sum of its sentences' gradients at the incoming parameters, added to
    the part of run.params that holds them, so FROZEN and aux heads stay.

    A sample's reward is its F1 against its sentence's `gold_spans` entry
    (the gold tree's labeled_spans), and a sentence's `baseline_rewards`
    entry is the incoming model's greedy F1 on it.  Returns per-sentence
    stats, in slice order.
    """
    rewards = [lambda ids, gold=gold: span_score(gold, spans_from_ids(run.model, ids)).f1
               for gold in gold_spans]
    grads, stats = estimate_policy_gradient(run, batch, rewards, baseline_rewards, config,
                                            tracker, rng, noise_std)
    tuned = slice(min(run.spans[k].start for k in grads), max(run.spans[k].stop for k in grads))
    if not np.isfinite(run.grads[tuned]).all():
        name = next(name for name, g in grads.items() if not np.isfinite(g).all())
        raise RuntimeError("non-finite policy gradient for %r" % name)
    run.grads[tuned] *= config.learning_rate
    run.step(run.grads[tuned], tuned)
    return stats


def adapt_noise(run, batch, config, std, rng):
    """Adapt the noise scale `std` after the slice `batch` of a tagger._Steps `run`.

    Measures the action divergence the noise induces at `std`: the mean
    absolute difference between noisy and clean probability vectors of the
    sampled (main) heads, averaged over sentences and heads of each
    sentence's mean over its tokens and labels.  One forward pass covers
    all sentences, and each head takes one noise draw.  Grows the stddev by
    config.noise_adapt when the divergence falls short of
    config.noise_target, shrinks it otherwise.  Returns (new stddev,
    measured divergence).
    """
    cache = run.model.forward(run.windows[run.rows(batch)], heads=MAIN_TASKS)
    lengths = run.lengths[batch]
    starts = np.cumsum(lengths) - lengths
    diffs = []
    for name in MAIN_TASKS:
        z = cache["logits"][name]
        clean = _softmax(z)
        noisy = _softmax(z + rng.normal(0.0, std, size=z.shape)) if std > 0 else clean
        rows = np.abs(noisy - clean).mean(axis=1)
        diffs.append(np.add.reduceat(rows, starts) / lengths)
    d = float(np.mean(diffs))
    if d < config.noise_target:
        return std * config.noise_adapt, d
    return std / config.noise_adapt, d


def finetune_pg(policy, train, config, dev=None):
    """Fine-tune `policy` in place on the sentences of gold Trees.

    The baseline of every update is the incoming policy's greedy F1 on the
    sentence, scored once for all sentences before the first step.  Per
    epoch the corpus is visited in a seeded shuffled order, in slices of
    NOISE_BATCH sentences, one pg_update each; with config.noise_std above
    0, the noise scale adapts on each slice after its update.  `dev`, if
    given (gold Trees too), is scored after each epoch; neither list may be
    empty.  policy.params become views of the run's flat vector
    (tagger._Steps), so an array taken from them before the call sees no
    update.  Returns (policy, log rows), one row per epoch: epoch, mean
    reward, mean baseline, mean standardized advantage, entropy, dev F1 and
    noise stddev.
    """
    tracker = AdvantageTracker(config.burn_in)
    rng = np.random.default_rng(config.seed)
    std = config.noise_std
    scored = with_gold_spans(train)
    baseline_rewards = [score.f1 for score in _dev_scorer(policy, scored)()]
    dev_scores = _dev_scorer(policy, with_gold_spans(dev)) if dev is not None else None
    run = _Steps(policy, [sentence for sentence, _ in scored])
    order = np.arange(len(train))
    rows = []
    for epoch in range(config.epochs):
        rng.shuffle(order)
        stats_acc = {"reward": [], "baseline": [], "standardized": [], "entropy": []}
        for start in range(0, len(order), NOISE_BATCH):
            batch = order[start : start + NOISE_BATCH]
            for stats in pg_update(run, batch, [scored[i][1] for i in batch],
                                   [baseline_rewards[i] for i in batch], config, tracker, rng, std):
                for key in stats_acc:
                    stats_acc[key].append(stats[key])
            if config.noise_std > 0:
                std, _ = adapt_noise(run, batch, config, std, rng)
        row = {"epoch": epoch}
        row.update((key, float(np.mean(values))) for key, values in stats_acc.items())
        row["dev_f1"] = "" if dev is None else sum(dev_scores(), BracketScore(0, 0, 0)).f1
        row["noise_std"] = std
        rows.append(row)
    return policy, rows

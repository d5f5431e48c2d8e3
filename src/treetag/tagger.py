"""Multi-task sequence tagger.

One shared contextual encoder feeds independent softmax heads: the three
main tasks predict a label's n, c and u parts, and any auxiliary tracks
get their own heads whose losses are down-weighted.  The encoder is a
windowed feedforward layer (word and POS embeddings of the surrounding
tokens, concatenated, through one tanh layer); anything producing a hidden
vector per token could replace it without touching the heads.

Greedy prediction skips the concatenated input: each window slot's block
of the hidden weights is multiplied by every word and POS embedding once
per set of parameters, the hidden bias is added to the first slot's rows,
and every token adds up the rows of its window (the pre-computation of
Chen & Manning, 2014).  A token's hidden layer is then the same in any
batch, and a single sentence costs one gather and one reduce of its
window rows, at any vocabulary size; the table holds
(2r+1)·(|words|+|POS|)·H floats.  Predicted labels are the encoders' own.

`TaggerModel.forward` is the training pass through the network and stops
at the logits: only the loss, the PG sampler and the noise measure take a
softmax, and greedy prediction decodes from the argmax ids of the logits.
Both check the hidden layer for finiteness only once a head's logits fail.

All tensors are float64 numpy arrays and every gradient is written out by
hand, which keeps the whole model checkable against finite differences.
"""

import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .encodings import DUMMY, NO_CHAIN, SCHEMES, EncodedSentence, NComponent
from .encodings import _label, decoded_line, decoded_spans
from .auxtracks import track_names
from .trees import Sentence
from . import metrics

MAIN_TASKS = ("n", "c", "u")

OOV = "<oov>"
BOS = "<bos>"
EOS = "<eos>"

_CHECKPOINT_VERSION = 1

# Tokens per prediction batch: large enough to amortise the per-call
# overhead, small enough to keep peak memory flat.
TOKEN_BUDGET = 256

# Rows up to which predict_logits sums the table rows in one gather and one
# reduce: at H = 128, r = 2, 3 us against 10 for 2 rows, 13 against 20 for
# 17, but its (2(2r+1), rows, H) temporary leaves the cache past about 64.
_SHORT_BATCH = 64


class Vocabularies:
    """Token/POS/label id maps shared between training and inference."""

    def __init__(self, word2id, pos2id, tasks):
        self.word2id = word2id
        self.pos2id = pos2id
        self.tasks = tasks  # task name -> label -> id
        self.task_labels = {
            name: [lab for lab, _ in sorted(table.items(), key=lambda kv: kv[1])]
            for name, table in tasks.items()
        }
        # id -> label part, for building labels from predicted ids
        self.n_components = [NComponent.from_token(tok) for tok in self.task_labels["n"]]
        self.u_chains = ["" if tok == NO_CHAIN else tok for tok in self.task_labels["u"]]

    @classmethod
    def build(cls, corpus):
        """corpus: list of (EncodedSentence, {aux name: track}) pairs."""
        def index(items, reserved):
            table = {tok: i for i, tok in enumerate(reserved)}
            for tok in sorted(set(items) - set(reserved)):
                table[tok] = len(table)
            return table

        sentences = [encoded.sentence for encoded, _ in corpus]
        word2id = index((w for s in sentences for w in s.words), (OOV, BOS, EOS))
        pos2id = index((p for s in sentences for p in s.pos), (OOV, BOS, EOS))
        tasks = {name: index(labels, ()) for name, labels in _task_labels(corpus).items()}
        return cls(word2id, pos2id, tasks)


def _window_rows(sentences, vocab, r):
    """Window ids of `sentences`, one row per token: the word ids of
    positions t-r..t+r (BOS/EOS outside the sentence), then their POS ids,
    read with one fancy index from one padded id list of all sentences."""
    padded = []
    for table, rows in ((vocab.word2id, [s.words for s in sentences]),
                        (vocab.pos2id, [s.pos for s in sentences])):
        bos, eos, oov = [table[BOS]] * r, [table[EOS]] * r, table[OOV]
        for row in rows:
            padded += bos + [table.get(x, oov) for x in row] + eos
    lengths, k = [len(s) for s in sentences], 2 * r + 1
    starts = np.arange(sum(lengths))
    if len(lengths) > 1:  # skip each earlier sentence's padding
        starts += 2 * r * np.repeat(np.arange(len(lengths)), lengths)
    half = len(padded) // 2
    columns = np.array([*range(k), *range(half, half + k)])
    return np.array(padded, dtype=np.int64)[starts[:, None] + columns]


def featurize(sentence, vocab, r):
    """Window id matrices for a sentence.

    Returns (word_windows, pos_windows), both (T, 2r+1) int arrays holding
    the ids of positions t-r..t+r with BOS/EOS ids outside the sentence.
    """
    rows = _window_rows([sentence], vocab, r)
    return rows[:, : 2 * r + 1], rows[:, 2 * r + 1 :]


def _softmax(logits):
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _param_shapes(vocab, config):
    """Shape of every parameter, in initialisation order."""
    H = config.hidden_dim
    shapes = {
        "E_word": (len(vocab.word2id), config.word_dim),
        "E_pos": (len(vocab.pos2id), config.pos_dim),
        "W1": ((2 * config.window + 1) * (config.word_dim + config.pos_dim), H),
        "b1": (H,),
    }
    for name, table in vocab.tasks.items():
        shapes["W_" + name] = (H, len(table))
        shapes["b_" + name] = (len(table),)
    return shapes


class TaggerModel:
    """Shared encoder plus per-task affine heads.

    Reading operations (forward, prediction) are safe to call concurrently;
    the first prediction after each parameter change builds the table
    (float64, (2r+1)·(|words|+|POS|)·H entries), and concurrent first reads
    at worst each build the same one.  Parameter updates must stay
    single-writer and go through `update`, which drops the table, as
    train_mtl's step on its flat parameter vector does too.
    """

    def __init__(self, vocab, config, scheme, rng=None, params=None):
        """Keeps `params` as given if any, else draws them from `rng`
        (default: seeded with config.seed)."""
        self.vocab = vocab
        self.config = config
        self.scheme = scheme
        self.history = []
        if params is None:
            rng = np.random.default_rng(config.seed) if rng is None else rng
            params = {}
            for name, shape in _param_shapes(vocab, config).items():
                if name[0] == "b":
                    params[name] = np.zeros(shape)
                else:  # embeddings uniform in +-0.1, weights Glorot-uniform
                    bound = 0.1 if name[0] == "E" else np.sqrt(6.0 / sum(shape))
                    params[name] = rng.uniform(-bound, bound, size=shape)
        self.params = params
        self._table = None

    @property
    def tasks(self):
        return tuple(self.vocab.tasks.keys())

    def update(self, steps):
        """Add each array of `steps` to the parameter of its name in place,
        and drop the prediction table the old values built."""
        for name, step in steps.items():
            self.params[name] += step
        self._table = None

    def windows(self, sentences):
        """Window ids of `sentences`, stacked one row per token: the word
        ids of the window, then its POS ids."""
        return _window_rows(sentences, self.vocab, self.config.window)

    def _inputs(self, windows):
        """The concatenated window embeddings X, one row per token."""
        P = self.params
        T, W = windows.shape[0], windows.shape[1] // 2
        words, tags = P["E_word"][windows[:, :W]], P["E_pos"][windows[:, W:]]
        return np.concatenate([words.reshape(T, -1), tags.reshape(T, -1)], axis=1)

    def _projection(self):
        """The prediction table, built on first read, and the row offset of
        each window column in it.  Its rows are E_word @ (word slot k's
        block of W1) for each k, b1 added to word slot 0's, then the same
        for E_pos and the POS slots."""
        if self._table is None:
            P = self.params
            W, H = 2 * self.config.window + 1, P["W1"].shape[1]
            sizes = [len(P["E_word"])] * W + [len(P["E_pos"])] * W
            table = np.empty((sum(sizes), H))
            split, words = W * self.config.word_dim, W * len(P["E_word"])
            for E, block, part in ((P["E_word"], P["W1"][:split], table[:words]),
                                   (P["E_pos"], P["W1"][split:], table[words:])):
                np.matmul(E, block.reshape(W, -1, H), out=part.reshape(W, len(E), H))
            table[: len(P["E_word"])] += P["b1"]
            self._table = table, np.cumsum([0] + sizes[:-1])
        return self._table

    def predict_logits(self, windows):
        """The main heads' logits of stacked windows for greedy prediction,
        from pre-activations summed as the table rows of the window, word
        slots first."""
        (table, offsets), T = self._projection(), len(windows)
        # BLAS sums a one-row product, and numpy a one-row reduce, in
        # another order than a matrix one
        rows = (windows.repeat(1 + (T == 1), axis=0) + offsets).T
        if rows.shape[1] <= _SHORT_BATCH:  # the adds of the loop below, in order
            pre = np.add.reduce(table.take(rows, axis=0), axis=0)
        else:
            pre = table.take(rows[0], axis=0)
            for r in rows[1:]:
                pre += table.take(r, axis=0)
        return {name: z[:T] for name, z in self._activate(pre, MAIN_TASKS)["logits"].items()}

    def _activate(self, pre, heads, dropout_rng=None):
        """tanh of the pre-activation `pre` (in place), inverted dropout with
        `dropout_rng` (one draw over all rows), then the logits of `heads`:
        the cache entries h_raw, h, mask and logits.  A NaN hidden unit
        reaches every logit of its row, so h_raw is checked only then."""
        P = self.params
        h_raw = np.tanh(pre, out=pre)
        mask = None
        h = h_raw
        if dropout_rng is not None and self.config.dropout > 0:
            keep = 1.0 - self.config.dropout
            mask = (dropout_rng.random(h_raw.shape) < keep) / keep
            h = h_raw * mask
        logits = {}
        for name in heads:
            z = h @ P["W_" + name]
            z += P["b_" + name]
            if not np.isfinite(z).all():
                if not np.isfinite(h_raw).all():
                    raise RuntimeError("non-finite hidden activations: check W1/b1/embeddings")
                raise RuntimeError("non-finite logits in head %r" % name)
            logits[name] = z
        return {"h_raw": h_raw, "h": h, "mask": mask, "logits": logits}

    def forward(self, windows, heads=None, dropout_rng=None):
        """Logits of stacked windows for the tasks in `heads` (default: all),
        in a cache for backward(); `dropout_rng` as in _activate."""
        X = self._inputs(windows)
        cache = self._activate(X @ self.params["W1"] + self.params["b1"],
                               self.tasks if heads is None else heads, dropout_rng)
        cache.update(windows=windows, X=X)
        return cache

    def backward(self, cache, dlogits, frozen=(), out=None):
        """Propagate per-head logit gradients back to the parameters.

        dlogits maps task name -> (T, k) array.  Returns a gradient dict
        keyed like self.params, without the heads missing from dlogits and
        without the parameters named in `frozen`, which are never computed.
        Each gradient is a fresh array, unless `out` (arrays keyed and
        shaped like self.params) is given: then each is written into its
        array of `out`, which is returned, and the others stay unwritten.
        """
        P = self.params
        h = cache["h"]
        grads = {}
        into = {} if out is None else {k: v for k, v in out.items() if k not in frozen}
        dh = np.zeros_like(h)
        for name, dz in dlogits.items():
            grads["W_" + name] = np.matmul(h.T, dz, out=into.get("W_" + name))
            grads["b_" + name] = dz.sum(axis=0, out=into.get("b_" + name))
            dh += dz @ P["W_" + name].T
        if cache["mask"] is not None:
            dh *= cache["mask"]
        dpre = dh * (1.0 - cache["h_raw"] ** 2)
        grads["W1"] = np.matmul(cache["X"].T, dpre, out=into.get("W1"))
        grads["b1"] = dpre.sum(axis=0, out=into.get("b1"))
        if "E_word" not in frozen or "E_pos" not in frozen:
            windows = cache["windows"]
            W = windows.shape[1] // 2
            dX = dpre @ P["W1"].T
            split = W * self.config.word_dim
            for name, win, dx in (
                ("E_word", windows[:, :W], dX[:, :split]),
                ("E_pos", windows[:, W:], dX[:, split:]),
            ):
                if name not in frozen:
                    # bincount adds in input order, giving a row-wise np.add.at's
                    # bits; keep it one call, as chunk sums would re-associate
                    V, D = P[name].shape
                    flat = (win[:, :, None] * D + np.arange(D)).ravel()
                    grads[name] = np.bincount(flat, dx.ravel(), V * D).reshape(V, D)
                    if name in into:  # bincount takes no out
                        into[name][...] = grads[name]
                        grads[name] = into[name]
        return {k: g for k, g in grads.items() if k not in frozen}


@dataclass
class TrainConfig:
    learning_rate: float = 0.2
    momentum: float = 0.9
    decay: float = 0.05          # lr_e = lr / (1 + decay * epoch)
    epochs: int = 100
    batch_size: int = 8
    aux_weight: float = 0.1      # weight of auxiliary-task losses
    window: int = 2              # context radius r
    dropout: float = 0.5
    seed: int = 13
    word_dim: int = 100
    pos_dim: int = 20
    hidden_dim: int = 128

    def __post_init__(self):
        if not self.learning_rate >= 0:
            raise ValueError("learning_rate must be >= 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if not self.decay >= 0:
            raise ValueError("decay must be >= 0")
        if not self.epochs >= 1:
            raise ValueError("need at least one epoch")
        if not self.aux_weight >= 0:
            raise ValueError("aux_weight must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must be in [0, 1)")
        if min(self.word_dim, self.pos_dim, self.hidden_dim) < 1:
            raise ValueError("word_dim, pos_dim and hidden_dim must be >= 1")
        if not self.seed >= 0:
            raise ValueError("seed must be >= 0")
        for name in ("learning_rate", "decay", "aux_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)


def _task_labels(corpus):
    """Each task's labels over the stacked tokens of a corpus of
    (EncodedSentence, {aux name: track}) pairs: the main tasks, then the
    aux tracks.  The corpus must keep auxtracks.track_names' rule."""
    parts = zip(*(lab.parts() for encoded, _ in corpus for lab in encoded.labels))
    labels = dict(zip(MAIN_TASKS, parts))
    for name in track_names(corpus):
        labels[name] = [v for _, aux in corpus for v in aux[name]]
    return labels


def _gold_ids(vocab, corpus):
    """Gold label ids per task over the stacked tokens of a corpus."""
    return {name: np.array([vocab.tasks[name][tok] for tok in labels], dtype=np.int64)
            for name, labels in _task_labels(corpus).items()}


def task_losses(cache, gold):
    """Cross-entropy (summed over tokens) and its logit gradient per task."""
    losses = {}
    dlogits = {}
    rows = np.arange(len(cache["h"]))
    for name, ids in gold.items():
        d = _softmax(cache["logits"][name])
        losses[name] = float(-np.log(d[rows, ids]).sum())
        d[rows, ids] -= 1.0
        dlogits[name] = d
    return losses, dlogits


def _chunks(lengths):
    """Consecutive (start, stop) index runs whose lengths sum to at most
    TOKEN_BUDGET; a longer item forms a run of its own."""
    start = tokens = 0
    for i, n in enumerate(lengths):
        if tokens and tokens + n > TOKEN_BUDGET:
            yield start, i
            start, tokens = i, 0
        tokens += n
    if tokens:
        yield start, len(lengths)


def _flat_views(flat, like):
    """Arrays keyed and shaped like `like`, as consecutive views of the 1-D array `flat`."""
    parts = np.split(flat, np.cumsum([a.size for a in like.values()])[:-1])
    return {name: part.reshape(a.shape) for (name, a), part in zip(like.items(), parts)}


def train_mtl(corpus, config, dev=None):
    """Train a tagger on (EncodedSentence, aux dict) pairs.

    Mini-batch SGD with momentum on the summed cross-entropy of all heads
    (auxiliary heads weighted by config.aux_weight), normalised per token,
    with the learning rate decayed linearly in the epoch count.  Each
    mini-batch is one forward and one backward over the stacked tokens of
    its sentences, and one update of one flat vector each of parameters,
    velocity and gradients.  When `dev` (a non-empty list of pairs in the
    corpus form, its aux tracks ignored) is given, each epoch's greedy
    predictions on its sentences are scored against the spans its labels
    decode to, and the parameters with the best dev bracketing F1 are
    returned.
    """
    vocab = Vocabularies.build(corpus)
    scheme = corpus[0][0].scheme
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    model = TaggerModel(vocab, config, scheme, rng=np.random.default_rng(seeds[0]))
    shuffle_rng = np.random.default_rng(seeds[1])
    dropout_rng = np.random.default_rng(seeds[2])

    windows = model.windows([encoded.sentence for encoded, _ in corpus])
    if dev is not None:
        if not dev:
            raise ValueError("no gold trees to score against")
        dev_f1 = _dev_scorer(model, [
            (e.sentence, decoded_spans(*zip(*((lab.n, lab.c, lab.u) for lab in e.labels))))
            for e, _ in dev])
    gold = _gold_ids(vocab, corpus)
    token_rows = np.split(np.arange(len(windows)), np.cumsum([len(e) for e, _ in corpus[:-1]]))
    params = np.concatenate([p.ravel() for p in model.params.values()])
    velocity, grads = np.zeros_like(params), np.empty_like(params)
    model.params, grad_views = _flat_views(params, model.params), _flat_views(grads, model.params)
    best_f1, best_params = -1.0, None
    order = np.arange(len(corpus))

    for epoch in range(config.epochs):
        lr = config.learning_rate / (1.0 + config.decay * epoch)
        shuffle_rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            rows = np.concatenate([token_rows[i] for i in order[start : start + config.batch_size]])
            cache = model.forward(windows[rows], dropout_rng=dropout_rng)
            losses, dlogits = task_losses(cache, {name: ids[rows] for name, ids in gold.items()})
            for name in dlogits:
                w = 1.0 if name in MAIN_TASKS else config.aux_weight
                dlogits[name] *= w / len(rows)
                epoch_loss += w * losses[name]
            model.backward(cache, dlogits, out=grad_views)
            velocity *= config.momentum
            grads *= lr
            velocity -= grads
            params += velocity
            model._table = None  # as update does
            del cache, dlogits  # free this batch's activations before the next forward
        mean_loss = epoch_loss / len(windows)
        if not np.isfinite(mean_loss):
            raise RuntimeError("training diverged at epoch %d (loss=%r)" % (epoch, mean_loss))
        record = {"epoch": epoch, "loss": mean_loss, "lr": lr}
        if dev is not None:
            record["dev_f1"] = f1 = dev_f1()
            if f1 > best_f1:
                best_f1, best_params = f1, params.copy()
        model.history.append(record)

    if best_params is not None:
        params[...] = best_params
        model._table = None  # the last epoch's
    return model


def _dev_scorer(model, dev):
    """A function of no arguments giving the corpus bracketing F1 of
    `model`'s greedy trees on (Sentence, gold spans) pairs at its current
    parameters.  The window ids are built once, in _predict_ids' chunks, so
    every logit has the bits it has there; a sentence is decoded and scored
    again only when its predicted ids differ from the last call's."""
    lengths = [len(sentence) for sentence, _ in dev]
    chunks = [model.windows([s for s, _ in dev[a:b]]) for a, b in _chunks(lengths)]
    starts = np.cumsum(lengths) - lengths
    last, scores = np.full((len(MAIN_TASKS), sum(lengths)), -1), [None] * len(dev)

    def f1():
        logits = [model.predict_logits(windows) for windows in chunks]
        ids = np.array([np.concatenate([z[n].argmax(axis=1) for z in logits]) for n in MAIN_TASKS])
        for k in np.flatnonzero(np.logical_or.reduceat((ids != last).any(axis=0), starts)):
            sentence_ids = dict(zip(MAIN_TASKS, ids[:, starts[k] : starts[k] + lengths[k]]))
            scores[k] = metrics.span_score(dev[k][1], spans_from_ids(model, sentence_ids))
        last[...] = ids
        return sum(scores, metrics.BracketScore(0, 0, 0)).f1
    return f1


def with_gold_spans(trees):
    """The (Sentence, labeled spans) pair of each gold tree, taken once
    however often it is scored; no trees (F1 0 or NaN) is a ValueError."""
    if not trees:
        raise ValueError("no gold trees to score against")
    return [(Sentence.from_tree(tree), metrics.labeled_spans(tree)) for tree in trees]


def greedy_scores(model, pairs):
    """BracketScore of each greedy prediction on (Sentence, gold spans)
    pairs, scored from the predicted ids' spans without building a tree."""
    return [metrics.span_score(gold, spans_from_ids(model, ids))
            for ids, (_, gold) in zip(_predict_ids(model, [s for s, _ in pairs]), pairs)]


def _label_parts(vocab, ids):
    """The n components, c labels and u chains named by per-token (n, c, u)
    label ids, read through the vocabulary tables."""
    return ([vocab.n_components[n] for n in ids["n"].tolist()],
            [vocab.task_labels["c"][c] for c in ids["c"].tolist()],
            [vocab.u_chains[u] for u in ids["u"].tolist()])


def encoded_from_ids(model, sentence, ids):
    """EncodedSentence from per-token (n, c, u) label ids; the last
    token's n and c are forced to the dummy so the output always decodes
    (interior dummies are legal input to decode() and kept as-is).  Labels
    come from, and so enter, the process-wide _label table (at most n x c x u)."""
    ns, cs, us = _label_parts(model.vocab, ids)
    labels = [_label(n.scale, n.value, c, u) for n, c, u in zip(ns[:-1], cs, us)]
    labels.append(_label("dummy", None, DUMMY, us[-1]))
    return EncodedSentence(sentence, labels, model.scheme)


def spans_from_ids(model, ids):
    """labeled_spans(decode(encoded_from_ids(model, sentence, ids))), read
    through the vocabulary tables without building either."""
    return decoded_spans(*_label_parts(model.vocab, ids))


def predict_greedy(model, sentence):
    """Argmax labels per token and task; the last token's n and c are
    forced to the dummy so the output always decodes."""
    return encoded_from_ids(model, sentence, next(_predict_ids(model, [sentence])))


def predicted_lines(model, sentences):
    """(serialize(tree), RepairLog) of decode_with_repairs(predict_greedy(model, s))
    for each sentence, in input order, written by decoded_line from the label ids."""
    ids = _predict_ids(model, sentences)
    return [decoded_line(s, *_label_parts(model.vocab, i)) for s, i in zip(sentences, ids)]


def _predict_ids(model, sentences):
    """Greedy per-task label ids of each sentence, in input order: the
    argmax of each main head's logits, one predict_logits per batch of at
    most TOKEN_BUDGET tokens (a longer sentence runs alone)."""
    for start, stop in _chunks([len(s) for s in sentences]):
        chunk = sentences[start:stop]
        logits = model.predict_logits(model.windows(chunk))
        ids = {name: z.argmax(axis=1) for name, z in logits.items()}
        end = 0
        for sentence in chunk:
            first, end = end, end + len(sentence)
            yield {k: v[first:end] for k, v in ids.items()}


# ---------------------------------------------------------------------------
# Checkpointing.

def save_model(path, model):
    """Write a versioned .npz checkpoint (parameters + vocab + config)."""
    names = sorted(model.params.keys())
    meta = {
        "version": _CHECKPOINT_VERSION,
        "scheme": model.scheme,
        "param_names": names,
        "word2id": model.vocab.word2id,
        "pos2id": model.vocab.pos2id,
        "tasks": model.vocab.tasks,
        "config": dict(model.config.__dict__),
    }
    arrays = {"param_%d" % i: model.params[name] for i, name in enumerate(names)}
    np.savez(path, meta=np.array(json.dumps(meta)), **arrays)


def load_model(path):
    try:
        # np.load(path) leaks its own handle when the file is no zip archive
        with open(path, "rb") as fh, np.load(fh) as data:
            meta = json.loads(str(data["meta"]))
            if meta["version"] != _CHECKPOINT_VERSION:
                raise ValueError("unsupported checkpoint version %r" % meta["version"])
            params = {
                name: data["param_%d" % i] for i, name in enumerate(meta["param_names"])
            }
        vocab = Vocabularies(meta["word2id"], meta["pos2id"], meta["tasks"])
        settings = dict(meta["config"])
        # written by older versions, where it only re-capped training labels
        settings.pop("distance_cap", None)
        config = TrainConfig(**settings)
        shapes = _param_shapes(vocab, config)
        if set(params) != set(shapes):
            raise ValueError(
                "parameters %s do not match the heads of tasks %s"
                % (sorted(params), sorted(vocab.tasks))
            )
        for name, shape in shapes.items():
            if params[name].shape != shape:
                raise ValueError(
                    "parameter %s has shape %s, expected %s" % (name, params[name].shape, shape)
                )
            if not np.isfinite(params[name]).all():
                raise ValueError("parameter %s has non-finite values" % name)
        scheme = meta["scheme"]
        if scheme not in SCHEMES:
            raise ValueError("unknown scheme %r" % scheme)
    except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as e:
        raise ValueError("%s: not a readable checkpoint: %s" % (path, e)) from e
    return TaggerModel(vocab, config, scheme, params=params)

"""Multi-task sequence tagger.

One shared contextual encoder feeds independent softmax heads: the three
main tasks predict a label's n, c and u parts, and any auxiliary tracks
get their own heads whose losses are down-weighted.  The encoder is a
windowed feedforward layer (word and POS embeddings of the surrounding
tokens, concatenated, through one tanh layer); anything producing a hidden
vector per token could replace it without touching the heads.

A batch with few distinct words and tags, such as a prediction chunk of
many sentences, skips the concatenated input: each distinct embedding is
multiplied by each window slot's block of the hidden weights once, and
every token sums the rows of its window (Chen & Manning, 2014).  The
batch's own size and distinct-id counts pick this path or the direct
product, so single sentences keep the direct one.

Greedy prediction computes each main head's logits and their argmax, not
the softmax training needs, and `predict_trees` decodes from label ids.

All tensors are float64 numpy arrays and every gradient is written out by
hand, which keeps the whole model checkable against finite differences.
"""

import copy
import json
import zipfile
from dataclasses import dataclass

import numpy as np

from .encodings import DYNAMIC, NO_CHAIN, EncodedSentence, NComponent, TagLabel
from .encodings import decode_parts, decoded_spans
from . import metrics

MAIN_TASKS = ("n", "c", "u")

OOV = "<oov>"
BOS = "<bos>"
EOS = "<eos>"

_CHECKPOINT_VERSION = 1

# Tokens per prediction batch: large enough to amortise the per-call
# overhead, small enough to keep peak memory flat.
TOKEN_BUDGET = 256

# The hidden layer projects distinct ids (see TaggerModel._pre_activation)
# when their embedding rows are at most this share of the batch's input,
# in a batch of at least this many rows: below it, counting the ids costs
# a single sentence more than projecting could save.
PROJECT_SHARE = 0.25
PROJECT_MIN_ROWS = 64


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
        """corpus: list of (Sentence, EncodedSentence, {aux name: track})."""
        words, pos = set(), set()
        labels = {name: set() for name in MAIN_TASKS}
        aux_names = sorted(corpus[0][2].keys()) if corpus else []
        for name in aux_names:
            labels[name] = set()
        for sentence, encoded, aux in corpus:
            words.update(sentence.words)
            pos.update(sentence.pos)
            for lab in encoded.labels:
                for name, part in zip(MAIN_TASKS, lab.parts()):
                    labels[name].add(part)
            if sorted(aux.keys()) != aux_names:
                raise ValueError("inconsistent auxiliary tracks across corpus")
            for name in aux_names:
                labels[name].update(aux[name])

        def index(items, reserved):
            table = {tok: i for i, tok in enumerate(reserved)}
            for tok in sorted(items - set(reserved)):
                table[tok] = len(table)
            return table

        word2id = index(words, (OOV, BOS, EOS))
        pos2id = index(pos, (OOV, BOS, EOS))
        tasks = {name: index(vals, ()) for name, vals in labels.items()}
        return cls(word2id, pos2id, tasks)

    @property
    def aux_tasks(self):
        return tuple(name for name in self.tasks if name not in MAIN_TASKS)

    def label_ids(self, task, tokens):
        table = self.tasks[task]
        return np.array([table[tok] for tok in tokens], dtype=np.int64)


def _window_rows(sentences, vocab, r):
    """Window ids of `sentences`, one row per token: the word ids of
    positions t-r..t+r (BOS/EOS outside the sentence), then their POS ids,
    read with one fancy index from one padded id list of all sentences."""
    lengths = [len(s) for s in sentences]
    padded = []
    for table, rows in ((vocab.word2id, [s.words for s in sentences]),
                        (vocab.pos2id, [s.pos for s in sentences])):
        bos, eos, oov = [table[BOS]] * r, [table[EOS]] * r, table[OOV]
        for row in rows:
            padded += bos + [table.get(x, oov) for x in row] + eos
    starts = np.arange(sum(lengths)) + 2 * r * np.repeat(np.arange(len(lengths)), lengths)
    span = np.arange(2 * r + 1)
    index = starts[:, None] + np.concatenate([span, span + len(padded) // 2])
    return np.array(padded, dtype=np.int64)[index]


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

    Reading operations (forward, predict) are safe to call concurrently;
    parameter updates must stay single-writer.
    """

    def __init__(self, vocab, config, scheme, rng=None):
        self.vocab = vocab
        self.config = config
        self.scheme = scheme
        self.history = []
        if rng is None:
            rng = np.random.default_rng(config.seed)
        self.params = {}
        for name, shape in _param_shapes(vocab, config).items():
            if name[0] == "b":
                self.params[name] = np.zeros(shape)
            else:  # embeddings uniform in +-0.1, weights Glorot-uniform
                bound = 0.1 if name[0] == "E" else np.sqrt(6.0 / sum(shape))
                self.params[name] = rng.uniform(-bound, bound, size=shape)

    @property
    def tasks(self):
        return tuple(self.vocab.tasks.keys())

    def clone(self):
        other = copy.copy(self)
        other.params = {k: v.copy() for k, v in self.params.items()}
        other.history = list(self.history)
        return other

    def windows(self, sentences):
        """Window ids of `sentences`, stacked one row per token: the word
        ids of the window, then its POS ids."""
        return _window_rows(sentences, self.vocab, self.config.window)

    def _inputs(self, windows):
        """The concatenated window embeddings X, one row per token."""
        P = self.params
        T, W = windows.shape[0], windows.shape[1] // 2
        return np.concatenate(
            [P["E_word"][windows[:, :W]].reshape(T, -1), P["E_pos"][windows[:, W:]].reshape(T, -1)],
            axis=1,
        )

    def _pre_activation(self, windows):
        """The hidden layer's input X @ W1 + b1, and X (None if not built).

        A batch of at least PROJECT_MIN_ROWS rows whose distinct ids,
        weighted by their embedding widths, come to at most PROJECT_SHARE
        of its input rows never builds X: each distinct embedding is
        multiplied by each window slot's block of W1 once, and every token
        adds up the products of its window.  Single sentences take the
        direct product without counting.
        """
        P = self.params
        T, W = windows.shape[0], windows.shape[1] // 2
        if T >= PROJECT_MIN_ROWS:
            split = W * self.config.word_dim
            budget = PROJECT_SHARE * T * (self.config.word_dim + self.config.pos_dim)
            tables = []
            for E, ids, block in (
                (P["E_word"], windows[:, :W], P["W1"][:split]),
                (P["E_pos"], windows[:, W:], P["W1"][split:]),
            ):
                seen = np.zeros(len(E), dtype=bool)
                seen[ids] = True
                budget -= np.count_nonzero(seen) * E.shape[1]
                if budget < 0:
                    break
                tables.append((E, ids, block, np.flatnonzero(seen)))
            else:
                pre = np.tile(P["b1"], (T, 1))
                for E, ids, block, distinct in tables:
                    # products[k, i] = E[distinct[i]] @ (slot k's block of W1)
                    products = E[distinct] @ block.reshape(W, E.shape[1], -1)
                    row = np.empty(len(E), dtype=np.intp)
                    row[distinct] = np.arange(len(distinct))
                    rows = row[ids]
                    for k in range(W):
                        pre += products[k][rows[:, k]]
                return pre, None
        X = self._inputs(windows)
        return X @ P["W1"] + P["b1"], X

    def _hidden(self, windows):
        """The hidden layer tanh(X @ W1 + b1), and X (None if not built)."""
        pre, X = self._pre_activation(windows)
        h = np.tanh(pre, out=pre)
        if not np.isfinite(h).all():
            raise RuntimeError("non-finite hidden activations: check W1/b1/embeddings")
        return h, X

    def forward(self, windows, heads=None, dropout_rng=None):
        """Run the network on stacked windows (or one Sentence); returns a
        cache used for backward().

        Only the tasks in `heads` (default: all) get logits and
        probabilities.  With `dropout_rng`, inverted dropout is applied to
        the hidden layer, one draw over all rows.
        """
        if not isinstance(windows, np.ndarray):
            windows = self.windows([windows])
        P = self.params
        h_raw, X = self._hidden(windows)
        mask = None
        h = h_raw
        if dropout_rng is not None and self.config.dropout > 0:
            keep = 1.0 - self.config.dropout
            mask = (dropout_rng.random(h_raw.shape) < keep) / keep
            h = h_raw * mask
        logits = {}
        probs = {}
        for name in self.tasks if heads is None else heads:
            z = h @ P["W_" + name] + P["b_" + name]
            if not np.isfinite(z).all():
                raise RuntimeError("non-finite logits in head %r" % name)
            logits[name] = z
            probs[name] = _softmax(z)
        return {
            "windows": windows,
            "X": X,
            "h_raw": h_raw,
            "h": h,
            "mask": mask,
            "logits": logits,
            "probs": probs,
        }

    def backward(self, cache, dlogits, frozen=()):
        """Propagate per-head logit gradients back to the parameters.

        dlogits maps task name -> (T, k) array.  Returns a gradient dict
        keyed like self.params, without the heads missing from dlogits and
        without the parameters named in `frozen`, which are never computed.
        """
        P = self.params
        h = cache["h"]
        grads = {}
        dh = np.zeros_like(h)
        for name, dz in dlogits.items():
            grads["W_" + name] = h.T @ dz
            grads["b_" + name] = dz.sum(axis=0)
            dh += dz @ P["W_" + name].T
        if cache["mask"] is not None:
            dh *= cache["mask"]
        dpre = dh * (1.0 - cache["h_raw"] ** 2)
        X = cache["X"] if cache["X"] is not None else self._inputs(cache["windows"])
        grads["W1"] = X.T @ dpre
        grads["b1"] = dpre.sum(axis=0)
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
                    # one scatter over flat (id, column) indices, in row order
                    D = P[name].shape[1]
                    flat = (win[..., None] * D + np.arange(D)).ravel()
                    g = np.zeros_like(P[name])
                    np.add.at(g.reshape(-1), flat, dx.ravel())
                    grads[name] = g
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
        if self.aux_weight < 0:
            raise ValueError("aux_weight must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must be in [0, 1)")
        if min(self.word_dim, self.pos_dim, self.hidden_dim) < 1:
            raise ValueError("word_dim, pos_dim and hidden_dim must be >= 1")


def _gold_ids(vocab, corpus):
    """Gold label ids per task over the stacked tokens of a corpus."""
    parts = zip(*(lab.parts() for _, encoded, _ in corpus for lab in encoded.labels))
    gold = {name: vocab.label_ids(name, tokens) for name, tokens in zip(MAIN_TASKS, parts)}
    for name in vocab.aux_tasks:
        gold[name] = vocab.label_ids(name, [v for _, _, aux in corpus for v in aux[name]])
    return gold


def task_losses(cache, gold):
    """Cross-entropy (summed over tokens) and its logit gradient per task."""
    losses = {}
    dlogits = {}
    T = cache["h"].shape[0]
    rows = np.arange(T)
    for name, ids in gold.items():
        p = cache["probs"][name]
        losses[name] = float(-np.log(p[rows, ids]).sum())
        d = p.copy()
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


def mtl_loss(model, corpus, beta=None):
    """Mean per-token loss over a corpus, split into components.

    Returns (total, components) where components maps each task to its
    per-token mean cross-entropy and total equals
    components[n] + components[c] + components[u] + beta * sum(aux).
    """
    if beta is None:
        beta = model.config.aux_weight
    sums = {name: 0.0 for name in model.tasks}
    tokens = 0
    for start, stop in _chunks([len(s) for s, _, _ in corpus]):
        part = corpus[start:stop]
        cache = model.forward(model.windows([s for s, _, _ in part]))
        losses, _ = task_losses(cache, _gold_ids(model.vocab, part))
        for name, value in losses.items():
            sums[name] += value
        tokens += len(cache["h"])
    components = {name: value / tokens for name, value in sums.items()}
    total = sum(components[name] for name in MAIN_TASKS)
    total += beta * sum(components[name] for name in model.vocab.aux_tasks)
    return total, components


def train_mtl(corpus, config, dev=None):
    """Train a tagger on (Sentence, EncodedSentence, aux dict) triples.

    Mini-batch SGD with momentum on the summed cross-entropy of all heads
    (auxiliary heads weighted by config.aux_weight), normalised per token,
    with the learning rate decayed linearly in the epoch count.  Each
    mini-batch is one forward and one backward over the stacked tokens of
    its sentences.  When `dev` (a list of (Sentence, gold Tree) pairs) is
    given, each epoch's greedy predictions are decoded and scored, and the
    parameters with the best dev bracketing F1 are returned.
    """
    if not corpus:
        raise ValueError("empty training corpus")
    vocab = Vocabularies.build(corpus)
    scheme = corpus[0][1].scheme
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    model = TaggerModel(vocab, config, scheme, rng=np.random.default_rng(seeds[0]))
    shuffle_rng = np.random.default_rng(seeds[1])
    dropout_rng = np.random.default_rng(seeds[2])

    windows = model.windows([sentence for sentence, _, _ in corpus])
    if dev is not None:
        dev = with_gold_spans(dev)
    gold = _gold_ids(vocab, corpus)
    ends = np.cumsum([len(sentence) for sentence, _, _ in corpus])
    beta = config.aux_weight
    velocity = {k: np.zeros_like(v) for k, v in model.params.items()}
    best_f1 = -1.0
    best_params = None
    order = np.arange(len(corpus))

    for epoch in range(config.epochs):
        lr = config.learning_rate / (1.0 + config.decay * epoch)
        shuffle_rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            rows = np.concatenate([
                np.arange(ends[i] - len(corpus[i][0]), ends[i])
                for i in order[start : start + config.batch_size]
            ])
            cache = model.forward(windows[rows], dropout_rng=dropout_rng)
            losses, dlogits = task_losses(cache, {name: ids[rows] for name, ids in gold.items()})
            for name in dlogits:
                w = 1.0 if name in MAIN_TASKS else beta
                dlogits[name] *= w / len(rows)
                epoch_loss += w * losses[name]
            for k, g in model.backward(cache, dlogits).items():
                v = velocity[k]
                v *= config.momentum
                g *= lr
                v -= g
                model.params[k] += v
            del cache, dlogits  # free this batch's activations before the next forward
        mean_loss = epoch_loss / len(windows)
        if not np.isfinite(mean_loss):
            raise RuntimeError("training diverged at epoch %d (loss=%r)" % (epoch, mean_loss))
        record = {"epoch": epoch, "loss": mean_loss, "lr": lr}
        if dev is not None:
            f1 = _dev_f1(model, dev)
            record["dev_f1"] = f1
            if f1 > best_f1:
                best_f1 = f1
                best_params = {k: v.copy() for k, v in model.params.items()}
        model.history.append(record)

    if best_params is not None:
        model.params = best_params
    return model


def with_gold_spans(pairs):
    """(Sentence, gold Tree) pairs as (Sentence, gold labeled spans) pairs,
    so each gold tree is walked once however often it is scored."""
    return [(sentence, metrics.labeled_spans(tree)) for sentence, tree in pairs]


def greedy_scores(model, pairs):
    """BracketScore of each greedy prediction on (Sentence, gold spans)
    pairs, scored from the predicted ids' spans without building a tree."""
    ids = _predict_ids(model, [sentence for sentence, _ in pairs])
    return [metrics.span_score(gold, spans_from_ids(model, i)) for i, (_, gold) in zip(ids, pairs)]


def _dev_f1(model, dev):
    """Corpus bracketing F1 of greedy trees on (Sentence, gold spans) pairs."""
    return sum(greedy_scores(model, dev), metrics.BracketScore(0, 0, 0)).f1


def _label_parts(vocab, ids):
    """The n components, c labels and u chains named by per-token (n, c, u)
    label ids, read through the vocabulary tables."""
    return ([vocab.n_components[n] for n in ids["n"].tolist()],
            [vocab.task_labels["c"][c] for c in ids["c"].tolist()],
            [vocab.u_chains[u] for u in ids["u"].tolist()])


def encoded_from_ids(model, sentence, ids):
    """EncodedSentence from per-token (n, c, u) label ids; the last
    token's n and c are forced to the dummy so the output always decodes
    (interior dummies are legal input to decode() and kept as-is)."""
    ns, cs, us = _label_parts(model.vocab, ids)
    labels = [TagLabel(n, c, u) for n, c, u in zip(ns[:-1], cs[:-1], us[:-1])]
    labels.append(TagLabel.dummy(us[-1]))
    return EncodedSentence(sentence, labels, model.scheme if model.scheme else DYNAMIC)


def spans_from_ids(model, ids):
    """labeled_spans(decode(encoded_from_ids(model, sentence, ids))), read
    through the vocabulary tables without building either."""
    return decoded_spans(*_label_parts(model.vocab, ids))


def predict_greedy(model, sentence):
    """Argmax labels per token and task; the last token's n and c are
    forced to the dummy so the output always decodes."""
    return encoded_from_ids(model, sentence, next(_predict_ids(model, [sentence])))


def predict_trees(model, sentences):
    """decode(predict_greedy(model, s)) for each sentence, in input order,
    decoded straight from the label ids without building labels."""
    ids = _predict_ids(model, sentences)
    return [decode_parts(s, *_label_parts(model.vocab, i))[0] for s, i in zip(sentences, ids)]


def _predict_ids(model, sentences):
    """Greedy per-task label ids of each sentence, in input order, from
    batches of at most TOKEN_BUDGET tokens (a longer sentence runs alone).
    The argmax of a head's logits is that of its softmax, which is skipped."""
    for start, stop in _chunks([len(s) for s in sentences]):
        chunk = sentences[start:stop]
        h, _ = model._hidden(model.windows(chunk))
        ids = {}
        for name in MAIN_TASKS:
            z = h @ model.params["W_" + name]
            z += model.params["b_" + name]
            if not np.isfinite(z).all():
                raise RuntimeError("non-finite logits in head %r" % name)
            ids[name] = z.argmax(axis=1)
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
    except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as e:
        raise ValueError("%s: not a readable checkpoint: %s" % (path, e)) from e
    model = TaggerModel.__new__(TaggerModel)
    model.vocab = vocab
    model.config = config
    model.scheme = scheme
    model.params = params
    model.history = []
    return model

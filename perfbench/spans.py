"""Spans recorded from outside the program, around calls into each layer.

`Tracer.install()` replaces every layer function named in `LAYER_CALLS`
with a timing wrapper, in every namespace that holds a reference to it
(``treetag.pg.decode`` is the same function as ``treetag.decode`` and
``treetag.encodings.decode``, so all three are patched), and
`Tracer.uninstall()` puts the originals back.  Spans stay in memory until
`write()`.  A span is ``[name, start, end, parent index, root id, items]``;
a call with no traced caller starts a new root, so the spans of one
subcommand share its id.  ``items`` is what the call worked on (trees,
sentences, tokens) or, for the decoder, its repair log.
"""

import functools
import gzip
import json
import sys
import time


def _first_len(args, result):
    return len(args[0])


def _second_len(args, result):
    return len(args[1])


def _result_len(args, result):
    return len(result)


def _read_seq_len(args, result):
    return len(result[0])


def _backward_tokens(args, result):
    return args[1]["h"].shape[0]


def _repair_log(args, result):
    return result[1]


def _subcommand(args, result):
    return args[0][0]


# (module, attribute, items-of-call).  Methods are written "Class.method".
LAYER_CALLS = (
    ("treetag.trees", "parse_bracketed", None),
    ("treetag.trees", "serialize", None),
    ("treetag.trees", "random_tree", None),
    ("treetag.trees", "sample_corpus", _result_len),
    ("treetag.encodings", "encode_relative", None),
    ("treetag.encodings", "encode_absolute", None),
    ("treetag.encodings", "encode_dynamic", None),
    ("treetag.encodings", "decode", None),
    ("treetag.encodings", "decode_with_repairs", _repair_log),
    ("treetag.auxtracks", "syntactic_distances", None),
    ("treetag.auxtracks", "shifted_n", None),
    ("treetag.seqfile", "write_seq", _second_len),
    ("treetag.seqfile", "read_seq", _read_seq_len),
    ("treetag.seqfile", "read_tagged", _result_len),
    ("treetag.metrics", "bracket_score", None),
    ("treetag.tagger", "featurize", _first_len),
    ("treetag.tagger", "TaggerModel.forward", _second_len),
    ("treetag.tagger", "TaggerModel.backward", _backward_tokens),
    ("treetag.tagger", "task_losses", None),
    ("treetag.tagger", "train_mtl", None),
    ("treetag.tagger", "predict_greedy", _second_len),
    ("treetag.tagger", "save_model", None),
    ("treetag.tagger", "load_model", None),
    ("treetag.pg", "finetune_pg", None),
    ("treetag.pg", "pg_update", None),
    ("treetag.pg", "estimate_policy_gradient", None),
    ("treetag.pg", "tree_reward", None),
    ("treetag.cli", "run", _subcommand),
)


def _short(module, attr):
    """``treetag.tagger`` + ``TaggerModel.forward`` -> ``tagger.forward``."""
    return "%s.%s" % (module.rsplit(".", 1)[-1], attr.rsplit(".", 1)[-1])


class Tracer:
    """Span recorder with install/uninstall of the layer wrappers."""

    def __init__(self, extra_namespaces=()):
        self.spans = []
        self._stack = []
        self._roots = 0
        self._patched = []  # (namespace object, attribute, original)
        self._extra = tuple(extra_namespaces)

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        stack = self._stack
        if stack:
            parent = stack[-1]
            root = self.spans[parent][4]
        else:
            parent = -1
            self._roots += 1
            root = self._roots
        span = [name, 0.0, 0.0, parent, root, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, name, fn, items):
        enter = self._enter
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[1] = start
                stack.pop()
            if items is not None:
                span[5] = items(args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _namespaces(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "treetag" or n.startswith("treetag."))]
        return mods + [m for m in self._extra if m not in mods]

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = self._namespaces()
        for module_name, attr, items in LAYER_CALLS:
            module = sys.modules[module_name]
            name = _short(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, items))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, items)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        """Restore every original; raises if one was not put back."""
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        for ns, key, original in self._patched:
            if vars(ns)[key] is not original:
                raise RuntimeError("could not restore %s.%s" % (ns.__name__, key))
        self._patched = []

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Spans as gzipped JSON lines, times in microseconds."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, root, items) in enumerate(self.spans):
                if not isinstance(items, (int, str, type(None))):
                    items = vars(items)
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "root": root,
                    "start_us": round(start * 1e6, 1), "end_us": round(end * 1e6, 1),
                    "items": items,
                }))
                fh.write("\n")


class SpanTable:
    """Per-name totals, self times and ancestry over a list of spans."""

    def __init__(self, spans):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.count = {}
        self.total = {}
        self.self_time = {}
        self.items = {}
        for i, (name, start, end, _, _, items) in enumerate(spans):
            dur = end - start
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child_time[i]
            if isinstance(items, int):
                self.items[name] = self.items.get(name, 0) + items

    def per_item(self, name, scale, by_self=False, items=None):
        """Total (or self) time of `name` per item, times `scale`."""
        n = self.items.get(name, 0) if items is None else items
        t = (self.self_time if by_self else self.total).get(name, 0.0)
        return t * scale / n if n else 0.0

    def per_call(self, name, scale, by_self=False):
        return self.per_item(name, scale, by_self, items=self.count.get(name, 0))

    def under(self, name, ancestor, direct=False):
        """Spans called `name` below a span called `ancestor`."""
        spans = self.spans
        found = []
        for span in spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if spans[parent][0] == ancestor:
                    found.append(span)
                    break
                if direct:
                    break
                parent = spans[parent][3]
        return found

"""Span tracer that wraps the public functions of every adflow module.

The tracer lives in the benchmark, not in the program: `Tracer.install`
replaces each public function of the layer modules by a wrapper that
records one span per call (name, start, end, parent span, item id and a few
work counts), and rebinds every module attribute that refers to the original
object. That covers names imported with ``from .signal import stft`` as well
as ``module.func`` lookups. `Tracer.uninstall` restores the originals.

Spans stay in memory until `write_spans` is called when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import os
from time import perf_counter

LAYERS = ("signal", "flowpath", "velnet", "mrnet", "sampler", "metrics",
          "cli")

# Methods are patched on their class, which every importer shares.
METHODS = (("velnet", "AdamW", "step"), ("sampler", "NetField", "__call__"),
           ("sampler", "OracleField", "__call__"))

# Names that other adflow modules import with ``from ... import``; each must
# be rebound in the importing module too, or its calls bypass the tracer.
IMPORTED_BY_NAME = (("velnet", "stft"), ("mrnet", "stft"), ("metrics", "stft"),
                    ("mrnet", "AdamW.step"), ("mrnet", "clip_gradients"),
                    ("mrnet", "stats_features"), ("cli", "make_dataset"),
                    ("cli", "read_wav"), ("cli", "write_wav"),
                    ("cli", "write_tensor"))


def _digest(samples) -> bytes:
    return hashlib.sha1(samples.data, usedforsecurity=False).digest()


def _mlp_flop_terms(net):
    """(sum of in*out over layers, same sum without the first layer)."""
    dims = net.layer_dims
    terms = [a * b for a, b in zip(dims[:-1], dims[1:])]
    return sum(terms), sum(terms[1:])


def _frames(n_samples: int, frame_len: int) -> int:
    return max(1, math.ceil(n_samples / frame_len))


# Work counts recorded per call: function name -> f(args, kwargs, result).
def _stft_attrs(a, kw, out):
    return {"digest": _digest(a[0].samples) + repr(out.frames.shape).encode()}


def _velocity_signal_attrs(a, kw, out):
    net, x = a[0], a[1]
    rows = _frames(len(x), net.frame_len)
    full, _ = _mlp_flop_terms(net)
    return {"rows": rows, "gflop": 2.0 * rows * full / 1e9}


def _loss_and_grad_attrs(a, kw, out):
    net, batch = a[0], a[1]
    rows = sum(_frames(len(item[0]), net.frame_len) for item in batch)
    full, no_first = _mlp_flop_terms(net)
    # forward + weight gradients + input gradients of every layer but the first
    return {"rows": rows, "gflop": 2.0 * rows * (2 * full + no_first) / 1e9}


def _clip_attrs(a, kw, out):
    max_norm = a[1] if len(a) > 1 else kw["max_norm"]
    return {"clipped": bool(out[1] > max_norm)}


def _file_bytes(path_index):
    def attrs(a, kw, out):
        return {"bytes": os.path.getsize(a[path_index])}
    return attrs


def _tensor_bytes(arr) -> int:
    return 8 + 4 * arr.ndim + 4 * arr.size


ATTRS = {
    "signal.stft": _stft_attrs,
    "signal.make_dataset": lambda a, kw, out: {"items": len(out)},
    "signal.write_wav": _file_bytes(0),
    "signal.read_wav": _file_bytes(0),
    "signal.write_tensor_stream": lambda a, kw, out: {
        "bytes": _tensor_bytes(a[1])},
    "signal.read_tensor_stream": lambda a, kw, out: {
        "bytes": _tensor_bytes(out)},
    "velnet.velocity_signal": _velocity_signal_attrs,
    "velnet.otcfm_loss_and_grad": _loss_and_grad_attrs,
    "velnet.clip_gradients": _clip_attrs,
    "mrnet.mr_features": lambda a, kw, out: {"digest": _digest(a[1].samples)},
    "sampler.extract_adaptive": lambda a, kw, out: {"nfe": int(out[2])},
}


def _request_item(args):
    """Item id of a top-level CLI call: an ``extract`` request is one item."""
    argv = args[0] if args and isinstance(args[0], list) else []
    if argv[:1] == ["extract"] and "--in" in argv:
        return "extract:" + os.path.basename(argv[argv.index("--in") + 1])
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "attrs")

    def __init__(self, name, parent, item):
        self.name, self.parent, self.item = name, parent, item
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for calls into the adflow layer modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._item_of: dict[int, str] = {}
        self._held: list = []     # keeps registered objects (and ids) alive
        self._restore: list = []

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = [getattr(package, name) for name in LAYERS]
        originals = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{name}",
                                                          obj))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, originals[id(obj)][1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(getattr(package, layer), cls_name)
            orig = cls.__dict__[meth]
            label = "adamw_step" if meth == "step" else f"{cls_name}.{meth}"
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{layer}.{label}", orig))
        for layer, dotted in IMPORTED_BY_NAME:
            obj = getattr(package, layer)
            for part in dotted.split("."):
                obj = getattr(obj, part)
            if not hasattr(obj, "__wrapped__"):
                raise RuntimeError(f"{layer}.{dotted} was not rebound")

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        attrs_fn = ATTRS.get(name)
        registers = name == "signal.make_dataset"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                item = _request_item(args)
            else:
                item = self._lookup_item(args) or self.spans[parent].item
            span = Span(name, parent, item)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if attrs_fn is not None:
                span.attrs = attrs_fn(args, kwargs, out)
            if registers:
                self._register(args, kwargs, out)
            if name == "cli.main" and not self._stack:
                self._item_of.clear()
                self._held.clear()
            return out

        return traced

    def _register(self, args, kwargs, items) -> None:
        """Give every waveform of a synthesized dataset its item id."""
        seed = kwargs.get("seed", args[3] if len(args) > 3 else 0)
        for i, item in enumerate(items):
            key = f"{seed}:{i}"
            for obj in (item, item.x, item.e, item.s1, item.b):
                self._item_of[id(obj)] = key
        self._held.append(items)

    def _lookup_item(self, args):
        for a in args:
            key = self._item_of.get(id(a))
            if key is not None:
                return key
        return None

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                attrs = {k: v for k, v in (s.attrs or {}).items()
                         if k != "digest"}
                f.write(json.dumps({"id": i, "name": s.name,
                                    "start": s.start, "end": s.end,
                                    "parent": s.parent, "item": s.item,
                                    **attrs}) + "\n")


def self_times(spans, lo: int = 0, hi: int | None = None) -> list:
    """Duration minus the time covered by direct children, per span.

    Calls are sequential, so children never overlap and the covered time
    is the sum of their durations.
    """
    hi = len(spans) if hi is None else hi
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        p = spans[i].parent
        if p is not None and p >= lo:
            child[p - lo] += spans[i].duration
    return [spans[i].duration - child[i - lo] for i in range(lo, hi)]


COMMANDS = ("gen_data", "train_vel", "train_mr", "ablate", "nfe_sweep",
            "extract")


def layer_metrics(spans, lo: int, hi: int, items: int) -> dict:
    """Per-layer metrics of the spans recorded in ``spans[lo:hi]``.

    ``items`` is the number of items the traced round handled; `.per_item`
    metrics divide by it, `.per_item.<command>` metrics by the items of that
    command (the dataset it synthesized, or one per `extract` call).
    """
    sub = spans[lo:hi]
    selfs = self_times(spans, lo, hi)
    root = [None] * len(sub)        # the cli command each span ran under
    by_name: dict[str, list] = {}
    for k, s in enumerate(sub):
        if s.name.startswith("cli.cmd_"):
            root[k] = s.name[len("cli.cmd_"):]
        elif s.parent is not None and s.parent >= lo:
            root[k] = root[s.parent - lo]
        by_name.setdefault(s.name, []).append(k)

    def idx(name):
        return by_name.get(name, [])

    def calls(name):
        return len(idx(name))

    def seconds(*names):
        """Time in spans of ``names`` not nested inside another of them."""
        group = set(names)
        nested = [False] * len(sub)
        total = 0.0
        for k, s in enumerate(sub):
            p = s.parent - lo if s.parent is not None and s.parent >= lo \
                else None
            nested[k] = p is not None and (sub[p].name in group or nested[p])
            if s.name in group and not nested[k]:
                total += s.duration
        return total

    def attr_sum(name, key):
        return sum((sub[k].attrs or {}).get(key, 0) for k in idx(name))

    def unique_ratio(name):
        ks = idx(name)
        return len({sub[k].attrs["digest"] for k in ks}) / len(ks) if ks \
            else 0.0

    cmd_items = {}
    for cmd in COMMANDS:
        if cmd == "extract":
            cmd_items[cmd] = calls("cli.cmd_extract")
        else:
            cmd_items[cmd] = sum(sub[k].attrs["items"]
                                 for k in idx("signal.make_dataset")
                                 if root[k] == cmd)

    def per_item(name, cmd=None):
        if cmd is None:
            return calls(name) / items
        n = sum(1 for k in idx(name) if root[k] == cmd)
        return n / cmd_items[cmd] if cmd_items[cmd] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "signal.stft.calls": calls("signal.stft"),
        "signal.stft.s": seconds("signal.stft"),
        "signal.stft.per_item": per_item("signal.stft"),
        "signal.stft.per_item.ablate": per_item("signal.stft", "ablate"),
        "signal.stft.per_item.nfe_sweep": per_item("signal.stft", "nfe_sweep"),
        "signal.stft.per_item.extract": per_item("signal.stft", "extract"),
        "signal.stft.unique_ratio": unique_ratio("signal.stft"),
        "signal.make_dataset.s": seconds("signal.make_dataset"),
        "signal.make_dataset.items": attr_sum("signal.make_dataset", "items"),
        "signal.wav.reads": calls("signal.read_wav"),
        "signal.wav.writes": calls("signal.write_wav"),
        "signal.wav.read_s": seconds("signal.read_wav"),
        "signal.wav.write_s": seconds("signal.write_wav"),
        "signal.wav.bytes": attr_sum("signal.read_wav", "bytes")
        + attr_sum("signal.write_wav", "bytes"),
        "signal.tensor.reads": calls("signal.read_tensor_stream"),
        "signal.tensor.writes": calls("signal.write_tensor_stream"),
        "signal.tensor.read_s": seconds("signal.read_tensor",
                                        "signal.read_tensor_stream"),
        "signal.tensor.write_s": seconds("signal.write_tensor",
                                         "signal.write_tensor_stream"),
        "signal.tensor.bytes": attr_sum("signal.read_tensor_stream", "bytes")
        + attr_sum("signal.write_tensor_stream", "bytes"),
        "flowpath.sample_path_state.calls": calls("flowpath.sample_path_state"),
        "flowpath.sample_path_state.s": seconds("flowpath.sample_path_state"),
        "flowpath.target_velocity.calls": calls("flowpath.target_velocity"),
        "flowpath.target_velocity.s": seconds("flowpath.target_velocity"),
    }
    for label, name in (("loss_and_grad", "velnet.otcfm_loss_and_grad"),
                        ("velocity_signal", "velnet.velocity_signal")):
        m[f"velnet.{label}.calls"] = calls(name)
        m[f"velnet.{label}.s"] = seconds(name)
        m[f"velnet.{label}.rows"] = attr_sum(name, "rows")
        m[f"velnet.{label}.gflop"] = attr_sum(name, "gflop")
    m.update({
        "velnet.adamw_step.calls": calls("velnet.adamw_step"),
        "velnet.adamw_step.s": seconds("velnet.adamw_step"),
        "velnet.clip.calls": calls("velnet.clip_gradients"),
        "velnet.clip.s": seconds("velnet.clip_gradients"),
        "velnet.clip.clip_ratio": ratio(
            attr_sum("velnet.clip_gradients", "clipped"),
            calls("velnet.clip_gradients")),
        "velnet.embed_enrollment.calls": calls("velnet.embed_enrollment"),
        "velnet.embed_enrollment.s": seconds("velnet.embed_enrollment"),
        "velnet.load.calls": calls("velnet.load_velnet"),
        "velnet.load.s": seconds("velnet.load_velnet"),
        "mrnet.mr_features.calls": calls("mrnet.mr_features"),
        "mrnet.mr_features.s": seconds("mrnet.mr_features"),
        "mrnet.mr_features.unique_ratio": unique_ratio("mrnet.mr_features"),
        "mrnet.mr_predict.calls": calls("mrnet.mr_predict"),
        "mrnet.mr_predict.s": seconds("mrnet.mr_predict"),
        "mrnet.mr_predict.per_item": per_item("mrnet.mr_predict"),
        "mrnet.mr_predict.per_item.ablate": per_item("mrnet.mr_predict",
                                                     "ablate"),
        "mrnet.mr_predict.per_item.nfe_sweep": per_item("mrnet.mr_predict",
                                                        "nfe_sweep"),
        "mrnet.load.calls": calls("mrnet.load_mrnet"),
        "mrnet.load.s": seconds("mrnet.load_mrnet"),
        "sampler.extract_adaptive.calls": calls("sampler.extract_adaptive"),
        "sampler.extract_adaptive.s": seconds("sampler.extract_adaptive"),
        "sampler.nfe_total": attr_sum("sampler.extract_adaptive", "nfe"),
        "sampler.passthrough_ratio": ratio(
            sum(1 for k in idx("sampler.extract_adaptive")
                if sub[k].attrs["nfe"] == 0),
            calls("sampler.extract_adaptive")),
        "sampler.euler_step.calls": calls("sampler.euler_step"),
        "sampler.euler_step.s": seconds("sampler.euler_step"),
        "metrics.evaluate.calls": calls("metrics.evaluate"),
        "metrics.evaluate.s": seconds("metrics.evaluate"),
        "metrics.lsd.s": seconds("metrics.lsd"),
        "metrics.sim.s": seconds("metrics.sim"),
        "metrics.si_sdr.s": seconds("metrics.si_sdr"),
    })
    for cmd in COMMANDS:
        ks = idx(f"cli.cmd_{cmd}")
        m[f"cli.{cmd}.s"] = sum(sub[k].duration for k in ks)
        m[f"cli.{cmd}.self_s"] = sum(selfs[k] for k in ks)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[k] for k, s in enumerate(sub)
                                   if s.name.split(".", 1)[0] == layer)
    m["trace.spans"] = len(sub)
    return m


def is_count(name: str) -> bool:
    """True for metrics that count work and must repeat exactly."""
    return not (name.endswith(".s") or name.endswith("_s")
                or name.startswith("process."))

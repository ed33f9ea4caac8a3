"""In-memory spans around the public segconv functions, and a table view of
them for computing per-layer metrics.

The recorder patches functions where each segconv module resolves them (for
example ``segconv.train.conv2d_forward`` and ``segconv.upsample.duc_rearrange``),
so only calls made through those modules are seen. Private helpers are not
wrapped. Each span stores its name, start, end, parent span and iteration id.

An "iteration" is one benchmark operation: a training iteration, one evaluated
image, one search query or one data-generation call. Iterations carry a label
``(stage, variant)`` such as ``("train", "duc")``.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Wrapper kinds: how a wrapped call relates to iterations.
SPAN = "span"   # plain span inside the current iteration
OP = "op"       # the call is one whole iteration
LOOP = "loop"   # the call runs many iterations (segconv.train.train)
STEP = "step"   # the call closes the current iteration (segconv.train.sgd_step)


class SpanLog:
    """Spans in parallel typed arrays; iterations in a small list."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.iter = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")  # flop count for conv calls, else 0
        self._stack: list[int] = []
        self.label = ("", "")
        self.iterations: list[list] = []  # [label, start, end]; end None while open
        self._current = -1
        self.layer_tags: dict[int, tuple[object, str]] = {}

    # -- registration -------------------------------------------------------

    def tag_layers(self, net) -> None:
        """Name the layers of a ToyNet enc0.. and dec0.. for span names. The
        layer object is kept so its id cannot be reused by another object."""
        for i, layer in enumerate(net.encoder_layers):
            self.layer_tags[id(layer)] = (layer, f"enc{i}")
        for i, layer in enumerate(net.decoder_layers):
            self.layer_tags[id(layer)] = (layer, f"dec{i}")

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- iterations ---------------------------------------------------------

    def _begin_iteration(self, t: float) -> None:
        self._current = len(self.iterations)
        self.iterations.append([self.label, t, None])

    def _end_iteration(self, t: float) -> None:
        self.iterations[self._current][2] = t

    def _drop_open_iteration(self) -> None:
        """Forget the iteration opened after the last step of a loop: it only
        holds the loop's return."""
        if self.iterations and self.iterations[-1][2] is None:
            self.iterations.pop()
        self._current = -1

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, name: str, kind: str = SPAN, layer_arg: bool = False,
             work=None):
        """Return fn wrapped in a span. With layer_arg, args[1] is a layer
        whose tag (enc0, dec1, ...) is appended to the span name."""
        log = self
        base_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            nid = base_id
            if layer_arg:
                entry = log.layer_tags.get(id(args[1]))
                if entry is not None:
                    nid = log._name_id(f"{name}.{entry[1]}")
            t0 = perf_counter()
            if kind in (OP, LOOP):
                log._begin_iteration(t0)
            idx = len(log.start)
            log.name.append(nid)
            log.parent.append(log._stack[-1] if log._stack else -1)
            log.iter.append(log._current)
            log.work.append(work(*args) if work is not None else 0.0)
            log.start.append(t0)
            log.end.append(t0)
            log._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                log._stack.pop()
                log.end[idx] = t1
                if kind == OP:
                    log._end_iteration(t1)
                    log._current = -1
                elif kind == STEP:
                    log._end_iteration(t1)
                    log._begin_iteration(t1)
                elif kind == LOOP:
                    log._drop_open_iteration()

        return wrapper

    # -- export -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "iter": np.frombuffer(self.iter, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "work": np.frombuffer(self.work, dtype=np.float64),
        }

    def save(self, path) -> None:
        """Write spans as an uncompressed .npz: one row per span plus the name
        table and the iteration table."""
        arrs = self.arrays()
        labels = np.array(["/".join(it[0]) for it in self.iterations], dtype=str)
        bounds = np.array([[it[1], it[2]] for it in self.iterations],
                          dtype=np.float64).reshape(-1, 2)
        np.savez(path, names=np.array(self.names, dtype=str),
                 iteration_labels=labels, iteration_bounds=bounds, **arrs)


@contextmanager
def patched(replacements):
    """Set (object, attribute, value) triples for the duration of the block."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    for obj, attr, value in replacements:
        setattr(obj, attr, value)
    try:
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def conv_flops(backward: bool):
    """Work function for conv2d_forward(x, layer) / conv2d_backward(x, layer, g):
    2 flops per multiply-add; backward does grad_w and grad_x, twice forward."""

    def work(x, layer, *rest):
        s = layer.spec
        ho, wo = s.out_size(x.shape[2], x.shape[3])
        macs = x.shape[0] * s.c_out * ho * wo * s.c_in * s.k * s.k
        return float((4 if backward else 2) * macs)

    return work


def tracing_patches(log: SpanLog, sc) -> list:
    """The (object, attribute, wrapper) triples that trace one process.
    ``sc`` is a namespace holding the segconv submodules."""
    tr, up, hd, da = sc.train, sc.upsample, sc.hdc, sc.data
    w = log.wrap
    out = [
        (tr, "train", w(tr.train, "train.train", LOOP)),
        (tr, "sgd_step", w(tr.sgd_step, "train.sgd_step", STEP)),
        (tr, "softmax_ce_loss", w(tr.softmax_ce_loss, "train.softmax_ce_loss")),
        (tr, "evaluate", w(tr.evaluate, "train.evaluate", OP)),
        (tr.ToyNet, "predict", w(tr.ToyNet.predict, "train.predict")),
        (tr, "conv2d_forward", w(tr.conv2d_forward, "train.conv2d_forward",
                                 layer_arg=True, work=conv_flops(False))),
        (tr, "conv2d_backward", w(tr.conv2d_backward, "train.conv2d_backward",
                                  layer_arg=True, work=conv_flops(True))),
        (up, "conv2d_forward", w(up.conv2d_forward, "upsample.conv2d_forward",
                                 layer_arg=True, work=conv_flops(False))),
        (up, "conv2d_backward", w(up.conv2d_backward, "upsample.conv2d_backward",
                                  layer_arg=True, work=conv_flops(True))),
        (up, "duc_rearrange", w(up.duc_rearrange, "upsample.duc_rearrange")),
        (up, "duc_rearrange_inverse",
         w(up.duc_rearrange_inverse, "upsample.duc_rearrange_inverse")),
        (hd, "schedule_search", w(hd.schedule_search, "hdc.schedule_search", OP)),
        (hd, "max_distance", w(hd.max_distance, "hdc.max_distance")),
        (hd, "footprint", w(hd.footprint, "hdc.footprint")),
        (da, "gen_thin_structures",
         w(da.gen_thin_structures, "data.gen_thin_structures", OP)),
    ]
    for fn in ("duc_forward", "duc_backward", "bilinear_upsample",
               "bilinear_backward", "transposed_conv_forward",
               "transposed_conv_backward"):
        out.append((tr, fn, w(getattr(tr, fn), f"train.{fn}", layer_arg=True)))
    return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


class SpanTable:
    """Read-side view of a SpanLog as numpy arrays."""

    def __init__(self, log: SpanLog):
        a = log.arrays()
        self.names = log.names
        self.name, self.parent, self.iter = a["name"], a["parent"], a["iter"]
        self.dur = a["end"] - a["start"]
        self.work = a["work"]
        self.n_iterations = len(log.iterations)
        self.labels = sorted({it[0] for it in log.iterations})
        code = {lab: i for i, lab in enumerate(self.labels)}
        # one extra trailing -1 so that iteration id -1 maps to label code -1
        self.iter_code = np.array([code[it[0]] for it in log.iterations] + [-1],
                                  dtype=np.int64)
        self.iter_dur = np.array([it[2] - it[1] for it in log.iterations],
                                 dtype=np.float64).reshape(self.n_iterations)
        self.span_code = self.iter_code[self.iter]

    def _codes(self, stage: str, variant: str | None) -> list[int]:
        return [i for i, (st, va) in enumerate(self.labels)
                if st == stage and (variant is None or va == variant)]

    def select(self, name: str, stage: str, variant: str | None = None):
        """Boolean mask of spans called `name` inside iterations of `stage`
        (and `variant`, when given)."""
        nid = self.names.index(name) if name in self.names else -1
        return (self.name == nid) & np.isin(self.span_code, self._codes(stage, variant))

    def iterations_of(self, stage: str, variant: str | None = None) -> np.ndarray:
        return np.flatnonzero(np.isin(self.iter_code[:-1], self._codes(stage, variant)))

    def self_time(self, iters: np.ndarray, root_name: str) -> np.ndarray:
        """Per iteration: its duration minus the time covered by the direct
        children of the span called root_name (the training loop, evaluate
        or schedule_search). Children of one parent never overlap."""
        rid = self.names.index(root_name)
        has_parent = self.parent >= 0
        top = np.zeros(self.name.size, dtype=bool)
        top[has_parent] = self.name[self.parent[has_parent]] == rid
        sel = top & (self.iter >= 0)
        child_sum = np.zeros(self.n_iterations, dtype=np.float64)
        np.add.at(child_sum, self.iter[sel], self.dur[sel])
        return self.iter_dur[iters] - child_sum[iters]


def median(values) -> float:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no samples")
    return float(np.median(arr))

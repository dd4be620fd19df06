"""Per-layer span tracing for the benchmark's traced runs.

The tracer is installed only in a traced run (``--trace 1``).  It wraps the
entry points of each ``repro`` layer from the outside — the program's own
files are untouched — and records, per span name, the *self* time (a
span's duration minus the part covered by its child spans) and the number of
calls.  Counters (bytes written, rows decoded, empty batches) ride along.

Spans nest per thread.  A root span named :data:`ROOT_SPAN` around a traced
pass collects the time no layer span covers; its self time is the run's
``other_s``.

The traced server is started through this file::

    python3 perfbench/tracing.py TRACE_DIR serve --root DIR --port 0

which installs the same wrappers, runs ``python -m repro``'s command line
unchanged, and makes every server process write its totals to
``TRACE_DIR/<pid>.json`` when it closes its listening socket (each pre-forked
worker does so while draining on SIGTERM).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import signal
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT_SPAN = "other"


class _Frame:
    __slots__ = ("name", "started", "children")

    def __init__(self, name: str):
        self.name = name
        self.started = time.perf_counter()
        self.children = 0.0


class Tracer:
    """Thread-aware span and counter accumulator."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1].name if stack else None

    def enter(self, name: str) -> _Frame:
        frame = _Frame(name)
        self._stack().append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        ended = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = ended - frame.started
        if stack:
            stack[-1].children += duration
        with self._lock:
            self.self_s[frame.name] += duration - frame.children
            self.calls[frame.name] += 1
        return duration

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }

    def merge(self, snapshot: dict) -> None:
        with self._lock:
            for key, value in snapshot["self_s"].items():
                self.self_s[key] += value
            for key, value in snapshot["calls"].items():
                self.calls[key] += value
            for key, value in snapshot["counts"].items():
                self.counts[key] += value


class _Span:
    __slots__ = ("_tracer", "_name", "_frame")

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        self._frame = self._tracer.enter(self._name)
        return self

    def __exit__(self, *exc_info) -> bool:
        self._tracer.exit(self._frame)
        return False


class NullTracer:
    """Stand-in for untraced runs: every span is a no-op."""

    def span(self, name: str):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def directory_bytes(path) -> int:
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def _timed(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _timed_batches(tracer: Tracer, name: str, fn):
    """Time each ``next()`` of a batch generator; count empty batches."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = iter(fn(*args, **kwargs))
        while True:
            frame = tracer.enter(name)
            try:
                index = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.exit(frame)
            if len(index) == 0:
                tracer.count("engine.empty_batches")
            yield index

    return wrapper


def _epsilon_outside_calibration(tracer: Tracer, name: str, fn):
    """Epsilon evaluations made *by* a calibration belong to its span."""
    timed = _timed(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.current() == "accounting.calibrate":
            return fn(*args, **kwargs)
        return timed(*args, **kwargs)

    return wrapper


def _bytes_of_path(key: str):
    def after(tracer, args, result):
        tracer.count(key, directory_bytes(result))

    return after


def _bytes_of_result(key: str):
    def after(tracer, args, result):
        tracer.count(key, len(result))

    return after


def _rows_of_arg(key: str, position: int):
    def after(tracer, args, result):
        tracer.count(key, len(args[position]))

    return after


def _timed_with(after):
    return lambda tracer, name, fn: _timed(tracer, name, fn, after)


#: (module, attribute path, span or counter name, wrapper factory).  Targets
#: are the layers' public functions and methods, plus the trainer's step and
#: the HTTP handler's chunk write, which have no public counterpart.  Each is
#: patched where its callers look it up (a module that imported a name gets
#: its own entry).
PATCHES = [
    # engine
    ("repro.engine.trainer", "Trainer._train_step", "engine.step", _timed),
    ("repro.engine.samplers", "PoissonSampler.epoch_batches", "engine.sampler", _timed_batches),
    ("repro.engine.samplers", "ShuffleSampler.epoch_batches", "engine.sampler", _timed_batches),
    ("repro.engine.checkpoint", "save_checkpoint", "engine.checkpoint_write",
     _timed_with(_bytes_of_path("engine.checkpoint_bytes"))),
    # privacy.accounting
    ("repro.privacy.accounting.p3gm_accountant", "P3GMAccountant.calibrate_sigma_em",
     "accounting.calibrate", _timed),
    ("repro.privacy.accounting.p3gm_accountant", "P3GMAccountant.calibrate_sigma_sgd",
     "accounting.calibrate", _timed),
    ("repro.privacy.accounting.p3gm_accountant", "P3GMAccountant.epsilon",
     "accounting.epsilon", _epsilon_outside_calibration),
    ("repro.privacy.dp_sgd", "dp_sgd_epsilon", "accounting.epsilon",
     _epsilon_outside_calibration),
    # decomposition, mixture
    ("repro.decomposition.dp_pca", "DPPCA.fit", "decomposition.dp_pca_fit", _timed),
    ("repro.mixture.dp_em", "DPGaussianMixture.fit", "mixture.dp_em_fit", _timed),
    ("repro.mixture.gmm", "GaussianMixture.sample", "mixture.sample", _timed),
    # nn, privacy.dp_sgd, nn.optim
    ("repro.nn.layers", "MLP.__call__", "nn.forward", _timed),
    ("repro.nn.autograd", "Tensor.backward", "nn.backward", _timed),
    ("repro.nn.autograd", "Tensor.grad_sample_sq_norms", "dp_sgd.clip", _timed),
    ("repro.nn.autograd", "Tensor.clipped_grad_sum", "dp_sgd.clip", _timed),
    ("repro.privacy.dp_sgd", "DPSGD.step", "dp_sgd.noise", _timed),
    ("repro.nn.optim", "Optimizer.apply_gradients", "optim.apply", _timed),
    # nn.inference
    ("repro.models.pgm", "decode_rows", "inference.decode",
     _timed_with(_rows_of_arg("inference.decode_rows", 1))),
    ("repro.nn.inference", "CompiledForward.__call__", "inference.fused_calls", _counted),
    # serving
    ("repro.serving.artifacts", "save_artifact", "artifacts.save",
     _timed_with(_bytes_of_path("artifacts.bytes"))),
    ("repro.serving.artifacts", "load_artifact", "artifacts.load", _timed),
    ("repro.serving.artifacts", "load_transformer", "artifacts.load", _timed),
    ("repro.serving.service", "load_artifact", "artifacts.load", _timed),
    ("repro.serving.service", "load_transformer", "artifacts.load", _timed),
    ("repro.serving.service", "SynthesisService.get", "service.get", _timed),
    # transforms
    ("repro.transforms.table", "TableTransformer.fit", "transforms.fit", _timed),
    ("repro.transforms.table", "TableTransformer.transform", "transforms.transform", _timed),
    ("repro.transforms.table", "TableTransformer.inverse_transform", "transforms.inverse", _timed),
    # server
    ("repro.server.app", "encode_chunk", "protocol.encode",
     _timed_with(_bytes_of_result("protocol.bytes"))),
    ("repro.server.app", "_SynthesisRequestHandler._write_chunk", "server.write", _timed),
    # evaluation / ml
    ("repro.models.base", "LabelEncodingMixin.sample_labeled", "evaluation.sample", _timed),
    ("repro.ml.linear", "LogisticRegression.fit", "ml.classifier_fit", _timed),
    ("repro.ml.boosting", "AdaBoostClassifier.fit", "ml.classifier_fit", _timed),
    ("repro.ml.boosting", "GradientBoostingClassifier.fit", "ml.classifier_fit", _timed),
    ("repro.ml.xgb", "XGBClassifier.fit", "ml.classifier_fit", _timed),
    # obs
    ("repro.engine.callbacks", "MetricsCallback.on_train_begin", "obs.callback", _timed),
    ("repro.engine.callbacks", "MetricsCallback.on_step_end", "obs.callback", _timed),
    ("repro.engine.callbacks", "MetricsCallback.on_epoch_end", "obs.callback", _timed),
    ("repro.engine.callbacks", "MetricsCallback.on_train_end", "obs.callback", _timed),
]

_MISSING = object()


def install(tracer: Tracer) -> list:
    """Wrap every target in :data:`PATCHES`; returns the undo list."""
    undo = []
    for module_name, path, name, factory in PATCHES:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        if isinstance(owner, type):
            # An inherited method is wrapped on the subclass and deleted on undo.
            previous = owner.__dict__.get(attribute, _MISSING)
        else:
            previous = getattr(owner, attribute)
        setattr(owner, attribute, factory(tracer, name, getattr(owner, attribute)))
        undo.append((owner, attribute, previous))
    return undo


def uninstall(undo: list) -> None:
    for owner, attribute, previous in reversed(undo):
        if previous is _MISSING:
            delattr(owner, attribute)
        else:
            setattr(owner, attribute, previous)


def read_dumps(directory) -> list:
    return [json.loads(path.read_text()) for path in sorted(Path(directory).glob("*.json"))]


def _serve_traced(trace_dir: str, argv: list) -> int:
    from repro.server.app import SynthesisHTTPServer
    from repro.serving.cli import main

    tracer = Tracer()
    install(tracer)
    close = SynthesisHTTPServer.server_close

    def server_close(self):
        target = Path(trace_dir) / f"{os.getpid()}.json"
        staging = target.with_suffix(".tmp")
        staging.write_text(json.dumps(tracer.snapshot()))
        os.replace(staging, target)
        close(self)

    SynthesisHTTPServer.server_close = server_close

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    # A single-process server closes its socket only on ^C; make SIGTERM take
    # that path too.  The pre-fork pool installs its own drain handlers.
    signal.signal(signal.SIGTERM, interrupt)
    return main(argv)


if __name__ == "__main__":
    sys.exit(_serve_traced(sys.argv[1], sys.argv[2:]))

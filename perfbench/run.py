"""End-to-end benchmark of the P3GM pipeline: fit -> save -> load -> serve -> evaluate.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit_isolet --seed 1 --seconds 15 --trace 0

Every workload runs the whole release path against a ``repro serve`` server
process; the workloads differ in which stage carries the weight (see
``perfbench/README.md``).  Each run repeats the pipeline 5 times on
data derived from ``--seed``, each pass followed by a slice of a two-client
closed loop against the new artifact; the slices add up to ``--seconds``.
Set-up, fit and evaluation report medians over the passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead wraps
each layer's entry points (``tracing.py``), runs two repetitions once
untraced and once traced on the same inputs, and prints per-layer self times,
counters, the unaccounted ``other_s`` and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output check passed, 1 when one failed, and 2 when the benchmark
cannot run (for example without the ``src/`` tree next to it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CLIENTS = 2
#: p95 needs at least ten samples beyond it.
MIN_LOOP_REQUESTS = 200
#: Untimed requests per client to a new artifact, so that every worker has
#: cold-loaded it before a load slice.
LOAD_WARM_UP_PER_CLIENT = 3
#: The traced run compares traced and untraced servers on this many
#: requests per client and slice.
TRACE_REQUESTS_PER_CLIENT = 15
#: Pipeline repetitions of the traced run, one with either pass first.  Its
#: per-layer metrics have no bound, so it need not settle a median.
TRACE_REPS = 2
SAMPLE_CHECK_ROWS = 256
EPSILON, DELTA = 1.0, 1e-5


@dataclass(frozen=True)
class Workload:
    dataset: str
    n_samples: int
    epochs: int
    rows_per_request: int
    #: Pipeline repetitions per run; set-up, fit and evaluation report the
    #: median.  Short fits get more, so the median settles.
    reps: int
    fmt: str = "ndjson"
    #: Encode through a TableTransformer and serve original-space rows.
    mixed_type: bool = False
    checkpoint: bool = False
    n_synthetic: Optional[int] = None
    #: The AUROC floor of the released model, where the data supports one.
    min_auroc: Optional[float] = None
    #: Whose peak RSS is ``peak_rss_mb``: the benchmark process (which fits)
    #: or the server.
    rss_of: str = "server"


WORKLOADS = {
    # The paper's high-dimensional case at its settings: DP-PCA on 617
    # features, DP-SGD over 1.26M parameters, a checkpoint every epoch.
    # The time of an ISOLET evaluation (3 s of tree building on small
    # arrays) depends on the model evaluated: a run's models differ by up to
    # a third, so the median takes five of them.
    "fit_isolet": Workload(
        "isolet", 3000, epochs=2, rows_per_request=500, reps=5, checkpoint=True,
        n_synthetic=300, rss_of="bench",
    ),
    # Mixed-type Adult through the transformer both ways, original-space CSV.
    "release_adult_mixed": Workload(
        "adult_mixed", 8000, epochs=2, rows_per_request=2000, reps=5, fmt="csv",
        mixed_type=True, min_auroc=0.5,
    ),
}

END_TO_END = {
    "setup_s": "s", "fit_s": "s", "eval_s": "s", "rows_per_s": "1/s",
    "latency_p50_ms": "ms", "latency_p95_ms": "ms", "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit.  ``*_s`` metrics are span self times.
PER_LAYER = {
    "engine.steps": "count", "engine.empty_batches": "count", "engine.step_s": "s",
    "engine.sampler_s": "s", "engine.checkpoint_write_s": "s",
    "engine.checkpoint_bytes": "bytes",
    "accounting.calibrate_s": "s", "accounting.epsilon_s": "s",
    "accounting.epsilon_calls": "count",
    "decomposition.dp_pca_fit_s": "s",
    "mixture.dp_em_fit_s": "s", "mixture.sample_s": "s",
    "nn.forward_s": "s", "nn.backward_s": "s",
    "dp_sgd.clip_s": "s", "dp_sgd.noise_s": "s", "optim.apply_s": "s",
    "inference.decode_s": "s", "inference.decode_rows": "count",
    "inference.fused_ratio": "ratio",
    "models.fit_s": "s", "datasets.simulate_s": "s",
    "artifacts.save_s": "s", "artifacts.load_s": "s", "artifacts.bytes": "bytes",
    "service.get_s": "s", "service.cache_hit_ratio": "ratio",
    "transforms.fit_s": "s", "transforms.transform_s": "s", "transforms.inverse_s": "s",
    "protocol.encode_s": "s", "protocol.bytes": "bytes", "server.write_s": "s",
    "server.request_s": "s", "server.rejected": "count",
    "http.client_s": "s",
    "evaluation.sample_s": "s", "evaluation.score_s": "s", "ml.classifier_fit_s": "s",
    "obs.callback_s": "s",
    "import_s": "s", "other_s": "s", "trace_overhead": "ratio",
}

#: Span counts reported as per-layer counters.
CALL_COUNTS = {"engine.steps": "engine.step", "accounting.epsilon_calls": "accounting.epsilon"}


def now() -> float:
    return time.perf_counter()


_STARTED = now()


def progress(message: str) -> None:
    """Progress goes to stderr; stdout carries only the result lines."""
    print(f"[{now() - _STARTED:7.2f}s] {message}", file=sys.stderr, flush=True)


def fingerprint() -> dict:
    """The hardware and build a run's numbers belong to."""
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "src_lines": src_lines,
        "multi_process_scaling": "not measured (--processes/--workers stay at defaults)",
    }


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in paths:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(library, symbol):
                function = getattr(library, symbol)
                function.restype = ctypes.c_int
                return int(function())
    return None


class Run:
    """One benchmark run: a server, repeated pipeline passes, a load phase."""

    def __init__(self, name: str, seed: int, seconds: int, trace: bool):
        import numpy as np

        from http_load import Phase
        from tracing import NullTracer, Tracer

        self.name = name
        self.workload = WORKLOADS[name]
        self.seconds = seconds
        self.trace = trace
        self.work = ROOT / ".perfbench_work" / str(os.getpid())
        self.root = self.work / "artifacts"
        seeds = np.random.SeedSequence(seed)
        self.warm_up_seeds, *self.rep_seeds = seeds.spawn(self.workload.reps + 1)
        self.request_base = int(seeds.generate_state(1)[0] % 1_000_000) * 1000
        self.tracer = Tracer() if trace else None
        self.null = NullTracer()
        self.phases = {key: Phase() for key in ("first_request", "warmup", "load")}
        self.failures: list = []
        #: Findings that do not fail the run, printed with the result.
        self.notes: list = []
        self.servers: list = []

    # -- checks --------------------------------------------------------------

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def expected_body(self, ref: str, n_rows: int, seed: int) -> bytes:
        """The bytes the server must send, computed in-process."""
        from repro.server.protocol import encode_chunk, header_line
        from repro.serving import SynthesisService

        service = SynthesisService(artifact_root=self.root)
        transformer = service.transformer(ref)
        original = transformer is not None
        if original:
            names = list(transformer.schema.names)
        else:
            width = int(service.get(ref).n_input_features_)
            names = [f"feature_{index}" for index in range(width)]
        fmt = self.workload.fmt
        pieces = [header_line(fmt, names)] if fmt == "csv" else []
        for chunk in service.stream(ref, n_rows, seed=seed, original_space=original):
            pieces.append(encode_chunk(fmt, chunk))
        return b"".join(pieces)

    def check_rep(self, rep: dict) -> None:
        import numpy as np

        from repro.serving import load_artifact, manifest_privacy, read_manifest

        model, path = rep["model"], rep["path"]
        epsilon, _ = model.privacy_spent()
        self.check(epsilon <= EPSILON, f"{rep['ref']}: privacy_spent {epsilon} > {EPSILON}")
        released, _ = manifest_privacy(read_manifest(path))
        self.check(released == epsilon,
                   f"{rep['ref']}: manifest epsilon {released} != privacy_spent {epsilon}")
        seed = rep["request_seed"]
        loaded = load_artifact(path)
        before = model.sample(SAMPLE_CHECK_ROWS, rng=np.random.default_rng(seed))
        after = loaded.sample(SAMPLE_CHECK_ROWS, rng=np.random.default_rng(seed))
        self.check(before.tobytes() == after.tobytes(),
                   f"{rep['ref']}: seeded samples differ after save -> load")
        outcome, body = rep["first"]
        self.check(outcome == "ok", f"{rep['ref']}: first request failed ({outcome})")
        self.check(
            body == self.expected_body(rep["ref"], self.workload.rows_per_request, seed),
            f"{rep['ref']}: HTTP body differs from the in-process bytes",
        )
        auroc = rep["auroc"]
        self.check(0.0 <= auroc <= 1.0, f"{rep['ref']}: AUROC {auroc} outside [0, 1]")
        if self.workload.min_auroc is not None and auroc <= self.workload.min_auroc:
            self.notes.append(f"{rep['ref']}: AUROC {auroc} <= {self.workload.min_auroc}")

    def check_utility(self, reps: list) -> None:
        """The models released in a run score above the AUROC floor on median.

        A DP model at epsilon = 1 carries no per-model utility guarantee: of
        49 Adult models on different seeds, one scored 0.48.  Such passes are
        printed as notes; the run fails when the median falls to the floor.
        """
        floor = self.workload.min_auroc
        if floor is None:
            return
        median = statistics.median(rep["auroc"] for rep in reps)
        self.check(median > floor, f"median AUROC {median} <= {floor}")

    def check_digests(self, digests: dict) -> None:
        for (ref, seed), digest in sorted(digests.items()):
            expected = self.expected_body(ref, self.workload.rows_per_request, seed)
            self.check(hashlib.sha256(expected).hexdigest() == digest,
                       f"{ref}: load-phase body for seed {seed} differs from in-process bytes")

    # -- stages --------------------------------------------------------------

    def start_server(self, traced: bool):
        from http_load import ServerProcess

        tag = "traced" if traced else "plain"
        self.root.mkdir(parents=True, exist_ok=True)
        trace_dir = None
        if traced:
            trace_dir = self.work / "spans"
            trace_dir.mkdir(parents=True, exist_ok=True)
        server = ServerProcess(
            SRC, self.root, self.work / f"server-{tag}.log", self.work / "t", trace_dir
        )
        self.servers.append(server)
        return server.start()

    def pipeline(self, seeds, ref: str, server, tracer, warm_up: bool = False) -> dict:
        """One pass: simulate -> fit -> save -> first request -> evaluate.

        ``warm_up`` runs a one-epoch pass (untimed), so the first calls of a
        fresh process are not what the timed passes measure.  Its evaluation
        keeps the full size: a smaller one left the next fit slow.
        """
        import numpy as np

        from http_load import post_sample
        from repro.datasets import load_dataset
        from repro.evaluation import evaluate_artifact
        from repro.models import P3GM
        from repro.serving import artifacts
        from repro.transforms import TableTransformer

        workload = self.workload
        data_seed, model_seed, request_seed, eval_seed = (
            int(value) for value in seeds.generate_state(4)
        )
        request_seed %= 2**31
        epochs = 1 if warm_up else workload.epochs

        started = now()
        with tracer.span("datasets.simulate"):
            data = load_dataset(workload.dataset, n_samples=workload.n_samples,
                                random_state=data_seed)
        X, transformer = data.X_train, None
        if workload.mixed_type:
            transformer = TableTransformer(data.schema).fit(data.X_train)
            X = transformer.transform(data.X_train)
        setup = now() - started

        model = P3GM(
            latent_dim=10, n_mixture_components=3, hidden=(1000,), epochs=epochs,
            batch_size=100, epsilon=EPSILON, delta=DELTA, noise_multiplier=1.5,
            sampler="poisson", random_state=np.random.default_rng(model_seed),
        )
        if workload.checkpoint:
            model.configure_checkpointing(self.work / "checkpoints" / ref, every=1, keep=1)
        started = now()
        with tracer.span("models.fit"):
            model.fit(X, data.y_train)
        fit_s = now() - started

        started = now()
        path = artifacts.save_artifact(
            model, self.root / ref, name=ref, transformer=transformer,
            metadata={"dataset": workload.dataset, "seed": data_seed},
        )
        with tracer.span("http.client"):
            outcome, _, body = post_sample(
                server.port, ref, workload.rows_per_request, request_seed, workload.fmt
            )
        self.phases["warmup" if warm_up else "first_request"].record(outcome)
        setup += now() - started

        started = now()
        with tracer.span("evaluation.score"):
            result = evaluate_artifact(path, data, n_synthetic=workload.n_synthetic,
                                       random_state=eval_seed)
        eval_s = now() - started
        shutil.rmtree(self.work / "checkpoints" / ref, ignore_errors=True)
        return {
            "ref": ref, "model": model, "path": path, "request_seed": request_seed,
            "first": (outcome, body), "auroc": result.mean("auroc"),
            "setup_s": setup, "fit_s": fit_s, "eval_s": eval_s,
        }

    def warm_up(self, server, tag: str) -> None:
        """Untimed first calls: a one-epoch pass, then requests to it."""
        ref = f"{self.name}-warmup-{tag}"
        self.pipeline(self.warm_up_seeds, ref, server, self.null, warm_up=True)
        self.load(server, ref, phase="warmup", requests_per_client=LOAD_WARM_UP_PER_CLIENT)

    def seeds(self, client: int, index: int) -> int:
        return self.request_base + client * 100_000 + index

    def load(self, server, ref: str, phase: str = "load", **limits) -> dict:
        from http_load import closed_loop

        workload = self.workload
        return closed_loop(
            server.port, ref, workload.rows_per_request, workload.fmt, self.seeds,
            self.phases[phase], CLIENTS, **limits,
        )

    def serve(self, server, ref: str, **limits) -> dict:
        """Let every worker load ``ref`` (untimed), then run a timed slice."""
        self.load(server, ref, phase="warmup", requests_per_client=LOAD_WARM_UP_PER_CLIENT)
        loop = self.load(server, ref, **limits)
        self.check_digests(loop["digests"])
        progress(f"load: {len(loop['latencies'])} requests in {loop['wall_s']:.2f}s")
        return loop

    # -- the two kinds of run ------------------------------------------------

    def measure(self) -> dict:
        workload = self.workload
        server = self.start_server(traced=False)
        progress(f"server up in {server.boot_s:.3f}s")
        self.warm_up(server, "plain")
        progress("warmed up")
        reps, latencies, rows, wall = [], [], 0, 0.0
        for index in range(workload.reps):
            rep = self.pipeline(self.rep_seeds[index], f"{self.name}-{index}", server, self.null)
            progress(f"rep {index}: setup {rep['setup_s']:.3f}s fit {rep['fit_s']:.3f}s "
                     f"eval {rep['eval_s']:.3f}s")
            self.check_rep(rep)
            reps.append(rep)
            loop = self.serve(
                server, rep["ref"], seconds=self.seconds / workload.reps,
                min_requests=math.ceil(MIN_LOOP_REQUESTS / workload.reps),
            )
            latencies += loop["latencies"]
            rows += loop["rows"]
            wall += loop["wall_s"]
        if workload.rss_of == "server":
            peak_rss = server.peak_rss_mb()
        else:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        server.stop()
        self.check_utility(reps)
        self.check(len(latencies) >= MIN_LOOP_REQUESTS,
                   f"load phase completed {len(latencies)} < {MIN_LOOP_REQUESTS} requests")
        quantiles = statistics.quantiles(latencies, n=100, method="inclusive")
        return {
            "setup_s": statistics.median(rep["setup_s"] for rep in reps),
            "fit_s": statistics.median(rep["fit_s"] for rep in reps),
            "eval_s": statistics.median(rep["eval_s"] for rep in reps),
            "rows_per_s": rows / wall,
            "latency_p50_ms": statistics.median(latencies) * 1000.0,
            "latency_p95_ms": quantiles[94] * 1000.0,
            "peak_rss_mb": peak_rss,
        }

    def measure_traced(self) -> dict:
        from tracing import ROOT_SPAN, install, read_dumps, uninstall

        tracer = self.tracer
        servers = {False: self.start_server(traced=False), True: self.start_server(traced=True)}
        for traced, server in servers.items():
            self.warm_up(server, "traced" if traced else "plain")
        before = servers[True].metrics()
        # traced / untraced wall time per repetition, by which pass ran first
        ratios = {False: [], True: []}
        passes = []
        for index in range(TRACE_REPS):
            # Alternate which pass goes first: the second pass of a pair runs
            # on warmer caches.
            order = (False, True) if index % 2 == 0 else (True, False)
            walls = {}
            for traced in order:
                ref = f"{self.name}-{index}-{'traced' if traced else 'plain'}"
                undo = install(tracer) if traced else []
                started = now()
                try:
                    if traced:
                        with tracer.span(ROOT_SPAN):
                            rep = self.pipeline(self.rep_seeds[index], ref, servers[True], tracer)
                    else:
                        rep = self.pipeline(self.rep_seeds[index], ref, servers[False], self.null)
                finally:
                    uninstall(undo)
                walls[traced] = now() - started
                self.check_rep(rep)
                passes.append(rep)
                loop = self.serve(servers[traced], ref,
                                  requests_per_client=TRACE_REQUESTS_PER_CLIENT)
                walls[traced] += loop["wall_s"]
            ratios[order[0]].append(walls[True] / walls[False])
        self.check_utility(passes)
        after = servers[True].metrics()
        for server in servers.values():
            server.stop()
        for dump in read_dumps(self.work / "spans"):
            tracer.merge(dump)

        snapshot = tracer.snapshot()
        values = {}
        for metric in PER_LAYER:
            if metric.endswith("_s"):
                values[metric] = snapshot["self_s"].get(metric[:-2], 0.0)
            else:
                values[metric] = snapshot["counts"].get(metric, 0.0)
        for metric, span in CALL_COUNTS.items():
            values[metric] = snapshot["calls"].get(span, 0)
        decodes = snapshot["calls"].get("inference.decode", 0)
        values["inference.fused_ratio"] = (
            snapshot["counts"].get("inference.fused_calls", 0.0) / decodes if decodes else 0.0
        )
        values["other_s"] = snapshot["self_s"].get(ROOT_SPAN, 0.0)
        values["import_s"] = servers[False].boot_s
        # The geometric mean of the two orders cancels the warm-cache bonus.
        values["trace_overhead"] = math.sqrt(
            statistics.mean(ratios[False]) * statistics.mean(ratios[True])
        )
        latency = {key: after["latency_seconds"][key] - before["latency_seconds"][key]
                   for key in ("sum", "count")}
        values["server.request_s"] = latency["sum"] / latency["count"]
        values["server.rejected"] = after["requests"]["rejected"]
        cache = after["cache"]
        values["service.cache_hit_ratio"] = cache["hits"] / (cache["hits"] + cache["misses"])
        return values

    def close(self) -> None:
        for server in self.servers:
            server.stop()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC} holds no repro package; run from a full checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread in this process and in the server it starts, set
    # before numpy loads.  With the library's default of one thread per core,
    # the two pool workers' BLAS threads and the client contend for 2 cores.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (fail here, before any work, if it cannot import)

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    # Stop the servers and remove the work directory when terminated too.
    signal.signal(signal.SIGTERM, terminate)
    try:
        values = run.measure_traced() if run.trace else run.measure()
    finally:
        run.close()
    units = PER_LAYER if run.trace else END_TO_END
    phases = {name: phase.report() for name, phase in run.phases.items()}
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    print("requests " + json.dumps(phases, sort_keys=True))
    for note in run.notes:
        print(f"note: {note}")
    for failure in run.failures:
        print(f"check failed: {failure}")
    result = {
        "correct": not run.failures,
        "attempted": sum(phase["attempted"] for phase in phases.values()),
        "failed": sum(phase["failed"] for phase in phases.values()),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())

"""The server under test and the closed-loop HTTP client that drives it.

The server is a separate process started the way ``python -m repro serve``
starts it, with default flags apart from ``--root`` and ``--port``.  The
client opens a fresh connection per request, so the kernel spreads requests
over the server's pre-forked workers anew each time.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Outcome of one request: ``ok`` or the failure kind counted against it.
OUTCOMES = ("ok", "non_200", "rejected_429", "short", "timeout", "error")

REQUEST_TIMEOUT_S = 60.0
#: Every this-many-th successful body of a client is kept for checking.
DIGEST_EVERY = 64


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _children(pid: int) -> list:
    found = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            text = Path(f"/proc/{pid}/task/{task}/children").read_text()
            found.extend(int(child) for child in text.split())
    except OSError:
        pass
    return found


def _peak_rss_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class ServerProcess:
    """One ``repro serve`` process tree (supervisor plus forked workers).

    With ``trace_dir`` set, the server starts through ``tracing.py``, which
    wraps the layers before running the same command line and dumps each
    worker's span totals into ``trace_dir`` when it shuts down.
    """

    def __init__(self, src: Path, root: Path, log_path: Path, tmp_dir: Path, trace_dir=None):
        self.src = src
        self.root = root
        self.log_path = log_path
        self.tmp_dir = tmp_dir
        self.trace_dir = trace_dir
        self.port = None
        self.boot_s = None
        self._proc = None
        self._log = None

    def start(self, timeout: float = 90.0) -> "ServerProcess":
        self.port = _free_port()
        args = ["serve", "--root", str(self.root), "--port", str(self.port)]
        if self.trace_dir is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(HERE / "tracing.py"), str(self.trace_dir), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(self.src), env.get("PYTHONPATH")])
        )
        # The pool's unix control sockets go under TMPDIR; keep them in the
        # run's work directory when the socket path stays within the 107
        # bytes a unix socket address allows.
        if len(str(self.tmp_dir)) < 70:
            self.tmp_dir.mkdir(parents=True, exist_ok=True)
            env["TMPDIR"] = str(self.tmp_dir)
        self._log = open(self.log_path, "wb")
        started = time.perf_counter()
        self._proc = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT, env=env,
            stdin=subprocess.DEVNULL,
        )
        deadline = started + timeout
        while time.perf_counter() < deadline:
            if self._proc.poll() is not None:
                self._log.close()
                raise RuntimeError(
                    f"server exited with {self._proc.returncode} during start-up: "
                    + self.log_path.read_text(errors="replace")[-2000:]
                )
            if self._healthy():
                self.boot_s = time.perf_counter() - started
                return self
            time.sleep(0.01)
        raise RuntimeError(f"server did not answer /healthz within {timeout}s")

    def _healthy(self) -> bool:
        try:
            status, _ = get(self.port, "/healthz", timeout=1.0)
        except OSError:
            return False
        return status == 200

    def pids(self) -> list:
        return [self._proc.pid, *_children(self._proc.pid)]

    def peak_rss_mb(self) -> float:
        """The largest peak RSS among the server's processes."""
        return max(_peak_rss_mb(pid) for pid in self.pids())

    def metrics(self) -> dict:
        status, body = get(self.port, "/metrics", timeout=30.0)
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL the tree if it hangs.

        A traced server writes its spans while draining, so it gets the
        pool's full drain timeout; a plain one has nothing left to give.
        """
        if self._proc is None:
            return
        if self._proc.poll() is None:
            self._proc.send_signal(signal.SIGTERM)
            try:
                self._proc.wait(timeout=40.0 if self.trace_dir is not None else 5.0)
            except subprocess.TimeoutExpired:
                # Workers first, while the unreaped supervisor still owns
                # their pids.
                for pid in reversed(self.pids()):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                self._proc.wait()
        self._proc = None
        self._log.close()


def get(port: int, path: str, timeout: float):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def sample_body(n_rows: int, seed: int, fmt: str) -> bytes:
    return json.dumps({"n_samples": n_rows, "seed": seed, "format": fmt}).encode()


def expected_lines(n_rows: int, fmt: str) -> int:
    """NDJSON has one line per row; CSV adds its header record."""
    return n_rows + (1 if fmt == "csv" else 0)


def post_sample(port: int, ref: str, n_rows: int, seed: int, fmt: str):
    """One seeded sample request; returns ``(outcome, latency_s, body)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    started = time.perf_counter()
    try:
        connection.request(
            "POST", f"/v1/models/{ref}/sample",
            body=sample_body(n_rows, seed, fmt),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        body = response.read()
        status = response.status
    except socket.timeout:
        return "timeout", time.perf_counter() - started, b""
    except http.client.IncompleteRead as error:
        return "short", time.perf_counter() - started, error.partial
    except (OSError, http.client.HTTPException):
        return "error", time.perf_counter() - started, b""
    finally:
        connection.close()
    latency = time.perf_counter() - started
    if status == 429:
        return "rejected_429", latency, body
    if status != 200:
        return "non_200", latency, body
    if body.count(b"\n") != expected_lines(n_rows, fmt):
        return "short", latency, body
    return "ok", latency, body


class Phase:
    """Requests attempted, succeeded and failed (by kind) in one phase."""

    def __init__(self):
        self.outcomes: Counter = Counter()
        self._lock = threading.Lock()

    def record(self, outcome: str) -> None:
        with self._lock:
            self.outcomes[outcome] += 1

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.outcomes["ok"]

    def report(self) -> dict:
        return {
            "attempted": self.attempted,
            "succeeded": self.outcomes["ok"],
            "failed": self.failed,
            **{kind: self.outcomes[kind] for kind in OUTCOMES[1:]},
        }


def closed_loop(port, ref, n_rows, fmt, seeds, phase: Phase, clients: int,
                seconds: float = None, min_requests: int = 0,
                requests_per_client: int = None) -> dict:
    """``clients`` threads, each sending its next request when the last ends.

    Runs for ``seconds`` and until ``min_requests`` have completed, or for a
    fixed ``requests_per_client``.  ``seeds(client, index)`` gives each
    request's seed.  The first and every ``DIGEST_EVERY``-th successful body
    of each client is kept as a sha256 digest, keyed by ``(ref, seed)``, so
    the caller can check it against in-process output.
    """
    latencies, digests = [], {}
    lock = threading.Lock()
    completed = [0]
    started = time.perf_counter()
    deadline = None if seconds is None else started + seconds

    def done(index: int) -> bool:
        if requests_per_client is not None:
            return index >= requests_per_client
        with lock:
            return time.perf_counter() >= deadline and completed[0] >= min_requests

    def client(number: int) -> None:
        index = 0
        while not done(index):
            seed = seeds(number, index)
            outcome, latency, body = post_sample(port, ref, n_rows, seed, fmt)
            phase.record(outcome)
            with lock:
                completed[0] += 1
                if outcome == "ok":
                    latencies.append(latency)
                    if index % DIGEST_EVERY == 0:
                        digests[ref, seed] = hashlib.sha256(body).hexdigest()
            index += 1

    threads = [threading.Thread(target=client, args=(number,)) for number in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "wall_s": time.perf_counter() - started,
        "latencies": latencies,
        "digests": digests,
        "rows": len(latencies) * n_rows,
    }

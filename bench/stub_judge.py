"""Stub judge endpoint for the ``judge`` workload.

Run as its own process: ``python3 bench/stub_judge.py``. It
binds 127.0.0.1 on a free port, prints that port on the first line of its
standard output, and serves until terminated.

``POST /`` takes the judge request body ``{"model", "prompt"}``. It waits a
fixed service delay standing in for model latency and answers with a
verdict derived only from the prompt's hash, so the same prompt always gets
the same bytes. Every ``RETRY_EVERY``-th new prompt since the last reset is
answered 503 on its first attempt, so the client's retry path runs, and a
fixed share of prompts (by hash) is answered with capitalised enum values,
so strict validation fails.

``GET /stats`` returns the counters ``requests``, ``status_503``,
``drifted`` and ``max_in_flight``; ``POST /reset`` zeroes them and forgets
which prompts were already answered 503.

Requests are handled on a pool of at most ``os.cpu_count()`` threads.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

#: Fixed wait per request, standing in for model latency.
SERVICE_DELAY_S = 0.003
#: Every this many new prompts, the first attempt is answered 503.
RETRY_EVERY = 5
#: Share of prompts answered with capitalised ("Yes"/"No") enum values.
SHARE_DRIFT = 0.1

_YES_NO_FIELDS = (
    "gt_has_abnormalities",
    "gt_has_devices",
    "gen_has_abnormalities",
    "gen_has_devices",
    "gen_has_correct_abnormalities",
    "gen_has_hallucinated_abnormalities",
    "gen_has_correct_devices",
    "gen_has_hallucinated_devices",
)
_NLI = ("contradiction", "entailment", "neutral")


def prompt_digest(prompt: str) -> bytes:
    return hashlib.sha256(prompt.encode("utf-8")).digest()


def drifts(digest: bytes) -> bool:
    return digest[1] < SHARE_DRIFT * 256


def verdict_text(prompt: str) -> str:
    """The deterministic answer body for one prompt."""
    digest = prompt_digest(prompt)
    verdict = {"reason": f"stub verdict {digest.hex()[:12]}"}
    for i, name in enumerate(_YES_NO_FIELDS):
        value = "yes" if digest[2 + i] & 1 else "no"
        verdict[name] = value.capitalize() if drifts(digest) else value
    verdict["nli_status"] = _NLI[digest[10] % 3]
    return "Verdict follows.\n" + json.dumps(verdict, indent=1)


class StubState:
    """Counters and per-prompt attempt memory, shared by handler threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.requests = 0
            self.status_503 = 0
            self.drifted = 0
            self.in_flight = 0
            self.max_in_flight = 0
            self.seen: set[bytes] = set()

    def stats(self) -> dict[str, int]:
        with self.lock:
            return {
                "requests": self.requests,
                "status_503": self.status_503,
                "drifted": self.drifted,
                "max_in_flight": self.max_in_flight,
            }

    def answer(self, prompt: str) -> tuple[int, str]:
        digest = prompt_digest(prompt)
        with self.lock:
            self.requests += 1
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            refuse = False
            if digest not in self.seen:
                self.seen.add(digest)
                refuse = len(self.seen) % RETRY_EVERY == 0
            if refuse:
                self.status_503 += 1
            elif drifts(digest):
                self.drifted += 1
        try:
            time.sleep(SERVICE_DELAY_S)
            if refuse:
                return 503, "overloaded"
            return 200, verdict_text(prompt)
        finally:
            with self.lock:
                self.in_flight -= 1


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; without this, Nagle's
    # algorithm holds the body back for the client's delayed ACK.
    disable_nagle_algorithm = True
    state: StubState  # set on the subclass built by make_server

    def _send(self, status: int, body: str, content_type: str = "text/plain") -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        if self.path == "/stats":
            self._send(200, json.dumps(self.state.stats()), "application/json")
        else:
            self._send(404, "not found")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/reset":
            self.state.reset()
            self._send(200, "{}", "application/json")
            return
        try:
            prompt = json.loads(body)["prompt"]
        except (ValueError, KeyError, TypeError):
            self._send(400, "bad request")
            return
        status, text = self.state.answer(str(prompt))
        self._send(status, text)

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - base signature
        pass


class PooledHTTPServer(HTTPServer):
    """HTTP server handling each connection on a bounded thread pool."""

    def __init__(self, address, handler, workers: int):
        super().__init__(address, handler)
        self.pool = ThreadPoolExecutor(max_workers=workers)

    def process_request(self, request, client_address) -> None:
        self.pool.submit(self._handle, request, client_address)

    def _handle(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:  # noqa: BLE001 - one bad connection must not stop the server
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        self.pool.shutdown(wait=True)


def make_server(workers: int) -> PooledHTTPServer:
    handler = type("StubHandler", (_Handler,), {"state": StubState()})
    return PooledHTTPServer(("127.0.0.1", 0), handler, workers)


def main() -> int:
    server = make_server(workers=os.cpu_count() or 1)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

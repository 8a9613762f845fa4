"""Local stand-ins for the embedding and LM services, run as a child process.

    python3 benchmarks/servers.py --src SRC_DIR

starts two HTTP servers on 127.0.0.1, prints one JSON line with their URLs,
and serves until its standard input closes.

* The embedding server answers ``{"texts": [...]}`` with ``HashEncoder``
  vectors, so the remote encoder sees exactly what the offline one computes.
* The LM server sleeps 10 ms per request, standing in for model time,
  then answers a classify request with per-label log-probs derived
  from a hash of (prompt, label). The answer is deterministic and depends
  on the demonstration order, which is all the training loop needs.

``GET /stats`` on either server returns what it saw: POST requests, those
answered 200, texts embedded, and connections that carried at least one
POST (the server speaks HTTP/1.1, so a client that keeps connections alive
shows fewer connections than requests).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

LM_DELAY_S = 0.010
EMBED_DIM = 64


def lm_logprobs(prompt: str, labels: list[str]) -> dict[str, float]:
    out = {}
    for label in labels:
        digest = hashlib.sha256(f"{prompt}\0{label}".encode("utf-8")).digest()
        out[label] = -(0.05 + 3.0 * int.from_bytes(digest[:8], "little") / 2**64)
    return out


class Service:
    """One server: a JSON handler plus the counters /stats reports."""

    def __init__(self, answer):
        self.answer = answer
        self.stats = {"requests": 0, "ok": 0, "texts": 0, "connections": 0}
        self.lock = threading.Lock()
        service = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            posted = False

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length) or b"{}")
                with service.lock:
                    service.stats["requests"] += 1
                    if not self.posted:
                        self.posted = True
                        service.stats["connections"] += 1
                status, body = service.answer(payload)
                if status == 200:
                    with service.lock:
                        service.stats["ok"] += 1
                        service.stats["texts"] += len(payload.get("texts", ()))
                self._send(status, body)

            def do_GET(self):
                with service.lock:
                    body = dict(service.stats)
                self._send(200, body)

            def _send(self, status, body):
                data = json.dumps(body).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}/"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the poem package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from poem.encoder import HashEncoder

    encoder = HashEncoder(EMBED_DIM, seed=0)

    def embed(payload):
        vectors = encoder.encode(payload["texts"])
        return 200, {"embeddings": [v.values.tolist() for v in vectors], "dim": EMBED_DIM}

    def score(payload):
        time.sleep(LM_DELAY_S)
        if payload.get("mode") != "classify" or not payload.get("labels"):
            return 400, {"error": "only classify requests with labels are served"}
        return 200, {"per_label_logprob": lm_logprobs(payload["prompt"], payload["labels"])}

    services = {"embed": Service(embed), "lm": Service(score)}
    for service in services.values():
        service.thread.start()
    print(json.dumps({name: s.url for name, s in services.items()}), flush=True)
    sys.stdin.read()  # the parent closes our stdin to stop us
    for service in services.values():
        service.server.shutdown()
        service.server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

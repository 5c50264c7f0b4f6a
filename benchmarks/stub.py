"""Keep-alive chat-completions stub for the eval-http workload.

Run as a script, it serves ``POST /v1/chat/completions`` over HTTP/1.1 with
persistent connections and Nagle's algorithm off (a keep-alive server that
writes headers and body separately otherwise stalls each reply on the
peer's delayed ACK). It answers exactly as the in-process scripted policy
would for the same dialogue and wire ``seed``: the stage follows from the
number of messages and the question from the first prompt, looked up in the
synthetic dataset named by the spec. After composing the reply it sleeps
``base_ms + per_token_us * completion_tokens``, a stand-in for decoding.

For each chat request it records arrival and finish times
(``time.monotonic()``) keyed by the wire seed, and it counts the distinct
connections that carried requests. ``GET /stats`` returns those records and
``POST /stats/reset`` starts a new collection window. It prints
``PORT <n>`` once listening and exits when its standard input closes.

:class:`StubProcess` starts and stops the script from the benchmark.
"""

from __future__ import annotations

import argparse
import http.client
import json
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


class StubState:
    """Request records of the current collection window."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.window = object()
        self.requests: dict[str, tuple[float, float]] = {}
        self.chat_requests = 0
        self.connections = 0
        self.service_s = 0.0

    def record(self, handler, seed, arrival: float, finish: float) -> None:
        with self.lock:
            # a handler instance serves one connection: count it once per window
            if getattr(handler, "window", None) is not self.window:
                handler.window = self.window
                self.connections += 1
            self.chat_requests += 1
            self.service_s += finish - arrival
            self.requests[str(seed)] = (arrival, finish)

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "requests": dict(self.requests),
                "chat_requests": self.chat_requests,
                "connections": self.connections,
                "service_s": self.service_s,
            }


def make_responder(spec: dict):
    """payload -> (text, completion_tokens, finish_reason), as the scripted policy answers."""
    from thinker import (GenerationRequest, PolicyParams, ScriptedPolicyBackend, Stage,
                         SyntheticTaskConfig, gen_synthetic, render_prompt)

    dataset = gen_synthetic(SyntheticTaskConfig(**spec["dataset"]))
    items = {render_prompt(Stage.FAST_THINKING, item): item for item in dataset}
    policy = ScriptedPolicyBackend(PolicyParams(**spec["policy"]))

    def respond(payload: dict):
        messages = tuple(payload["messages"])
        item = items[messages[0]["content"]]
        result = policy.generate(GenerationRequest(
            messages=messages,
            max_tokens=payload["max_tokens"],
            temperature=payload["temperature"],
            seed=payload.get("seed"),
            stage=Stage((len(messages) + 1) // 2),
            item_id=item.id,
            reference_answer=item.answer,
        ))
        return result.text, result.token_count, result.finish_reason

    return respond


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, *args) -> None:
        pass

    def _reply(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._reply(404, b"{}")
            return
        self._reply(200, json.dumps(self.server.state.snapshot()).encode("utf-8"))

    def do_POST(self) -> None:
        arrival = time.monotonic()
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        server = self.server
        if self.path == "/stats/reset":
            with server.state.lock:
                server.state.reset()
            self._reply(200, b"{}")
            return
        if not self.path.endswith("/chat/completions"):
            self._reply(404, b"{}")
            return
        try:
            payload = json.loads(body)
            text, tokens, finish = server.respond(payload)
        except (ValueError, KeyError, TypeError) as exc:
            self._reply(400, json.dumps({"error": repr(exc)}).encode("utf-8"))
            return
        reply = json.dumps({
            "choices": [{"message": {"role": "assistant", "content": text}, "finish_reason": finish}],
            "usage": {"completion_tokens": tokens},
        }).encode("utf-8")
        time.sleep(server.base_s + server.per_token_s * tokens)
        self._reply(200, reply)
        server.state.record(self, payload.get("seed"), arrival, time.monotonic())


def serve(spec: dict) -> None:
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.state = StubState()
    httpd.respond = make_responder(spec)
    httpd.base_s = spec["base_ms"] / 1e3
    httpd.per_token_s = spec["per_token_us"] / 1e6
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {httpd.server_address[1]}", flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes our stdin or exits
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


class StubProcess:
    """The stub script as a child process, stopped by :meth:`close`."""

    def __init__(self, spec: dict, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--spec", json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub failed to start (said {line!r})")
        self.port = int(line.split()[1])
        self.base_url = f"http://127.0.0.1:{self.port}/v1"

    def _call(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body=b"" if method == "POST" else None)
            resp = conn.getresponse()
            data = resp.read()
            if resp.status != 200:
                raise RuntimeError(f"stub {method} {path} answered {resp.status}")
            return json.loads(data)
        finally:
            conn.close()

    def reset(self) -> None:
        self._call("POST", "/stats/reset")

    def stats(self) -> dict:
        return self._call("GET", "/stats")

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True,
                        help="JSON: dataset (SyntheticTaskConfig fields), policy (PolicyParams fields), "
                             "base_ms, per_token_us")
    serve(json.loads(parser.parse_args().spec))

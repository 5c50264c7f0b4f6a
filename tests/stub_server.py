"""Minimal local chat-completions stub for exercising the HTTP backend."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_POST(self):
        owner = self.server.owner
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        with owner.lock:
            index = len(owner.requests)
            owner.requests.append({
                "path": self.path,
                "payload": payload,
                "headers": {k.lower(): v for k, v in self.headers.items()},
            })
        behavior = owner.behavior(payload, index)
        if isinstance(behavior, int):
            behavior = (behavior, {})
        if isinstance(behavior, tuple):
            status, headers = behavior
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if isinstance(behavior, bytes):
            raw = behavior
        else:
            if isinstance(behavior, str):
                behavior = {
                    "choices": [{
                        "message": {"role": "assistant", "content": behavior},
                        "finish_reason": "stop",
                    }],
                    "usage": {"completion_tokens": len(behavior.split())},
                }
            raw = json.dumps(behavior).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)


class StubServer:
    """Context manager running a threaded stub on an ephemeral port.

    behavior(payload, call_index) may return response text (wrapped into a
    well-formed completion), a full JSON body dict, raw bytes (sent as-is),
    an int HTTP status, or a (status, headers dict) pair; a status is sent
    with an empty body.
    """

    def __init__(self, behavior=None):
        self.behavior = behavior or (lambda payload, index: "\\boxed{ok}")
        self.requests = []
        self.lock = threading.Lock()
        self._httpd = None
        self._thread = None

    @property
    def base_url(self):
        host, port = self._httpd.server_address
        return f"http://{host}:{port}/v1"

    def __enter__(self):
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._httpd.owner = self
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)
        return False

"""Minimal local chat-completions stub for exercising the HTTP backend."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _Handler(BaseHTTPRequestHandler):
    disable_nagle_algorithm = True  # headers and body go out in separate writes

    def log_message(self, *args):
        pass

    def setup(self):
        super().setup()
        owner = self.server.owner
        if owner.keep_alive:
            self.protocol_version = "HTTP/1.1"
        with owner.lock:
            owner.connections += 1  # one handler instance serves one connection

    def do_POST(self):
        owner = self.server.owner
        if owner.keep_alive == "drop":
            self.close_connection = True  # after this reply, without saying so
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

    The stub speaks HTTP/1.0 and closes each connection after its reply,
    unless keep_alive is True (HTTP/1.1, connections stay open) or "drop"
    (HTTP/1.1 without a Connection: close header, yet the socket is closed
    after each reply, as a server drops an idle keep-alive connection).
    connections counts the connections accepted.
    """

    def __init__(self, behavior=None, keep_alive=False):
        self.behavior = behavior or (lambda payload, index: "\\boxed{ok}")
        self.keep_alive = keep_alive
        self.connections = 0
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
        # a short poll interval: shutdown() waits up to one interval
        self._thread = threading.Thread(target=self._httpd.serve_forever, kwargs={"poll_interval": 0.01},
                                        daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)
        return False

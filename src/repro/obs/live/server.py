"""Dependency-free live metrics endpoint (`/metrics`, `/snapshot.json`).

A :class:`ObsServer` wraps a stdlib ``ThreadingHTTPServer`` on a daemon
thread, serving the *currently active* registry (or an explicitly bound
one) at request time:

- ``/metrics``        — Prometheus text exposition (scrape target);
- ``/snapshot.json``  — the full metric + span snapshot (``repro top``
  polls this for deltas);
- ``/trace.json``     — Chrome trace-event JSON of the span buffer;
- ``/flight.json``    — the flight-recorder rings, when armed;
- ``/healthz``        — liveness JSON (uptime, pid, series count).

Start in-process with ``obs.serve(port=...)`` or from the long-running
CLIs via ``--metrics-port``.  ``port=0`` binds an ephemeral port; the
resolved address is on :attr:`ObsServer.url`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import urlsplit

from repro.obs import recorder
from repro.obs.exporters import chrome_trace, prometheus_text, to_json
from repro.obs.live.flight import active_flight
from repro.obs.registry import MetricRegistry

__all__ = ["ObsServer", "serve"]

_EMPTY_SNAPSHOT = {"metrics": [], "spans": []}


class _ObsHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    obs_server: "ObsServer"


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-obs"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # scrape traffic must not spam the CLI's stdout/stderr

    def _respond(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        owner: ObsServer = self.server.obs_server
        path = urlsplit(self.path).path
        try:
            if path == "/metrics":
                body = prometheus_text(owner.snapshot(spans=False))
                ctype = "text/plain; version=0.0.4; charset=utf-8"
            elif path in ("/snapshot.json", "/snapshot"):
                body = to_json(owner.snapshot())
                ctype = "application/json"
            elif path in ("/trace.json", "/trace"):
                body = json.dumps(chrome_trace(owner.snapshot())) + "\n"
                ctype = "application/json"
            elif path in ("/flight.json", "/flight"):
                flight = active_flight()
                if flight is None:
                    self._respond(
                        404,
                        '{"error": "flight recorder not armed"}\n',
                        "application/json",
                    )
                    owner.count_request(path)
                    return
                body = json.dumps(flight.snapshot(), default=str) + "\n"
                ctype = "application/json"
            elif path == "/healthz":
                body = json.dumps(owner.health()) + "\n"
                ctype = "application/json"
            else:
                self._respond(404, '{"error": "not found"}\n',
                              "application/json")
                return
        except Exception as err:  # repro: noqa(R106) — must answer 500
            self._respond(500, json.dumps({"error": str(err)}) + "\n",
                          "application/json")
            return
        self._respond(200, body, ctype)
        owner.count_request(path)


class ObsServer:
    """Threaded HTTP exporter of the obs registry; near-zero when idle.

    With ``registry=None`` the server reads whatever registry is active
    (:func:`repro.obs.active`) at each request, so it keeps serving
    across ``obs.using`` scopes; binding an explicit registry pins it.
    """

    def __init__(
        self,
        registry: Optional[MetricRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._registry = registry
        self.host = host
        self.requested_port = int(port)
        self._httpd: Optional[_ObsHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None

    # ------------------------------------------------------------------
    def snapshot(self, spans: bool = True):
        registry = self._registry if self._registry is not None \
            else recorder.active()
        return registry.snapshot(spans) if registry is not None \
            else dict(_EMPTY_SNAPSHOT)

    def health(self) -> dict:
        registry = self._registry if self._registry is not None \
            else recorder.active()
        return {
            "status": "ok",
            "pid": os.getpid(),
            "uptime_seconds": (
                0.0 if self._started_at is None
                else time.time() - self._started_at
            ),
            "recording": registry is not None,
            "series": 0 if registry is None else len(registry),
            "flight": active_flight() is not None,
        }

    def count_request(self, path: str) -> None:
        registry = self._registry if self._registry is not None \
            else recorder.active()
        if registry is not None:
            registry.counter("obs_live_requests_total", path=path).inc()

    # ------------------------------------------------------------------
    def start(self) -> "ObsServer":
        if self._httpd is not None:
            return self
        httpd = _ObsHTTPServer((self.host, self.requested_port), _Handler)
        httpd.obs_server = self
        self._httpd = httpd
        self._started_at = time.time()
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-obs-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._httpd is None:
            return self.requested_port
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False


def serve(
    port: int = 0,
    host: str = "127.0.0.1",
    registry: Optional[MetricRegistry] = None,
) -> ObsServer:
    """Start a live metrics endpoint; returns the running server.

    When observability is off and no registry is passed, a fresh
    registry is enabled process-wide first, so ``obs.serve(port=9099)``
    is a one-call opt-in to the live plane.
    """
    if registry is None and not recorder.is_enabled():
        recorder.enable()
    return ObsServer(registry=registry, host=host, port=port).start()

"""Zero-dependency HTTP front end for :class:`~repro.service.core.QueryService`.

Endpoints
---------
``POST /query``
    Body: ``{"sql": "...", "strict": false, "tags": false}`` (only
    ``sql`` is required; other keys are ignored).
    Replies ``200`` with ``{"columns", "rows", "row_count"}`` —
    plus per-cell ``"tags"`` when requested against a tagged source —
    ``400`` on malformed requests or query errors, ``503`` with
    ``{"error": "overloaded"}`` when admission control sheds the
    query, ``500`` on unexpected faults.

``GET /health``
    ``{"status": "ok"}`` plus the service name.

``GET /stats``
    The service's counters (:meth:`QueryService.stats`).

``GET /metrics``
    The global metric registry in Prometheus text format (populated
    while :func:`repro.obs.enable` is on).

Built on :class:`http.server.ThreadingHTTPServer`: each connection
gets a handler thread, and the handler blocks on the service ticket —
so the *service's* worker pool and bounded queue remain the real
concurrency and admission limits.

Connections are keep-alive (HTTP/1.1).  Each response leaves in one
send with ``TCP_NODELAY`` set, so a client waiting for it never waits
on its own delayed ACK.  A reply sent before the request body was read
(unknown path, bad or oversized ``Content-Length``) closes the
connection: the unread bytes would otherwise parse as the next request.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional

from repro.errors import (
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.service.core import QueryService
from repro.tagging.relation import TaggedRelation

#: Request-body size cap (1 MiB): statements are text, not bulk loads.
MAX_BODY_BYTES = 1 << 20


def relation_to_payload(
    relation: Any, include_tags: bool = False
) -> dict[str, Any]:
    """Serialize a query result relation as the JSON response payload."""
    columns = list(relation.schema.column_names)
    payload: dict[str, Any] = {
        "columns": columns,
        "rows": [list(row.values_tuple()) for row in relation],
        "row_count": len(relation),
    }
    if include_tags and isinstance(relation, TaggedRelation):
        payload["tags"] = [
            {
                name: cell.tags_dict()
                for name, cell in row.cells_dict().items()
                if cell.tags
            }
            for row in relation
        ]
    return payload


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`QueryService`."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: QueryService,
        quiet: bool = True,
    ) -> None:
        self.service = service
        self.quiet = quiet
        super().__init__(address, _ServiceRequestHandler)


def make_server(
    service: QueryService, host: str = "127.0.0.1", port: int = 8080
) -> ServiceHTTPServer:
    """Bind a :class:`ServiceHTTPServer` (``port=0`` picks a free port)."""
    return ServiceHTTPServer((host, port), service)


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    # Headers and body must not leave as two small writes: Nagle's
    # algorithm holds the second until the client ACKs the first, and a
    # keep-alive client delays that ACK (~40 ms on Linux).  So they
    # collect in a buffered wfile that the stdlib flushes after each
    # request (one send when they fit its 8 KiB), and Nagle is off.
    wbufsize = -1
    disable_nagle_algorithm = True
    #: Whether the current request declares a body not yet read.
    _unread_body = False

    server: ServiceHTTPServer  # narrowed for attribute access

    # -- plumbing --------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if not self.server.quiet:  # pragma: no cover - default is quiet
            super().log_message(format, *args)

    def _reply(
        self,
        status: int,
        payload: Any,
        content_type: str = "application/json",
    ) -> None:
        if isinstance(payload, (dict, list)):
            # default=str renders dates/datetimes (DATE/DATETIME domains)
            # and any other non-JSON scalar as their string form.
            body = json.dumps(payload, default=str).encode("utf-8")
        else:
            body = str(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._unread_body:
            # The body's bytes would parse as the next request line, so
            # end the connection.
            self.close_connection = True
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _reply_error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    def handle_expect_100(self) -> bool:
        # A client that sent "Expect: 100-continue" withholds the body
        # until it sees the interim reply, which the buffered wfile
        # would otherwise hold until the final response.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _declares_body(self) -> bool:
        """Whether the request's headers announce a body."""
        length = self.headers.get("Content-Length")
        return "Transfer-Encoding" in self.headers or (
            length is not None and length.strip() != "0"
        )

    # -- GET -------------------------------------------------------------------

    def do_GET(self) -> None:
        self._unread_body = self._declares_body()
        if self.path == "/health":
            self._reply(
                200, {"status": "ok", "service": self.server.service.name}
            )
        elif self.path == "/stats":
            self._reply(200, self.server.service.stats())
        elif self.path == "/metrics":
            from repro.obs import global_registry, to_prometheus

            self._reply(
                200,
                to_prometheus(global_registry()),
                content_type="text/plain; version=0.0.4",
            )
        else:
            self._reply_error(404, f"no such endpoint: {self.path}")

    # -- POST ------------------------------------------------------------------

    def do_POST(self) -> None:
        self._unread_body = self._declares_body()
        if self.path != "/query":
            self._reply_error(404, f"no such endpoint: {self.path}")
            return
        request = self._read_request()
        if request is None:
            return  # error already sent
        sql, strict, include_tags = request
        service = self.server.service
        try:
            result = service.execute(sql, strict=strict)
        except ServiceOverloadedError:
            self._reply_error(503, "overloaded")
            return
        except ServiceClosedError:
            self._reply_error(503, "shutting down")
            return
        except ReproError as exc:
            # SQLError, analysis errors, constraint errors, ... — all
            # derive from ReproError: the caller's statement is at fault.
            self._reply_error(400, str(exc))
            return
        except Exception as exc:  # pragma: no cover - defensive
            self._reply_error(500, f"internal error: {exc}")
            return
        self._reply(200, relation_to_payload(result, include_tags))

    def _read_request(
        self,
    ) -> Optional[tuple[str, bool, bool]]:
        """Parse the POST body; replies 400 and returns None on errors."""
        if "Transfer-Encoding" in self.headers:
            self._reply_error(400, "send the body with a Content-Length")
            return None
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self._reply_error(400, f"invalid Content-Length: {declared!r}")
            return None
        length = int(declared)
        if length == 0:
            self._reply_error(400, "request body required")
            return None
        if length > MAX_BODY_BYTES:
            self._reply_error(400, "request body too large")
            return None
        raw = self.rfile.read(length)
        self._unread_body = False
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._reply_error(400, f"invalid JSON body: {exc}")
            return None
        if not isinstance(document, dict):
            self._reply_error(400, "body must be a JSON object")
            return None
        sql = document.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            self._reply_error(400, 'body must carry a non-empty "sql" string')
            return None
        strict = document.get("strict", False)
        include_tags = document.get("tags", False)
        for option, value in (("strict", strict), ("tags", include_tags)):
            if not isinstance(value, bool):
                self._reply_error(400, f'option "{option}" must be a boolean')
                return None
        return sql, strict, include_tags

"""The HTTP front end: POST /query, health/stats/metrics, error mapping."""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.relational.catalog import Database
from repro.relational.schema import schema
from repro.service import QueryService
from repro.service.http import MAX_BODY_BYTES, make_server, relation_to_payload
from repro.sql import clear_plan_cache


@pytest.fixture()
def served():
    """A live server over a small database; yields (base_url, db, service)."""
    clear_plan_cache()
    db = Database("corp")
    db.create_relation(
        schema("t", [("a", "INT"), ("b", "STR")], key=["a"])
    )
    db.insert_many("t", [{"a": i, "b": f"x{i % 3}"} for i in range(10)])
    service = QueryService(db, workers=2, name="test-http")
    server = make_server(service, "127.0.0.1", 0)  # free port
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", db, service
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        clear_plan_cache()


def post_query(base, payload):
    request = urllib.request.Request(
        base + "/query",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


def raw_exchange(base, data):
    """Send raw request bytes; return every reply byte until the close."""
    url = urllib.parse.urlsplit(base)
    chunks = []
    with socket.create_connection((url.hostname, url.port), timeout=10) as sock:
        sock.sendall(data)
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break  # closed with our pipelined bytes unread
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def split_responses(data):
    """Parse back-to-back HTTP responses into (status, headers, body)."""
    responses = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {
            name.strip().lower(): value.strip()
            for name, value in (line.split(":", 1) for line in lines)
        }
        length = int(headers["content-length"])
        responses.append((int(status_line.split()[1]), headers, data[:length]))
        data = data[length:]
    return responses


def raw_post(path, body, extra=b""):
    return (
        b"POST %s HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n%s\r\n%s" % (path, len(body), extra, body)
    )


def test_post_query_returns_rows(served):
    base, _, _ = served
    status, payload = post_query(
        base, {"sql": "SELECT a, b FROM t WHERE a < 3 ORDER BY a"}
    )
    assert status == 200
    assert payload["columns"] == ["a", "b"]
    assert payload["rows"] == [[0, "x0"], [1, "x1"], [2, "x2"]]
    assert payload["row_count"] == 3


def test_post_query_honors_execution_options(served):
    base, _, _ = served
    # strict: type-incompatible comparison becomes a 400, not empty rows
    status, payload = post_query(
        base, {"sql": "SELECT a FROM t WHERE a = 'zzz'", "strict": True}
    )
    assert status == 400 and "error" in payload
    # "planner" is no request option: the engine still answers EXPLAIN
    status, payload = post_query(
        base,
        {"sql": "EXPLAIN SELECT a FROM t WHERE a = 1", "planner": False},
    )
    assert status == 200 and payload["columns"] == ["plan"]


def test_post_explain_analyze(served):
    base, _, _ = served
    status, payload = post_query(
        base, {"sql": "EXPLAIN ANALYZE SELECT a FROM t WHERE a = 1"}
    )
    assert status == 200
    assert payload["columns"] == ["plan"]
    assert any("time=" in row[0] for row in payload["rows"])


def test_malformed_requests_get_400(served):
    base, _, _ = served
    assert post_query(base, {"sql": "SELEC broken"})[0] == 400
    assert post_query(base, {"nosql": 1})[0] == 400
    assert post_query(base, {"sql": "   "})[0] == 400
    assert post_query(base, {"sql": "SELECT a FROM t", "strict": "yes"})[0] == 400
    assert post_query(base, {"sql": "SELECT a FROM t", "tags": 1})[0] == 400
    # non-object body
    request = urllib.request.Request(base + "/query", data=b"[1, 2]")
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request, timeout=10)
    assert info.value.code == 400
    # invalid JSON
    request = urllib.request.Request(base + "/query", data=b"{nope")
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request, timeout=10)
    assert info.value.code == 400
    # empty body
    request = urllib.request.Request(base + "/query", data=b"")
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request, timeout=10)
    assert info.value.code == 400


@pytest.mark.parametrize(
    "framing",
    [
        b"Content-Length: abc\r\n\r\n{}",
        b"Content-Length: -5\r\n\r\n{}",
        b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
    ],
)
def test_malformed_content_length_gets_400(served, framing):
    base, _, _ = served
    request = b"POST /query HTTP/1.1\r\nHost: test\r\n" + framing
    [(status, headers, body)] = split_responses(raw_exchange(base, request))
    assert status == 400
    assert "Content-Length" in json.loads(body)["error"]
    assert headers["connection"] == "close"


def test_early_replies_close_instead_of_desynchronizing(served):
    """A reply sent with the body unread ends the connection.

    Kept open, the unread body bytes parse as the next request line, so
    a valid request pipelined behind them got "400 Bad request syntax".
    """
    base, _, _ = served
    valid = raw_post(
        b"/query",
        json.dumps({"sql": "SELECT a FROM t WHERE a = 1"}).encode(),
        b"Connection: close\r\n",
    )
    unknown_path = raw_post(b"/elsewhere", b'{"sql": "SELECT a FROM t"}')
    # Declares more than the cap; only the body's first bytes follow.
    too_large = (
        b"POST /query HTTP/1.1\r\nHost: test\r\n"
        b'Content-Length: %d\r\n\r\n{"sql": ' % (MAX_BODY_BYTES + 1)
    )
    for early, status in ((unknown_path, 404), (too_large, 400)):
        first, *rest = split_responses(raw_exchange(base, early + valid))
        # The pipelined request gets its own answer or a clean close.
        assert [reply[0] for reply in rest] in ([], [200])
        assert first[0] == status
        assert first[1]["connection"] == "close"
    # A 400 sent after the body was read keeps the connection open.
    bad_json = raw_post(b"/query", b"{no")
    replies = split_responses(raw_exchange(base, bad_json + valid))
    assert [reply[0] for reply in replies] == [400, 200]
    assert json.loads(replies[1][2])["rows"] == [[1]]


def test_expect_100_continue_is_answered_before_the_body(served):
    base, _, _ = served
    url = urllib.parse.urlsplit(base)
    body = json.dumps({"sql": "SELECT a FROM t WHERE a = 1"}).encode()
    head = raw_post(b"/query", body, b"Expect: 100-continue\r\n")[: -len(body)]
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.sendall(head)
        # Like curl, send the body only once the interim reply arrived.
        assert sock.recv(65536).startswith(b"HTTP/1.1 100 Continue\r\n")
        sock.sendall(body)
        reply = b""
        while b'"row_count": 1}' not in reply:
            chunk = sock.recv(65536)
            assert chunk, reply
            reply += chunk
    [(status, _, payload)] = split_responses(reply)
    assert status == 200 and json.loads(payload)["rows"] == [[1]]


def test_keep_alive_requests_do_not_wait_for_delayed_acks(served):
    """Sequential requests on one connection answer in a few ms.

    Sent as two writes, each response's body waited for the client's
    delayed ACK of the headers (~40 ms on Linux) under Nagle's algorithm.
    """
    base, _, _ = served
    url = urllib.parse.urlsplit(base)
    connection = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    body = json.dumps({"sql": "SELECT a, b FROM t WHERE a = 4"}).encode()
    latencies = []
    try:
        for _ in range(20):
            began = time.perf_counter()
            connection.request(
                "POST", "/query", body, {"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            latencies.append(time.perf_counter() - began)
            assert response.status == 200
            assert payload == {
                "columns": ["a", "b"],
                "rows": [[4, "x1"]],
                "row_count": 1,
            }
    finally:
        connection.close()
    assert statistics.median(latencies) < 0.020, latencies


def test_unknown_paths_get_404(served):
    base, _, _ = served
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(base + "/nope", timeout=10)
    assert info.value.code == 404
    assert post_query(base, {"sql": "SELECT a FROM t"})[0] == 200
    request = urllib.request.Request(base + "/elsewhere", data=b"{}")
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request, timeout=10)
    assert info.value.code == 404


def test_health_stats_metrics_endpoints(served):
    base, _, service = served
    status, body = get(base, "/health")
    assert status == 200
    assert json.loads(body) == {"status": "ok", "service": "test-http"}
    post_query(base, {"sql": "SELECT a FROM t"})
    status, body = get(base, "/stats")
    assert status == 200
    stats = json.loads(body)
    assert stats["completed"] >= 1 and stats["name"] == "test-http"
    status, body = get(base, "/metrics")
    assert status == 200  # exposition text; may be empty when obs is off


def test_overload_maps_to_503(served):
    base, db, _ = served
    gate = threading.Event()
    slow = QueryService(
        db,
        workers=1,
        max_pending=1,
        name="tiny",
        runner=lambda fn: (gate.wait(5), fn())[1],
    )
    server = make_server(slow, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    tiny = f"http://{host}:{port}"
    try:
        # saturate: worker blocked on the gate + a full queue, so POSTs
        # from extra threads pile up until one is shed with 503.
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    post_query(tiny, {"sql": "SELECT a FROM t"})
                )
            )
            for _ in range(6)
        ]
        for t in threads:
            t.start()
        import time

        deadline = time.time() + 5
        while time.time() < deadline:
            if any(status == 503 for status, _ in results):
                break
            time.sleep(0.05)
        gate.set()
        for t in threads:
            t.join(timeout=10)
        assert any(status == 503 for status, _ in results)
        overloaded = [p for status, p in results if status == 503]
        assert all(p == {"error": "overloaded"} for p in overloaded)
        assert any(status == 200 for status, _ in results)
    finally:
        gate.set()
        server.shutdown()
        server.server_close()
        slow.close()


def test_tagged_results_can_include_tags(tagged_customers):
    clear_plan_cache()
    with QueryService(tagged_customers, workers=1) as service:
        server = make_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            status, payload = post_query(
                base,
                {
                    "sql": "SELECT co_name, address FROM customer "
                    "ORDER BY co_name",
                    "tags": True,
                },
            )
            assert status == 200
            assert payload["row_count"] == len(tagged_customers)
            assert "tags" in payload
            assert any(
                "address" in row_tags for row_tags in payload["tags"]
            )
        finally:
            server.shutdown()
            server.server_close()
    clear_plan_cache()


def test_relation_to_payload_serializes_dates():
    from datetime import date

    from repro.relational.relation import Relation
    from repro.relational.schema import schema as make_schema

    relation = Relation(make_schema("d", [("day", "DATE")]))
    relation.insert({"day": date(2026, 8, 8)})
    payload = relation_to_payload(relation)
    assert json.dumps(payload, default=str)  # round-trips through JSON


def test_module_main_serves_banner_and_shuts_down(monkeypatch, capsys):
    """``python -m repro.service`` wires scenario → service → server.

    ``serve_forever`` is replaced with an immediate KeyboardInterrupt so
    the whole lifecycle (build, banner, interrupt, close) runs inline.
    """
    import repro.service.__main__ as service_main
    from repro.obs import metrics as obs_metrics

    real_make_server = service_main.make_server

    def interrupted_make_server(service, host, port):
        server = real_make_server(service, host, port)

        def interrupt():
            raise KeyboardInterrupt

        server.serve_forever = interrupt
        return server

    monkeypatch.setattr(service_main, "make_server", interrupted_make_server)
    try:
        exit_code = service_main.main(
            ["--port", "0", "--scenario", "columnar", "--scale", "128"]
        )
    finally:
        obs_metrics.disable()
    assert exit_code == 0
    banner = capsys.readouterr().out
    assert "POST http://" in banner
    assert "/query" in banner
    clear_plan_cache()

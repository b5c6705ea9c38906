#!/usr/bin/env python3
"""CI smoke client for the `uhcg serve` daemon (schema uhcg-serve-v1).

Drives one daemon through the robustness contract:
  * a burst of valid requests (ping, simulate cold + warm, explore,
    generate with transactional output, status) — every request answered
    exactly once with the id echoed;
  * malformed traffic from separate connections (truncated frame,
    oversized declared length, invalid JSON, unknown method, a model
    nested 30,000 deep, mid-request disconnect) — each yields a structured
    serve.* error or a dropped connection, and the daemon keeps serving
    afterwards;
  * a warm-cache proof: the second simulate of the same model must be a
    cache hit and report nonzero serve.cache_hits in status.

With --fire-and-forget it sends one generate request and exits without
reading the response — the SIGTERM-mid-flight half of the drain test.

Startup is failure-aware: with --daemon-pid/--daemon-log the script polls
for the socket under a deadline, detects the daemon dying before it binds
(the historical hang: a shell loop sleeping its full budget against a
crashed daemon, then failing with no explanation), and dumps the daemon's
log so the CI failure is readable without re-running the job.
"""
import json
import os
import socket
import struct
import sys
import time

MAX_FRAME = 16 << 20
IO_TIMEOUT_S = 60.0
BIND_DEADLINE_S = 15.0

# Filled from --daemon-pid / --daemon-log so failures anywhere in the
# burst can say what the daemon was doing when it happened.
DAEMON_PID = None
DAEMON_LOG = None


def fail(message):
    print(f"serve smoke: FAIL: {message}", file=sys.stderr)
    if DAEMON_PID is not None:
        state = "still running" if daemon_alive(DAEMON_PID) else "dead"
        print(f"serve smoke: daemon pid {DAEMON_PID} is {state}",
              file=sys.stderr)
    if DAEMON_LOG and os.path.exists(DAEMON_LOG):
        print(f"--- daemon log ({DAEMON_LOG}) ---", file=sys.stderr)
        with open(DAEMON_LOG, errors="replace") as f:
            sys.stderr.write(f.read())
        print("--- end daemon log ---", file=sys.stderr)
    sys.exit(1)


def daemon_alive(pid):
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


def wait_for_socket(path):
    """Poll for the listening socket under a deadline, failing fast (with
    the daemon log) the moment the daemon dies instead of sleeping out the
    whole budget against a corpse."""
    deadline = time.monotonic() + BIND_DEADLINE_S
    while time.monotonic() < deadline:
        if DAEMON_PID is not None and not daemon_alive(DAEMON_PID):
            fail(f"daemon died before binding {path}")
        if os.path.exists(path):
            try:
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                probe.settimeout(IO_TIMEOUT_S)
                probe.connect(path)
                probe.close()
                return
            except OSError:
                pass  # bound but not accepting yet — keep polling
        time.sleep(0.05)
    fail(f"daemon did not accept on {path} within {BIND_DEADLINE_S:.0f}s")


def connect(path):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(IO_TIMEOUT_S)
    try:
        s.connect(path)
    except OSError as e:
        fail(f"cannot connect to {path}: {e}")
    return s


def send_frame(sock, payload):
    if isinstance(payload, (dict, list)):
        payload = json.dumps(payload)
    data = payload.encode() if isinstance(payload, str) else payload
    sock.sendall(struct.pack(">I", len(data)) + data)


def recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def recv_frame(sock):
    header = recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    assert length <= MAX_FRAME, f"daemon sent oversized frame: {length}"
    body = recv_exact(sock, length)
    return None if body is None else json.loads(body)


def rpc(sock, request):
    send_frame(sock, request)
    response = recv_frame(sock)
    assert response is not None, f"connection died answering {request!r}"
    assert response["schema"] == "uhcg-serve-v1", response
    return response


def expect_error(response, code):
    assert response["ok"] is False, response
    assert response["error"]["code"] == code, response


def flag_value(args, flag):
    if flag not in args:
        return None
    i = args.index(flag)
    if i + 1 >= len(args):
        fail(f"{flag} needs a value")
    value = args[i + 1]
    del args[i:i + 2]
    return value


def main():
    global DAEMON_PID, DAEMON_LOG
    args = sys.argv[1:]
    pid = flag_value(args, "--daemon-pid")
    DAEMON_PID = int(pid) if pid is not None else None
    DAEMON_LOG = flag_value(args, "--daemon-log")

    path = args[0]
    wait_for_socket(path)
    xmi = open(args[1]).read()
    # Optional second model with a feedback cycle: simulate must reject it
    # structurally (serve.bad-model), never serve.internal or a crash.
    cyclic_xmi = None
    extra = [a for a in args[2:] if not a.startswith("--")]
    if extra:
        cyclic_xmi = open(extra[0]).read()

    if "--fire-and-forget" in args:
        s = connect(path)
        send_frame(s, {"method": "generate", "id": "inflight",
                       "model_xmi": xmi, "params": {"out": "gen_out"}})
        # Exit without reading: the daemon must finish or reject this
        # in-flight request during the SIGTERM drain without crashing.
        s.close()
        return

    # --- valid burst, one pipelined connection ------------------------------
    s = connect(path)
    assert rpc(s, {"method": "ping", "id": 1})["result"]["pong"] is True

    cold = rpc(s, {"method": "simulate", "id": 2, "model_xmi": xmi})
    assert cold["ok"], cold
    assert cold["cache"] == "miss", cold
    model_hash = cold["model_hash"]

    warm = rpc(s, {"method": "simulate", "id": 3, "model_hash": model_hash})
    assert warm["ok"], warm
    assert warm["cache"] == "hit", warm
    assert warm["result"]["makespan"] == cold["result"]["makespan"], (cold, warm)

    explore = rpc(s, {"method": "explore", "id": 4, "model_hash": model_hash,
                      "params": {"jobs": 2}})
    assert explore["ok"] and explore["result"]["candidates"] > 0, explore

    generate = rpc(s, {"method": "generate", "id": 5, "model_hash": model_hash,
                       "params": {"out": "gen_out", "with_kpn": True}})
    assert generate["ok"], generate
    assert generate["result"]["files"], generate
    assert generate["result"]["committed"] > 0, generate

    if cyclic_xmi is not None:
        bad = rpc(s, {"method": "simulate", "id": 7, "model_xmi": cyclic_xmi})
        expect_error(bad, "serve.bad-model")

    status = rpc(s, {"method": "status", "id": 6})
    assert status["ok"], status
    cache = status["result"]["cache"]
    assert cache["hits"] > 0 and cache["entries"] >= 1, status
    s.close()

    # --- malformed traffic, one connection per case -------------------------
    # Truncated frame: declare 64 bytes, send 10, hang up.
    s = connect(path)
    s.sendall(struct.pack(">I", 64) + b"0123456789")
    s.close()

    # Oversized declared length: answered structurally, then dropped.
    s = connect(path)
    s.sendall(struct.pack(">I", 1 << 30))
    expect_error(recv_frame(s), "serve.frame")
    s.close()

    # Invalid JSON and unknown method: structured errors, connection lives.
    s = connect(path)
    expect_error(rpc(s, "{this is not json"), "serve.parse")
    expect_error(rpc(s, {"method": "frobnicate", "id": 9}),
                 "serve.unknown-method")
    expect_error(rpc(s, {"method": "simulate", "id": 10,
                         "model_hash": "doesnotexist"}),
                 "serve.unknown-model")
    expect_error(rpc(s, {"method": "simulate", "id": 11,
                         "model_xmi": "<not-xmi>"}), "serve.model-invalid")
    # Zero-length frame: empty payload is a parse error, not a crash.
    send_frame(s, b"")
    expect_error(recv_frame(s), "serve.parse")
    s.close()

    # Deep nesting: a 30,000-deep model is one request's xml.depth error,
    # never a parser stack overflow that takes the daemon down.
    s = connect(path)
    deep = "<a>" * 30000 + "</a>" * 30000
    bad = rpc(s, {"method": "simulate", "id": 13, "model_xmi": deep})
    expect_error(bad, "serve.model-invalid")
    assert any(d["code"] == "xml.depth" for d in bad.get("diagnostics", [])), bad
    assert rpc(s, {"method": "ping", "id": 14})["ok"]
    s.close()

    # Mid-request disconnect, then prove the daemon still serves.
    s = connect(path)
    s.sendall(struct.pack(">I", 1000))
    s.close()
    s = connect(path)
    assert rpc(s, {"method": "ping", "id": 12})["ok"]
    s.close()
    print("serve smoke: burst + malformed corpus ok "
          f"(model {model_hash}, warm hits {cache['hits']})")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        fail(f"contract violation: {e}")
    except socket.timeout:
        fail(f"daemon stopped responding (I/O timeout {IO_TIMEOUT_S:.0f}s)")

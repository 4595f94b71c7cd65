#!/usr/bin/env python3
"""Minimal xtalkd client: one xtalk.request.v1 in, one response out.

Stdlib only (socket/json/argparse), so it runs anywhere Python does —
CI smoke jobs, operator shells, quick protocol experiments:

    xtalkd --socket /tmp/xtalkd.sock &
    tools/xtalkd_client.py --socket /tmp/xtalkd.sock --qasm in.qasm \
        --scheduler xtalk --report
    tools/xtalkd_client.py --socket /tmp/xtalkd.sock --kind stats
    tools/xtalkd_client.py --socket /tmp/xtalkd.sock --kind shutdown

`--kind stats` returns a live xtalk.svcstats.v1 snapshot (phase latency
percentiles, cache rates, admission counts) in the response's "stats"
field; tools/xtalk_top.py turns it into a refreshing dashboard.
`--trace-seed N` mints a deterministic trace id into the request so one
grep over the daemon's journal follows the request end to end.

Prints the raw response line (one JSON object) to stdout and exits
with the same code the equivalent xtalkc run would use (the
common/status.h table): 0 ok, 1 io_error, 2 error/rejected/timeout,
3 internal.

Chaos mode (--chaos) turns the client into a hostile peer: it runs
socket-level abuse scenarios against a live daemon — truncated frames,
mid-request disconnects, slow-drip writes, connection floods past the
admission gate, oversized lines, garbage JSON — and after every
scenario asserts the daemon still answers `ping` with its inflight
count drained to zero. Exit 0 means the daemon survived the campaign:

    tools/xtalkd_client.py --socket /tmp/xtalkd.sock --chaos
    tools/xtalkd_client.py --socket /tmp/xtalkd.sock --chaos flood,oversized
"""
import argparse
import json
import os
import socket
import sys
import threading
import time

# Mirror of ExitCodeFor() in src/common/status.h.
EXIT_CODES = {
    "ok": 0,
    "io_error": 1,
    "error": 2,
    "internal": 3,
    "rejected": 2,
    "timeout": 2,
}

_MASK64 = (1 << 64) - 1


def _splitmix64(state):
    """One SplitMix64 step; mirrors src/telemetry/trace_context.cc so a
    seed mints the same trace ids here as `xtalkc --trace-seed`."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def mint_trace(seed):
    """Deterministic {id, span} wire object for xtalk.request.v1."""
    state, hi = _splitmix64(seed)
    state, lo = _splitmix64(state)
    _, span = _splitmix64(state)
    if hi == 0 and lo == 0:
        lo = 1  # The all-zero trace id means "no trace".
    return {"id": "%016x%016x" % (hi, lo), "span": "%016x" % span}


def build_request(args):
    request = {
        "schema": "xtalk.request.v1",
        "id": args.id,
        "kind": args.kind,
    }
    trace_seed = args.trace_seed
    if trace_seed is None and os.environ.get("XTALK_TRACE_SEED"):
        try:
            trace_seed = int(os.environ["XTALK_TRACE_SEED"])
        except ValueError:
            trace_seed = None
    if trace_seed is not None:
        request["trace"] = mint_trace(trace_seed)
    if args.kind == "compile":
        with open(args.qasm, "r", encoding="utf-8") as handle:
            request["qasm"] = handle.read()
        request["device"] = args.device
        if args.device_file:
            request["device_file"] = args.device_file
        request["layout"] = args.layout
        request["scheduler"] = args.scheduler
        if args.schedulers:
            request["scheduler"] = "portfolio"
            request["schedulers"] = args.schedulers.split(",")
        request["omega"] = args.omega
        if args.characterization:
            request["characterization_path"] = args.characterization
        if args.simulate:
            request["simulate_shots"] = args.simulate
        if args.report:
            request["want_report"] = True
        if args.deadline_ms:
            request["deadline_ms"] = args.deadline_ms
    return request


def wait_for_socket(path, timeout_s):
    """Poll until the daemon's socket accepts connections."""
    deadline = time.monotonic() + timeout_s
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            return sock
        except OSError:
            sock.close()
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.1)


# ---------------------------------------------------------------------
# Chaos campaign: every scenario is "abuse the socket some way, then
# prove the daemon still serves". The daemon's contract under hostile
# input is: answer with a structured error or close the connection —
# never hang, never crash, never leak an inflight slot.

CHAOS_QASM = (
    'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
    "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\n"
    "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
)


def _rpc(path, payload, timeout_s=30.0):
    """One request/response exchange; returns the parsed response or
    None if the daemon closed the connection without answering."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout_s)
    try:
        sock.connect(path)
        data = payload if isinstance(payload, bytes) else (
            json.dumps(payload) + "\n").encode("utf-8")
        sock.sendall(data)
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                return None
            buf += chunk
        return json.loads(buf.decode("utf-8"))
    finally:
        sock.close()


def _ping_diagnostics(path, timeout_s=30.0):
    """Ping the daemon; returns its diagnostics as a dict."""
    response = _rpc(
        path, {"schema": "xtalk.request.v1", "id": "chaos-ping",
               "kind": "ping"}, timeout_s)
    if response is None or response.get("status") != "ok":
        raise RuntimeError("daemon did not answer ping: %r" % (response,))
    diag = response.get("diag")
    if not isinstance(diag, dict):
        raise RuntimeError("ping response has no diag object: %r"
                           % (response,))
    return {key: str(int(value)) if float(value).is_integer()
            else str(value) for key, value in diag.items()}


def _assert_alive_and_drained(path, timeout_s=30.0):
    """Ping until inflight=0 and queued=0 (slots drain shortly after
    responses are written); raises if the daemon is gone or leaks."""
    deadline = time.monotonic() + timeout_s
    while True:
        diagnostics = _ping_diagnostics(path, timeout_s)
        if (diagnostics.get("inflight") == "0"
                and diagnostics.get("queued") == "0"):
            return diagnostics
        if time.monotonic() >= deadline:
            raise RuntimeError(
                "inflight never drained: %r" % (diagnostics,))
        time.sleep(0.1)


def chaos_truncated(path, args):
    """Half a JSON request, then close: the daemon must discard the
    unframed bytes without answering or wedging the acceptor."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(args.timeout)
    sock.connect(path)
    sock.sendall(b'{"schema":"xtalk.request.v1","id":"trunc","ki')
    sock.close()
    return "closed mid-frame"


def chaos_disconnect(path, args):
    """A full compile request, disconnect before reading the response:
    the daemon's write fails (EPIPE) but the slot must still drain."""
    request = {
        "schema": "xtalk.request.v1", "id": "chaos-gone",
        "kind": "compile", "qasm": CHAOS_QASM,
        "layout": "trivial", "scheduler": "serial",
    }
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(args.timeout)
    sock.connect(path)
    sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
    sock.close()
    return "vanished before the response"


def chaos_slow_drip(path, args):
    """A valid ping dripped one byte at a time: slow peers are not
    errors, so this must get a normal ok response."""
    payload = (json.dumps(
        {"schema": "xtalk.request.v1", "id": "chaos-drip",
         "kind": "ping"}) + "\n").encode("utf-8")
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(args.timeout)
    try:
        sock.connect(path)
        for i in range(len(payload)):
            sock.sendall(payload[i:i + 1])
            time.sleep(args.chaos_drip_delay)
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                raise RuntimeError("connection closed on a slow ping")
            buf += chunk
    finally:
        sock.close()
    response = json.loads(buf.decode("utf-8"))
    if response.get("status") != "ok":
        raise RuntimeError("slow ping answered %r" % response)
    return "dripped %d bytes, answered ok" % len(payload)


def chaos_flood(path, args):
    """N concurrent compile connections, deliberately past the
    admission gate: every one must get a structured answer (ok or
    rejected) — overload degrades to honest rejections, not hangs."""
    request = {
        "schema": "xtalk.request.v1", "id": "chaos-flood",
        "kind": "compile", "qasm": CHAOS_QASM,
        "layout": "trivial", "scheduler": "serial",
    }
    results = [None] * args.chaos_flood_connections
    def worker(index):
        try:
            results[index] = _rpc(path, dict(request, id="flood-%d" % index),
                                  args.timeout)
        except Exception as error:  # noqa: BLE001 - recorded per slot
            results[index] = {"status": "exception", "error": str(error)}
    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(results))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    statuses = {}
    for response in results:
        status = (response or {}).get("status", "no-response")
        statuses[status] = statuses.get(status, 0) + 1
    bad = {s: n for s, n in statuses.items()
           if s not in ("ok", "rejected", "timeout")}
    if bad:
        raise RuntimeError("flood produced non-structured outcomes: %r"
                           % bad)
    return "answered %r" % statuses


def chaos_oversized(path, args):
    """One line far past --max-line-bytes: expect a structured error
    naming the cap, then a closed connection. The daemon rejects as
    soon as the cap is crossed — long before the blast finishes — so
    EPIPE mid-send is the expected shape of the rejection; the error
    line it already wrote must still be readable."""
    payload = b"x" * args.chaos_line_bytes + b"\n"
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(args.timeout)
    try:
        sock.connect(path)
        try:
            sock.sendall(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # Daemon already rejected and closed its read side.
        buf = b""
        while not buf.endswith(b"\n"):
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                chunk = b""
            if not chunk:
                break
            buf += chunk
    finally:
        sock.close()
    # Either a structured rejection (line cap smaller than the blast)
    # or a clean parse error (daemon run with a bigger cap) is fine;
    # silence or a hang is not.
    if not buf.endswith(b"\n"):
        raise RuntimeError("oversized line closed without a response")
    response = json.loads(buf.decode("utf-8"))
    if response.get("status") != "error":
        raise RuntimeError("oversized line answered %r" % response)
    return "rejected: %s" % response.get("error", "")[:60]


def chaos_garbage(path, args):
    """Valid frame, hostile payload: binary junk must come back as a
    structured 'bad request', never an internal error or a crash."""
    response = _rpc(path, b'\x00\xff{]]junk!!\n', args.timeout)
    if response is None or response.get("status") != "error":
        raise RuntimeError("garbage frame answered %r" % response)
    return "rejected: %s" % response.get("error", "")[:60]


CHAOS_SCENARIOS = [
    ("truncated", chaos_truncated),
    ("disconnect", chaos_disconnect),
    ("slow-drip", chaos_slow_drip),
    ("flood", chaos_flood),
    ("oversized", chaos_oversized),
    ("garbage", chaos_garbage),
]


def run_chaos(args):
    wanted = ([name for name, _ in CHAOS_SCENARIOS]
              if args.chaos == "all" else args.chaos.split(","))
    by_name = dict(CHAOS_SCENARIOS)
    unknown = [name for name in wanted if name not in by_name]
    if unknown:
        print("error: unknown chaos scenario(s): %s (have: %s)"
              % (",".join(unknown),
                 ",".join(name for name, _ in CHAOS_SCENARIOS)),
              file=sys.stderr)
        return 2
    # The daemon must be up before the campaign starts.
    wait_for_socket(args.socket, args.wait).close()
    failures = 0
    for name in wanted:
        try:
            detail = by_name[name](args.socket, args)
            diagnostics = _assert_alive_and_drained(args.socket,
                                                    args.timeout)
            print("chaos %-12s PASS  %s (inflight=%s queued=%s)"
                  % (name, detail, diagnostics.get("inflight"),
                     diagnostics.get("queued")))
        except Exception as error:  # noqa: BLE001 - campaign verdict
            failures += 1
            print("chaos %-12s FAIL  %s" % (name, error), file=sys.stderr)
    verdict = "survived" if failures == 0 else "FAILED"
    print("chaos campaign %s: %d/%d scenarios passed"
          % (verdict, len(wanted) - failures, len(wanted)))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--socket", required=True,
                        help="AF_UNIX socket path xtalkd listens on")
    parser.add_argument("--kind", default="compile",
                        choices=["compile", "ping", "stats", "shutdown"])
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="mint a deterministic request trace id from "
                             "this seed (same stream as xtalkc "
                             "--trace-seed; XTALK_TRACE_SEED also works)")
    parser.add_argument("--id", default="cli",
                        help="correlation id echoed in the response")
    parser.add_argument("--qasm", help="OpenQASM 2.0 file (compile only)")
    parser.add_argument("--device", default="poughkeepsie")
    parser.add_argument("--device-file",
                        help="device spec file path, resolved by the "
                             "daemon (overrides --device)")
    parser.add_argument("--layout", default="noise-aware")
    parser.add_argument("--scheduler", default="xtalk")
    parser.add_argument("--schedulers",
                        help="comma-separated portfolio member keys to "
                             "race (implies --scheduler portfolio)")
    parser.add_argument("--omega", type=float, default=0.5)
    parser.add_argument("--characterization",
                        help="characterization file path, resolved by "
                             "the daemon")
    parser.add_argument("--simulate", type=int, default=0,
                        help="noisy-simulator shots")
    parser.add_argument("--report", action="store_true",
                        help="include the schedule report")
    parser.add_argument("--deadline-ms", type=int, default=0)
    parser.add_argument("--wait", type=float, default=10.0,
                        help="seconds to wait for the socket to appear")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="seconds to wait for the response")
    parser.add_argument("--chaos", nargs="?", const="all", default=None,
                        metavar="SCENARIOS",
                        help="run the chaos campaign instead of one "
                             "request: all (default) or a comma list of "
                             + ",".join(n for n, _ in CHAOS_SCENARIOS))
    parser.add_argument("--chaos-flood-connections", type=int, default=32,
                        help="concurrent connections in the flood "
                             "scenario (push past the admission gate)")
    parser.add_argument("--chaos-line-bytes", type=int, default=2 << 20,
                        help="size of the oversized-line blast; make it "
                             "larger than the daemon's --max-line-bytes")
    parser.add_argument("--chaos-drip-delay", type=float, default=0.002,
                        help="seconds between bytes in slow-drip")
    args = parser.parse_args()

    if args.chaos is not None:
        return run_chaos(args)
    if args.kind == "compile" and not args.qasm:
        parser.error("--qasm is required for --kind compile")

    request = build_request(args)
    sock = wait_for_socket(args.socket, args.wait)
    sock.settimeout(args.timeout)
    with sock, sock.makefile("rw", encoding="utf-8") as stream:
        stream.write(json.dumps(request) + "\n")
        stream.flush()
        line = stream.readline()
    if not line:
        print("error: daemon closed the connection without a response",
              file=sys.stderr)
        return 1
    print(line.rstrip("\n"))
    response = json.loads(line)
    if response.get("status") != "ok":
        print("error: %s" % response.get("error", "unknown failure"),
              file=sys.stderr)
    return EXIT_CODES.get(response.get("status"), 1)


if __name__ == "__main__":
    sys.exit(main())

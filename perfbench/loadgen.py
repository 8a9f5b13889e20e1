"""Python side of the load generator.

perfbench-loadgen (loadgen.cc) sends the measured traffic; this module
hands it the generated requests and reads back what came of them. The
small ``Client`` here only serves set-up: health checks and /metrics.
"""

import os
import socket
import subprocess


class Client:
    """One HTTP/1.1 connection; responses framed by Content-Length."""

    def __init__(self, port):
        self.port = port
        self.sock = None

    def close(self):
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def request(self, path, body):
        """(status, body bytes); raises OSError on failure."""
        if self.sock is None:
            self.sock = socket.create_connection(("127.0.0.1", self.port),
                                                 timeout=30)
        method = "POST" if body else "GET"
        head = ("%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                "Content-Length: %d\r\n\r\n" % (method, path, len(body)))
        try:
            self.sock.sendall(head.encode() + body)
            buf = b""
            while b"\r\n\r\n" not in buf:
                chunk = self.sock.recv(65536)
                if not chunk:
                    raise OSError("closed before the response head")
                buf += chunk
            head, _, rest = buf.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").lower().split("\r\n")
            headers = dict(line.split(":", 1) for line in lines[1:])
            length = int(headers["content-length"])
            while len(rest) < length:
                chunk = self.sock.recv(65536)
                if not chunk:
                    raise OSError("closed inside the body")
                rest += chunk
            if headers.get("connection", "").strip() == "close":
                self.close()
            return int(lines[0].split()[1]), rest[:length]
        except (OSError, KeyError, ValueError) as exc:
            self.close()
            raise OSError(str(exc))


def pin(cpus):
    """preexec_fn that binds a child to ``cpus`` (None: no binding)."""
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


class Sample:
    """Outcome of one measured request (times in seconds)."""

    __slots__ = ("index", "latency", "lag", "done", "status", "body")

    def __init__(self, index, latency, lag, done, status, body):
        self.index = index
        self.latency = latency
        self.lag = lag
        self.done = done
        self.status = status
        self.body = body


def run(binary, work, port, requests, due, senders, seconds, slow=None,
        cpus=None):
    """Drive lemonsd with perfbench-loadgen; returns the Samples.

    ``due`` (s from window start) makes an open loop; None makes a
    closed loop of ``senders`` clients for ``seconds``. ``slow`` is
    (connections, trickle ms, trickle bytes, reopen pause ms). ``cpus``
    binds the generator to those CPUs.
    """
    inp = os.path.join(work, "load.in")
    out = os.path.join(work, "load.out")
    with open(inp, "wb") as f:
        for i, r in enumerate(requests):
            due_ns = int(due[i] * 1e9) if due is not None else 0
            f.write(b"%s %d %d\n%s\n" % (r.path.encode(), due_ns,
                                         len(r.body), r.body))
    slow = slow or (0, 0, 0, 0)
    cmd = [binary, "open" if due is not None else "closed", str(port), inp,
           out, str(senders), repr(seconds)] + [str(x) for x in slow]
    subprocess.run(cmd, check=True, preexec_fn=pin(cpus))
    samples = []
    with open(out, "rb") as f:
        data = f.read()
    pos = 0
    while pos < len(data):
        eol = data.index(b"\n", pos)
        index, latency, lag, done, status, length = map(int,
                                                       data[pos:eol].split())
        body = data[eol + 1:eol + 1 + length]
        pos = eol + 2 + length
        samples.append(Sample(index, latency / 1e9, lag / 1e9, done / 1e9,
                              status, body))
    return samples

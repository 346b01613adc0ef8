"""Closed-loop dtexld client for the sweep workload.

One client keeps a fixed number of submissions outstanding against a
fresh daemon, learns of completions from the `subscribe` event stream
(never by polling), and afterwards reads the daemon's event ledger for
the queue/run split. Paths handed to the daemon are relative to the
checkout root, which is the working directory of both processes, so
the Unix socket path stays short wherever the checkout lives.
"""

import collections
import json
import os
import socket
import subprocess
import threading
import time
from pathlib import Path

from build import BenchError

PING_TIMEOUT_S = 30
DRAIN_TIMEOUT_S = 60
SETTLE_TIMEOUT_S = 30
TERMINAL = {"done", "failed", "cancelled", "expired"}
WORKERS = 2       # daemon worker threads
OUTSTANDING = 2   # client submissions in flight (closed loop)


class Spans:
    """Client-side spans (name, start, end, parent, job), kept in
    memory and written out with the run's other span files."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.epoch = time.perf_counter_ns()
        self.items = []

    def add(self, name, start_s, end_s, job=""):
        if self.enabled:
            self.items.append({
                "id": len(self.items), "name": name,
                "start": int(start_s * 1e9) - self.epoch,
                "end": int(end_s * 1e9) - self.epoch,
                "parent": -1, "job": job})


def now():
    return time.perf_counter()


class Conn:
    """One persistent line-framed JSON connection."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.f = self.sock.makefile("rw", encoding="utf-8", newline="\n")

    def call(self, req):
        self.f.write(json.dumps(req) + "\n")
        self.f.flush()
        line = self.f.readline()
        if not line:
            raise BenchError("daemon closed the connection")
        return json.loads(line)

    def close(self):
        # shutdown() first: it wakes a thread blocked reading this
        # socket, which close() alone does not.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.f.close()
        finally:
            self.sock.close()


class Daemon:
    """A dtexld process with its own empty state directory."""

    def __init__(self, binary, state_dir, log_path):
        self.binary = binary
        # Relative to the working directory (the checkout root): a Unix
        # socket path must fit in sun_path wherever the checkout lives.
        self.state_dir = Path(os.path.relpath(state_dir))
        self.log_path = log_path
        self.proc = None
        self.sock = str(self.state_dir / "dtexld.sock")

    def start(self):
        """Launch and wait until `ping` answers; returns seconds."""
        if self.state_dir.exists() and any(self.state_dir.iterdir()):
            raise BenchError(f"state dir {self.state_dir} is not empty")
        self.state_dir.mkdir(parents=True, exist_ok=True)
        log = open(self.log_path, "w")
        t0 = now()
        self.proc = subprocess.Popen(
            [str(self.binary), f"--state-dir={self.state_dir}",
             f"--workers={WORKERS}"],
            stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        log.close()
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"dtexld exited early "
                                 f"({self.proc.returncode}); see "
                                 f"{self.log_path}")
            try:
                c = Conn(self.sock)
                try:
                    if c.call({"cmd": "ping"}).get("ok"):
                        return now() - t0
                finally:
                    c.close()
            except OSError:
                pass
            if now() - t0 > PING_TIMEOUT_S:
                raise BenchError("dtexld did not answer ping")
            time.sleep(0.001)

    def rpc(self, req):
        c = Conn(self.sock)
        try:
            return c.call(req)
        finally:
            c.close()

    def settled_status(self):
        """The job table once no job is queued or running. The daemon
        publishes job_complete before its table marks the job done, so
        a snapshot taken right after the last notice can lag behind."""
        t0 = now()
        while True:
            table = self.rpc({"cmd": "status"})
            if all(j.get("state") in TERMINAL
                   for j in table.get("jobs", [])):
                return table
            if now() - t0 > SETTLE_TIMEOUT_S:
                raise BenchError("jobs still unfinished after their "
                                 "completion notices")
            time.sleep(0.005)

    def vm_hwm_mb(self):
        """Peak resident set of the daemon, from /proc."""
        text = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def drain(self):
        """Graceful drain; waits for the process to exit."""
        self.rpc({"cmd": "drain"})
        try:
            self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError("dtexld did not exit after drain")

    def stop(self):
        """Make sure the process is gone (error paths)."""
        if self.proc and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class Subscriber(threading.Thread):
    """Reads the daemon's `subscribe` stream and timestamps each job's
    completion notice as it arrives."""

    def __init__(self, sock_path):
        super().__init__(daemon=True)
        self.conn = Conn(sock_path)
        self.conn.f.write(json.dumps({"cmd": "subscribe"}) + "\n")
        self.conn.f.flush()
        self.cv = threading.Condition()
        self.done = {}  # label -> (receipt time, event name)
        self.error = None

    def run(self):
        try:
            for line in self.conn.f:
                ev = json.loads(line)
                name = ev.get("event")
                if name in ("job_complete", "job_error"):
                    with self.cv:
                        self.done[ev["job"]] = (now(), name)
                        self.cv.notify_all()
        except (OSError, ValueError) as e:
            self.error = str(e)
        with self.cv:
            self.cv.notify_all()

    def close(self):
        self.conn.close()


def submit_request(label, spec, trace):
    opts = [{"k": "width", "v": str(spec["width"])},
            {"k": "height", "v": str(spec["height"])}]
    if trace:
        opts.append({"k": "telemetry", "v": "1"})
    return {"cmd": "submit", "job": label, "scene": spec["scene"],
            "frames": 1, "preset": spec["preset"], "options": opts}


def closed_loop(conn, sub, specs, prefix, trace, spans, counters):
    """Submit every spec, keeping OUTSTANDING in flight; returns one
    record per job in spec order."""
    queue = collections.deque(enumerate(specs))
    inflight = {}
    records = [None] * len(specs)
    while queue or inflight:
        while queue and len(inflight) < OUTSTANDING:
            idx, spec = queue.popleft()
            label = f"{prefix}-{idx}"
            t0 = now()
            resp = conn.call(submit_request(label, spec, trace))
            t1 = now()
            counters["submits"] += 1
            spans.add("serve.submit", t0, t1, label)
            if not resp.get("ok"):
                if "retry_after_ms" in resp:
                    # Backpressure: a rejection is a failed op; retry
                    # after the daemon's hint.
                    counters["rejected"] += 1
                    time.sleep(resp["retry_after_ms"] / 1000.0)
                    queue.appendleft((idx, spec))
                    continue
                raise BenchError(f"submit {label} refused: {resp}")
            inflight[label] = (idx, t0, (t1 - t0) * 1e3)
        with sub.cv:
            while not any(l in sub.done for l in inflight):
                if not sub.is_alive():
                    raise BenchError("subscribe stream ended: "
                                     f"{sub.error}")
                sub.cv.wait(timeout=1.0)
            finished = [l for l in inflight if l in sub.done]
            notices = {l: sub.done[l] for l in finished}
        for label in finished:
            idx, t0, admit = inflight.pop(label)
            t_done, event = notices[label]
            spans.add("serve.job", t0, t_done, label)
            records[idx] = {"label": label, "spec": idx, "admit_ms": admit,
                            "latency_ms": (t_done - t0) * 1e3,
                            "event": event}
    return records


def load_ledger(path):
    """Ledger events grouped by job, plus each job's line bytes."""
    by_job = collections.defaultdict(list)
    nbytes = collections.Counter()
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        ev = json.loads(line)
        job = ev.get("job")
        if job:
            by_job[job].append(ev)
            nbytes[job] += len(line) + 1
    return by_job, nbytes


def run_sweep(dtexld, work_dir, specs, seconds, trace, spans, setup_reps,
              min_warm_passes):
    """Set-up (daemon launch to ping, repeated), cold pass, warm passes
    until `seconds` have elapsed since the cold pass began (at least
    `min_warm_passes`), status snapshot, drain. Returns raw samples."""
    work_dir = Path(work_dir)
    setup_s = []
    daemons = []
    try:
        for rep in range(setup_reps):
            d = Daemon(dtexld, work_dir / f"state{rep}",
                       work_dir / f"dtexld{rep}.log")
            daemons.append(d)
            t0 = now()
            setup_s.append(d.start())
            spans.add("serve.daemon_launch", t0, now(), f"state{rep}")
            if rep + 1 < setup_reps:
                d.drain()
        daemon = daemons[-1]
        sub = Subscriber(daemon.sock)
        sub.start()
        conn = Conn(daemon.sock)
        counters = collections.Counter()
        try:
            t_cold = now()
            cold = closed_loop(conn, sub, specs, "cold", trace, spans,
                               counters)
            cold_wall = now() - t_cold
            spans.add("sweep.cold_pass", t_cold, t_cold + cold_wall)
            # Peak RSS of the simulating pass. Read before the warm
            # passes, whose job-table growth scales with how many hits
            # fit in the time budget, not with the work simulated.
            rss = daemon.vm_hwm_mb()
            warm = []
            passes = 0
            t_warm = now()
            while passes < min_warm_passes or now() - t_cold < seconds:
                warm.extend(closed_loop(conn, sub, specs, f"warm{passes}",
                                        trace, spans, counters))
                passes += 1
            spans.add("sweep.warm_pass", t_warm, now())
            table = daemon.settled_status()
        finally:
            # Hang up before the drain: dtexld can lose track of a
            # connection opened just as another one closes (the two
            # share an fd number), and its drain then waits forever on
            # a subscriber that is still connected.
            conn.close()
            sub.close()
            sub.join(timeout=DRAIN_TIMEOUT_S)
        daemon.drain()
    finally:
        for d in daemons:
            d.stop()
    return {
        "setup_s": setup_s, "cold": cold, "warm": warm,
        "warm_passes": passes, "cold_wall_s": cold_wall,
        "counters": dict(counters), "status": table.get("jobs", []),
        "rss_mb": rss,
        "ledger": str(daemon.state_dir / "events.jsonl"),
    }


def ledger_layers(raw):
    """Per-job ledger timings: queue wait, run, cache lookup/store,
    events and bytes per job, client overhead beyond the ledger."""
    by_job, nbytes = load_ledger(raw["ledger"])

    def t(evs, name):
        for ev in evs:
            if ev["event"] == name:
                return ev["t_ms"]
        return None

    out = collections.defaultdict(list)
    for kind in ("cold", "warm"):
        for rec in raw[kind]:
            evs = by_job.get(rec["label"], [])
            sub, start = t(evs, "job_submit"), t(evs, "job_start")
            done = t(evs, "job_complete")
            if None in (sub, start, done):
                raise BenchError(f"ledger lacks events for {rec['label']}")
            out[f"{kind}.queue_wait_ms"].append(start - sub)
            out[f"{kind}.run_ms"].append(done - start)
            out[f"{kind}.overhead_ms"].append(
                rec["latency_ms"] - (done - sub))
            hit, miss = t(evs, "job_cache_hit"), t(evs, "job_cache_miss")
            look = hit if hit is not None else miss
            if look is not None:
                out[f"{kind}.lookup_ms"].append(look - start)
            store, frame = t(evs, "job_cache_store"), None
            for ev in evs:
                if ev["event"] == "job_frame":
                    frame = ev["t_ms"]
            if store is not None and frame is not None:
                out[f"{kind}.store_ms"].append(store - frame)
            out[f"{kind}.hits"].append(1 if hit is not None else 0)
            out[f"{kind}.events"].append(len(evs))
            out[f"{kind}.bytes"].append(nbytes[rec["label"]])
    return out


def outcome_failures(raw):
    """Jobs that did not end done on their first attempt, and results
    whose status does not say cached exactly on the warm pass."""
    bad = []
    for job in raw["status"]:
        if job.get("state") != "done" or job.get("attempts", 1) != 1:
            bad.append(f"{job.get('job')}: state={job.get('state')} "
                       f"attempts={job.get('attempts')}")
    for kind in ("cold", "warm"):
        for rec in raw[kind]:
            if rec["event"] != "job_complete":
                bad.append(f"{rec['label']}: {rec['event']}")
    return bad


def check_ledger(root, ledger, expect_jobs):
    """scripts/run_report.py --check on the ledger, unmodified."""
    r = subprocess.run(
        ["python3", str(Path(root) / "scripts" / "run_report.py"),
         "--check", "--expect-jobs", str(expect_jobs),
         "--expect-errors", "0", ledger],
        capture_output=True, text=True)
    return r.returncode == 0, (r.stdout + r.stderr)[-2000:]

#!/usr/bin/env python3
"""perfbench: the end-to-end benchmark of rtsynd and rtsyn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steady N --workload NAME [--trace 0|1]

Run from the root of a source checkout.  The first form builds the
program from source (dune, release profile, build directory
.bench_build), generates the workload from the seed, runs it, checks
every answer, and prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics of an
in-process replay with --trace 1.  The second form runs one workload N
times with seeds 1..N and prints each metric's median, quartiles and
spread against its bound in BENCHMARK.json.

Each workload runs a fixed number of operations (see gen.py), so a
faster and a slower build see the same tail percentile, replay the
same journal and write the same bytes.  --seconds is accepted for the
common benchmark interface; the operation counts set the run length.
"""

import argparse
import json
import math
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import gen  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
SETUP_REPS = 5
OFFLINE_RESTART_REPS = 3
CONNECT_TIMEOUT_S = 120.0
CPUS = sorted(os.sched_getaffinity(0))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class HarnessError(Exception):
    pass


# ---------------------------------------------------------------------------
# Build.
# ---------------------------------------------------------------------------

TARGETS = {
    "rtsyn": "bin/rtsyn.exe",
    "rtsynd": "bin/rtsynd.exe",
    "layers": "perfbench/trace/layers.exe",
}


def build():
    for rel in ("dune-project", "bin/rtsynd.ml", "bin/rtsyn.ml"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            raise HarnessError(f"not a source checkout: {rel} is missing")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        raise HarnessError("dune is not installed")
    cmd = dune + ["build", "--root", ROOT, "--profile", "release",
                  "--build-dir", BUILD_DIR] + ["./" + t for t in TARGETS.values()]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        log(p.stdout[-4000:])
        raise HarnessError("build failed")
    return {k: os.path.join(BUILD_DIR, "default", v) for k, v in TARGETS.items()}


# ---------------------------------------------------------------------------
# Process hygiene: CPU pinning, and every child killed and reaped.
# ---------------------------------------------------------------------------

class Procs:
    def __init__(self):
        self.live = []
        self.max_child_rss_kb = 0
        cpus = CPUS
        self.prefix = []
        self.cpus = "unpinned"
        if len(cpus) >= 2 and shutil.which("taskset"):
            # The load generator and the program under test get a CPU each.
            os.sched_setaffinity(0, {cpus[0]})
            self.prefix = ["taskset", "-c", str(cpus[1])]
            self.cpus = f"generator=cpu{cpus[0]} program=cpu{cpus[1]}"

    def spawn(self, argv, **kw):
        p = subprocess.Popen(self.prefix + argv, **kw)
        self.live.append(p)
        return p

    def reap(self, p):
        if p in self.live:
            self.live.remove(p)

    def kill_all(self):
        for p in self.live:
            try:
                p.kill()
            except OSError:
                pass
            p.wait()
        self.live = []


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------

def p50(xs):
    return statistics.median(xs)


def tail(xs):
    """The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples
    beyond it (nearest-rank), as (name, value)."""
    s = sorted(xs)
    n = len(s)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        idx = max(0, math.ceil(p / 100.0 * n) - 1)
        if n - 1 - idx >= 10:
            return f"p{p:g}", s[idx]
    return "max", s[-1]


# ---------------------------------------------------------------------------
# Daemon client: closed loop, one request in flight per connection.
# ---------------------------------------------------------------------------

class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""

    def send(self, req):
        self.sock.sendall((json.dumps(req) + "\n").encode())

    def recv_line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise HarnessError("daemon closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def call(self, req):
        self.send(req)
        return self.recv_line()

    def close(self):
        self.sock.close()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, okay, what):
        self.attempted += 1
        if not okay:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)
        return okay


def outcome_ok(op, resp):
    exp = op["expect"]
    if resp.get("id") != op["req"]["id"]:
        return False
    if exp["ok"]:
        return resp.get("ok") is True and (
            exp.get("path") is None or resp.get("path") == exp["path"])
    err = resp.get("error") or {}
    return (resp.get("ok") is False and err.get("kind") == exp["kind"]
            and err.get("message", "").startswith(exp["prefix"]))


def drive(conns, lists, tally, samples=None):
    """Run each connection's op list closed-loop, all connections
    concurrently, checking every answer.  With samples, records the
    client-side latency (send to full response) of each op under its
    kind, and under "all" when that key is present."""
    sel = selectors.DefaultSelector()
    state = {}  # conn -> (index of the op in flight, send time)
    ops_of = dict(zip(conns, lists))
    for c, ops in ops_of.items():
        if ops:
            sel.register(c.sock, selectors.EVENT_READ, c)
            state[c] = (0, time.perf_counter())
            c.send(ops[0]["req"])
    while state:
        events = sel.select(timeout=CONNECT_TIMEOUT_S)
        if not events:
            raise HarnessError("no answer from the daemon")
        for key, _ in events:
            c = key.data
            chunk = c.sock.recv(1 << 16)
            if not chunk:
                raise HarnessError("daemon closed the connection")
            c.buf += chunk
            while b"\n" in c.buf and c in state:
                line, c.buf = c.buf.split(b"\n", 1)
                ms = (time.perf_counter() - state[c][1]) * 1000.0
                i = state[c][0]
                op = ops_of[c][i]
                resp = json.loads(line)
                tally.check(outcome_ok(op, resp),
                            f"{op['req']} -> {json.dumps(resp)[:300]}")
                if samples is not None:
                    samples[op["kind"]].append(ms)
                    if "all" in samples:
                        samples["all"].append(ms)
                        samples.setdefault(op["req"]["op"], []).append(ms)
                if i + 1 == len(ops_of[c]):
                    del state[c]
                    sel.unregister(c.sock)
                else:
                    state[c] = (i + 1, time.perf_counter())
                    c.send(ops_of[c][i + 1]["req"])
    sel.close()


def start_daemon(procs, exe, spec, journal, sock, log_path):
    if os.path.exists(sock):
        os.unlink(sock)
    t0 = time.perf_counter()
    with open(log_path, "ab") as out:
        p = procs.spawn([exe, "--spec", spec, "--journal", journal,
                         "--socket", sock, "--jobs", "1"],
                        stdout=out, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + CONNECT_TIMEOUT_S
    while True:
        if p.poll() is not None:
            raise HarnessError(f"rtsynd exited with {p.returncode} at start")
        if os.path.exists(sock):
            try:
                conn = Conn(sock)
                break
            except OSError:
                pass
        if time.monotonic() > deadline:
            raise HarnessError("rtsynd socket never appeared")
        time.sleep(0.002)
    stats = conn.call({"v": 1, "id": "ready", "op": "stats"})
    elapsed = time.perf_counter() - t0
    if stats.get("ok") is not True:
        raise HarnessError(f"first stats failed: {stats}")
    return p, conn, stats, elapsed


def kill9(procs, p):
    p.send_signal(signal.SIGKILL)
    p.wait()
    procs.reap(p)


def shutdown(procs, p, conn, tally):
    resp = conn.call({"v": 1, "id": "bye", "op": "shutdown"})
    conn.close()
    rc = p.wait(timeout=60)
    procs.reap(p)
    tally.check(resp.get("ok") is True and rc == 0, f"shutdown rc={rc}")


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise HarnessError("VmHWM not available")


def journaled(ops):
    """Requests the daemon must have journaled: accepted admits, retires."""
    return sum(1 for op in ops
               if op["req"]["op"] in ("admit", "retire") and op["expect"]["ok"])


def segment_ops(seg):
    return [op for stage in seg["stages"] for l in stage for op in l]


def run_daemon_workload(name, seed, exes, procs, tmp, reps=SETUP_REPS):
    """Set-up, warm-up, then segments: snapshot, the segment's requests
    (measured), pre-kill digest and residency, one more timed fresh
    set-up, kill -9, and a timed restart on the journal (the snapshot
    plus the segment's records) with its checks.  `reps` caps the fresh
    set-ups timed."""
    w = gen.DAEMON_WORKLOADS[name](seed)
    spec = os.path.join(tmp, "base.spec")
    with open(spec, "w") as f:
        f.write(w["spec"])
    # Socket paths relative to tmp: Unix socket paths are short.
    sock, setup_sock = "d.sock", "s.sock"
    dlog = os.path.join(tmp, "rtsynd.log")
    journal = os.path.join(tmp, "serve.journal")
    tally = Tally()
    n_conns = max(len(stage) for seg in w["segments"] for stage in seg["stages"])

    def connect(conn):
        return [conn] + [Conn(sock) for _ in range(n_conns - 1)]

    def fresh_setup(path, sock_path):
        """A fresh start on the base spec until the first stats answer."""
        p, conn, stats, dt = start_daemon(procs, exes["rtsynd"], spec, path,
                                          sock_path, dlog)
        tally.check(stats.get("constraints") == w["base_residents"],
                    f"base residency {stats.get('constraints')}")
        return p, conn, dt

    daemon, conn, dt = fresh_setup(journal, sock)
    setups = [dt]
    conns = connect(conn)
    drive(conns, w["warmup"], tally)

    samples = {"write": [], "read": [], "all": []}
    snaps = {"write": samples["write"], "read": samples["read"]}
    wall = 0.0
    growth = 0
    restarts = []
    rss = 0.0
    for k, seg in enumerate(w["segments"]):
        snap = {"req": {"v": 1, "id": f"snap{k}", "op": "snapshot"},
                "kind": "write", "expect": gen.ok()}
        drive([conns[0]], [[snap]], tally, snaps)
        j0 = os.path.getsize(journal)
        t0 = time.perf_counter()
        for stage in seg["stages"]:
            drive(conns, stage, tally, samples)
        wall += time.perf_counter() - t0
        growth += os.path.getsize(journal) - j0

        before = conns[0].call({"v": 1, "id": f"digest{k}", "op": "reverify"})
        tally.check(before.get("ok") is True, f"reverify before kill: {before}")
        digest = before.get("digest")
        stats = conns[0].call({"v": 1, "id": f"pre-kill{k}", "op": "stats"})
        tally.check(stats.get("constraints") == seg["residents"],
                    f"residents before kill: {stats.get('constraints')} "
                    f"!= {seg['residents']}")
        rss = max(rss, vm_hwm_mb(daemon.pid))
        if len(setups) < reps:
            p, c, dt = fresh_setup(os.path.join(tmp, f"setup{k}.journal"),
                                   setup_sock)
            setups.append(dt)
            shutdown(procs, p, c, tally)

        for c in conns:
            c.close()
        kill9(procs, daemon)
        daemon, conn, stats, dt = start_daemon(procs, exes["rtsynd"], spec,
                                               journal, sock, dlog)
        restarts.append(dt)
        log(f"# restart {k}: {dt:.3f} s")
        tally.check(stats.get("digest") == digest,
                    f"digest after restart {k}: {stats.get('digest')} != {digest}")
        after = conn.call({"v": 1, "id": f"reverify{k}", "op": "reverify"})
        tally.check(after.get("ok") is True and after.get("digest") == digest,
                    f"reverify after restart {k}: {after}")
        for i, tname in enumerate(seg["resident"]):
            probe = {"v": 1, "id": f"probe{k}.{i}", "op": "admit",
                     "decl": f"constraint {tname} asynchronous separation 9999 "
                             f"deadline 9999 {{ nosuch; }}"}
            resp = conn.call(probe)
            tally.check(resp.get("ok") is False and "already resident" in
                        (resp.get("error") or {}).get("message", ""),
                        f"acknowledged write {tname} not resident after restart")
        conns = connect(conn)
    for c in conns[1:]:
        c.close()
    shutdown(procs, daemon, conns[0], tally)

    for op_name in ("admit", "retire", "what-if", "stats"):
        xs = samples.get(op_name, [])
        if xs:
            log(f"# {op_name}: {len(xs)} measured, p50 {p50(xs):.1f} ms")
    measured = [op for seg in w["segments"] for op in segment_ops(seg)]
    writes = journaled(measured)
    info = {
        "ops": len(measured), "connections": n_conns, "wall_s": wall,
        "journaled_writes": writes, "journal_growth": growth,
        "replayed_records": [journaled(segment_ops(seg)) for seg in w["segments"]],
    }
    metrics = {
        "setup_s": (p50(setups), "s"),
        "restart_s": (p50(restarts), "s"),
        "journal_bytes_per_write": (growth / max(1, writes), "bytes"),
        "rss_peak_mb": (rss, "MB"),
    }
    return samples, len(measured), wall, metrics, tally, info


# ---------------------------------------------------------------------------
# Offline pipeline: rtsyn processes one at a time.
# ---------------------------------------------------------------------------

def run_rtsyn(procs, exe, argv, cwd):
    """Run one rtsyn process to completion: (exit code, stdout, stderr,
    wall seconds).  Reaped with wait4 so its own peak RSS is recorded."""
    out_path = os.path.join(cwd, ".stdout")
    err_path = os.path.join(cwd, ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = procs.spawn([exe] + argv, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(p.pid, 0)
        dt = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    procs.reap(p)
    procs.max_child_rss_kb = max(procs.max_child_rss_kb, usage.ru_maxrss)
    with open(out_path, errors="replace") as f:
        out = f.read()
    with open(err_path, errors="replace") as f:
        err = f.read()
    return p.returncode, out, err, dt


def offline_op(procs, exe, op, tmp, tally, samples=None):
    rc, out, err, dt = run_rtsyn(procs, exe, op["argv"], tmp)
    okay = rc == op["expect_rc"] and op["expect_line"] in out
    okay = okay and "UNKNOWN" not in out and "TIMEOUT" not in out
    tally.check(okay, f"rtsyn {' '.join(op['argv'])} -> rc {rc}: {(out + err)[-300:]}")
    if samples is not None:
        samples[op["kind"]].append(dt * 1000.0)
    return sum(os.path.getsize(os.path.join(tmp, a))
               for a in op["artifacts"] if os.path.exists(os.path.join(tmp, a)))


def run_offline(seed, exes, procs, tmp):
    w = gen.offline_pipeline(seed)
    for fname, content in w["files"].items():
        with open(os.path.join(tmp, fname), "w") as f:
            f.write(content)
    tally = Tally()
    exe = exes["rtsyn"]

    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        for argv in w["setup"]:
            rc, out, err, _ = run_rtsyn(procs, exe, argv, tmp)
            tally.check(rc == 0 and "certificate: OK" in out,
                        f"setup {argv}: rc {rc} {err[-200:]}")
        setups.append(time.perf_counter() - t0)

    # Warm-up: one op of each command before timing starts.
    seen = set()
    for op in w["ops"]:
        if op["argv"][0] not in seen:
            seen.add(op["argv"][0])
            offline_op(procs, exe, op, tmp, tally)

    samples = {"write": [], "read": []}
    persisted = 0
    writes = 0
    per_command = {}
    t0 = time.perf_counter()
    for op in w["ops"]:
        b = offline_op(procs, exe, op, tmp, tally, samples)
        per_command.setdefault(op["argv"][0] + " " + op["argv"][1], []).append(
            samples[op["kind"]][-1])
        if op["kind"] == "write":
            persisted += b
            writes += 1
    wall = time.perf_counter() - t0
    for k, xs in sorted(per_command.items()):
        log(f"# {k}: {len(xs)} runs, p50 {p50(xs):.1f} ms")

    # Restart: kill -9 an in-flight synth --cert, then recover: re-check
    # every certificate the run persisted and re-run the killed write.
    certs = {("plant.spec", "plant.cert"), ("control.spec", "control.cert")}
    for op in w["ops"]:
        for a in op["artifacts"]:
            if a.endswith(".cert") and os.path.exists(os.path.join(tmp, a)):
                certs.add((op["argv"][1], a))
    certs = sorted(certs)
    redo = ["synth", "plant.spec", "-o", "redo.plan", "--cert", "redo.cert"]
    restarts = []
    for _ in range(OFFLINE_RESTART_REPS):
        p = procs.spawn([exe] + redo, cwd=tmp, stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL)
        time.sleep(0.03)
        kill9(procs, p)
        t0 = time.perf_counter()
        for spec, cert in certs:
            rc, out, err, _ = run_rtsyn(procs, exe,
                                        ["check", spec, "--certificate", cert], tmp)
            tally.check(rc == 0 and "CERTIFICATE OK" in out,
                        f"recovery check {cert}: rc {rc}")
        rc, out, err, _ = run_rtsyn(procs, exe, redo, tmp)
        tally.check(rc == 0 and "certificate: OK" in out, f"recovery redo: rc {rc}")
        restarts.append(time.perf_counter() - t0)

    info = {"ops": len(w["ops"]), "connections": 0, "wall_s": wall,
            "journaled_writes": writes, "journal_growth": persisted,
            "replayed_records": len(certs)}
    metrics = {
        "setup_s": (p50(setups), "s"),
        "restart_s": (p50(restarts), "s"),
        "journal_bytes_per_write": (persisted / max(1, writes), "bytes"),
        "rss_peak_mb": (procs.max_child_rss_kb / 1024.0, "MB"),
    }
    return samples, len(w["ops"]), wall, metrics, tally, info


# ---------------------------------------------------------------------------
# End-to-end run (tracing off).
# ---------------------------------------------------------------------------

def end_to_end(name, seed, exes, procs, tmp, **kw):
    if name == "offline-pipeline":
        samples, n_ops, wall, m, tally, info = run_offline(seed, exes, procs, tmp)
    else:
        samples, n_ops, wall, m, tally, info = run_daemon_workload(
            name, seed, exes, procs, tmp, **kw)
    metrics = dict(m)
    for kind in ("write", "read"):
        xs = samples[kind]
        if not xs:
            raise HarnessError(f"no {kind} samples")
        pname, pval = tail(xs)
        metrics[f"{kind}_p50_ms"] = (p50(xs), "ms")
        metrics[f"{kind}_tail_ms"] = (pval, "ms")
        log(f"# {kind}s: {len(xs)} samples; {kind}_tail_ms is {pname}")
    metrics["ops_per_s"] = (n_ops / wall, "1/s")
    metrics["ok_share"] = ((tally.attempted - tally.failed) / tally.attempted, "share")
    log(f"# measured phase: {json.dumps(info)}")
    return metrics, tally, samples


# ---------------------------------------------------------------------------
# Traced run: in-process replay of the same inputs, layer by layer.
# ---------------------------------------------------------------------------

# The per-layer figures only a daemon (or only an offline) workload
# produces.  The other kind of workload reports them as 0; a figure
# missing from the workload that should produce it fails the run.
DAEMON_LAYERS = (
    "printer.print_ms", "elaborate.load_ms", "parser.decl_ms",
    "persist.save_certificate_ms", "certify.schedule_ms", "checker.check_ms",
    "latency.verify_ms", "latency.windows_per_op", "journal.append_ms",
    "journal.record_bytes", "engine.replay_ms_per_record", "canon.of_model_ms",
    "engine.memo_hit_share", "engine.warm_hit_share", "decompose.components_ms",
    "decompose.solves_per_admit", "synthesis.component_ms", "admission.admit_ms",
    "daemon.serve_line_ms", "transport.overhead_ms", "gc.minor_words_per_op",
    "gc.major_collections_per_op",
)
OFFLINE_LAYERS = (
    "exact.solve_ms", "game.states_per_solve", "game.table_hit_share",
    "runtime.run_ms", "robust_runtime.run_ms", "dist_runtime.run_ms",
    "persist.load_certificate_ms",
)


def layers_exe(exes, procs, args, tmp):
    p = procs.spawn([exes["layers"]] + args, cwd=tmp, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE)
    out, err = p.communicate()
    procs.reap(p)
    if p.returncode != 0:
        raise HarnessError(f"layers failed: {err.decode()[-2000:]}")
    return json.loads(out.decode().strip().splitlines()[-1])


def traced(name, seed, exes, procs, tmp, units):
    tally = Tally()
    if name == "offline-pipeline":
        w = gen.offline_pipeline(seed)
        for fname, content in w["files"].items():
            with open(os.path.join(tmp, fname), "w") as f:
                f.write(content)
        for argv in w["setup"]:
            rc, out, err, _ = run_rtsyn(procs, exes["rtsyn"], argv, tmp)
            tally.check(rc == 0, f"setup {argv}: rc {rc}")
        manifest = {
            "exact": [f"pinwheel{i}.spec" for i in range(len(gen.PINWHEELS))]
            + ["e3.spec"],
            "infeasible": len(gen.PINWHEELS),
            "plan": "plant.plan", "cert": "plant.cert",
            "replay_horizon": gen.REPLAY_PLANT_HORIZON,
            "control": "control.spec",
            "faultsim_horizon": gen.FAULTSIM_HORIZON,
            "distsim_horizon": gen.DISTSIM_HORIZON,
        }
        with open(os.path.join(tmp, "manifest.json"), "w") as f:
            json.dump(manifest, f)
        values = layers_exe(exes, procs, ["offline", "manifest.json"], tmp)
        # Shape: every exact op resolves to its definite verdict.
        tally.check(values.pop("verdicts_ok") == 1.0, "an exact verdict was not definite")
        for k in DAEMON_LAYERS:
            values.setdefault(k, 0.0)
    else:
        # The socket run of the same workload gives the transport's side.
        # One set-up suffices here: only the socket latencies are used.
        _, t, socket_samples = end_to_end(name, seed, exes, procs, tmp, reps=1)
        tally.attempted += t.attempted
        tally.failed += t.failed
        w = gen.DAEMON_WORKLOADS[name](seed)
        warm = [op["req"] for l in w["warmup"] for op in l]
        snap = {"v": 1, "id": "snap", "op": "snapshot"}
        # Sequential order; reads change no state, so any interleaving of
        # the connections gives the same answers.  The second snapshot
        # leaves the journal as the last restart saw it.
        segs = [[op["req"] for stage in seg["stages"]
                 for rnd in round_robin(stage) for op in rnd]
                for seg in w["segments"]]
        lines = warm + [snap] + [r for seg in segs[:-1] for r in seg]
        lines += [snap] + segs[-1]
        with open(os.path.join(tmp, "ops.jsonl"), "w") as f:
            for r in lines:
                f.write(json.dumps(r) + "\n")
        os.makedirs(os.path.join(tmp, "trace"), exist_ok=True)
        values = layers_exe(exes, procs, ["daemon", "base.spec", "ops.jsonl",
                                          "trace", str(len(warm) + 1)], tmp)
        # Socket p50 minus in-process p50 over the same measured requests.
        values["transport.overhead_ms"] = (
            p50(socket_samples["all"]) - values["daemon.serve_line_ms"])
        admits = values.pop("admits")
        memo = values.pop("memo_hits")
        log(f"# shape: {admits:g} measured admits, memo share {memo / max(1, admits):.3f}, "
            f"component solves per admit {values['decompose.solves_per_admit']:.3f}")
        if name == "resident-3k":
            tally.check(memo == 0, f"resident-3k memo hits: {memo}")
            tally.check(values["decompose.solves_per_admit"] == 1.0,
                        "resident-3k: not exactly one component solve per admit")
        for k in OFFLINE_LAYERS:
            values.setdefault(k, 0.0)
    metrics = {k: (values[k], units[k]) for k in units}
    return metrics, tally


def round_robin(lists):
    """Round-robin merge of the connections' op lists, one op each."""
    its = [iter(l) for l in lists]
    out = []
    while its:
        rnd = []
        for it in list(its):
            try:
                rnd.append(next(it))
            except StopIteration:
                its.remove(it)
        if rnd:
            out.append(rnd)
    return out


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, trace, exes):
    bench = load_spec()
    if workload not in [w["name"] for w in bench["workloads"]]:
        raise HarnessError(f"unknown workload {workload}")
    run_root = os.path.join(ROOT, ".bench_run")
    os.makedirs(run_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=run_root)
    procs = Procs()
    log(f"# cpus: {procs.cpus}")
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        if trace:
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            metrics, tally = traced(workload, seed, exes, procs, tmp, units)
        else:
            metrics, tally, _ = end_to_end(workload, seed, exes, procs, tmp)
    finally:
        procs.kill_all()
        os.chdir(cwd)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(run_root)
        except OSError:
            pass
    for note in tally.notes:
        log(f"# FAILED: {note}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def steady(workload, n, trace, exes):
    bench = load_spec()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in range(1, n + 1):
        r = one_run(workload, seed, trace, exes)
        runs.append(r)
        print(json.dumps(r), flush=True)
    print(f"{workload}: {n} runs, all correct: {all(r['correct'] for r in runs)}")
    for k in runs[0]["metrics"]:
        vals = [r["metrics"][k]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        b = bounds.get(k)
        verdict = "" if b is None else (
            f"bound {b:.2f}  {'ok' if spread < b / 3 else 'WIDE' if spread <= b else 'OVER'}")
        print(f"  {k:28s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
              f"spread {spread:7.4f}  {verdict}")


def on_signal(signum, _frame):
    # Turn SIGTERM/SIGHUP into an exception so the cleanup in one_run
    # kills and reaps the daemon and removes the run directory.
    raise HarnessError(f"interrupted by signal {signum}")


def main():
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGHUP, on_signal)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0,
                    help="run the workload N times (seeds 1..N) and print spreads")
    a = ap.parse_args()
    try:
        exes = build()
        if a.steady:
            steady(a.workload, a.steady, a.trace, exes)
            return 0
        result = one_run(a.workload, a.seed, a.trace, exes)
    except (HarnessError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

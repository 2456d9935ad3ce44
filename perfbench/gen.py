"""Seeded input generator for the perfbench workloads.

Every name, deadline and operation order comes from the seed; the
shape of each workload (component count and sizes, operation counts,
which answer path each request must take) does not, so two seeds cost
the program the same work and differ only in what it is called and in
deadlines that do not bind the schedule.

The program under test receives only what this module generates.
"""

import random
import string

# A write changes state or produces an artifact; every other daemon
# request (what-if, stats) is a read: it only loads or checks state.
WRITES = ("admit", "retire", "snapshot")


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _tag(rng):
    # A seed-chosen name prefix shared by every element and constraint of
    # one kind, so renaming keeps the alphabetical order the elaborator
    # imposes and with it the schedule and the search order.
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(3))


def _req(ident, op, **fields):
    r = {"v": 1, "id": ident, "op": op}
    r.update(fields)
    return r


def _op(req, expect):
    kind = "write" if req["op"] in WRITES else "read"
    return {"req": req, "kind": kind, "expect": expect}


# Daemon runs are cut into this many segments; each ends with a kill -9
# and a timed restart, so restarts (like every other measurement) are
# spread over the whole run rather than bunched at its end.
SEGMENTS = 5


def ok(path=None):
    return {"ok": True, "path": path}


def rejected(prefix):
    return {"ok": False, "kind": "rejected", "prefix": prefix}


# ---------------------------------------------------------------------------
# resident-3k: 3,000 residents in 50 single-element components.
# ---------------------------------------------------------------------------

R3K_COMPONENTS = 50
R3K_PER_COMPONENT = 60
R3K_IDLE = 64
R3K_WARMUP_ROUNDS = 3
R3K_SEGMENT_ROUNDS = 16


def resident_3k(seed):
    """Fixed residency: each round admits a new tenant on an idle element
    (a structurally distinct constraint: its separation is used once per
    run, so the canonical-form memo never hits and the touched component
    is solved), retires the previous round's tenant, asks a what-if for
    another idle element, and sends an admit the analytic test refuses.  Every resident and tenant has the same
    seed-chosen deadline, so each component's schedule is one slot per
    deadline and they all interleave in one cycle; the range is narrow so
    the cycle length, and with it the work per request, barely moves."""
    rng = _rng("resident-3k", seed)
    el, co, te = _tag(rng), _tag(rng), _tag(rng)
    deadline = rng.randint(504, 520)
    lines = ['system "plant" {']
    for k in range(R3K_COMPONENTS):
        lines.append(f"  element {el}e{k} weight 1 pipelinable;")
    for u in range(R3K_IDLE):
        lines.append(f"  element {el}u{u} weight 1 pipelinable;")
    # One path through every element: the edges constrain no schedule
    # (every constraint is a single element) but leave the communication
    # graph without automorphisms, so canonicalization does not search
    # through 50! orderings of identical components.
    path = [f"{el}e{k}" for k in range(R3K_COMPONENTS)]
    path += [f"{el}u{u}" for u in range(R3K_IDLE)]
    for a, b in zip(path, path[1:]):
        lines.append(f"  edge {a} -> {b};")
    for k in range(R3K_COMPONENTS):
        for i in range(R3K_PER_COMPONENT):
            lines.append(
                f"  constraint {co}c{k}_{i} asynchronous separation 1024 "
                f"deadline {deadline} {{ {el}e{k}; }}"
            )
    lines.append("}")
    spec = "\n".join(lines) + "\n"

    rounds = R3K_WARMUP_ROUNDS + SEGMENTS * R3K_SEGMENT_ROUNDS
    # Even idle elements host admitted tenants, odd ones what-ifs, so a
    # what-if never lands on an element the resident schedule runs.
    hosts = list(range(0, R3K_IDLE, 2))
    probes = list(range(1, R3K_IDLE, 2))
    rng.shuffle(hosts)
    rng.shuffle(probes)
    seps = rng.sample(range(1025, 2048), rounds)
    probe_seps = rng.sample(range(2049, 4096), rounds)

    tenants = []  # names currently expected resident, in admit order

    def round_ops(r):
        ops = []
        name = f"{te}t{r}"
        host = hosts[r % len(hosts)]
        decl = (
            f"constraint {name} asynchronous separation {seps[r]} "
            f"deadline {deadline} {{ {el}u{host}; }}"
        )
        ops.append(_op(_req(f"a{r}", "admit", decl=decl), ok("synth")))
        tenants.append(name)
        if len(tenants) > 1:
            old = tenants.pop(0)
            ops.append(_op(_req(f"r{r}", "retire", name=old), ok("retire")))
        probe = probes[r % len(probes)]
        wdecl = (
            f"constraint {te}w{r} asynchronous separation {probe_seps[r]} "
            f"deadline {deadline} {{ {el}u{probe}; }}"
        )
        ops.append(_op(_req(f"w{r}", "what-if", decl=wdecl), ok("synth")))
        # An admit the analytic test refuses: the whole source round-trip
        # and nothing after it.  With it the write median falls inside
        # the retires rather than on the edge between retires and admits.
        ndecl = (
            f"constraint {te}n{r} periodic period 1 deadline 1 "
            f"{{ {el}e{r % R3K_COMPONENTS}; }}"
        )
        ops.append(_op(_req(f"n{r}", "admit", decl=ndecl), rejected("impossible")))
        # A seed-chosen order within the round, so that the program's
        # periodic costs (garbage collection above all) do not lock onto
        # one kind of request for a whole run.
        rng.shuffle(ops)
        return ops

    warmup = []
    for r in range(R3K_WARMUP_ROUNDS):
        warmup += round_ops(r)
    segments = []
    for k in range(SEGMENTS):
        ops = []
        for j in range(R3K_SEGMENT_ROUNDS):
            ops += round_ops(R3K_WARMUP_ROUNDS + k * R3K_SEGMENT_ROUNDS + j)
        ops.append(_op(_req(f"s{k}", "stats"), ok()))
        segments.append({
            "stages": [[ops]],
            "resident": list(tenants),
            "residents": R3K_COMPONENTS * R3K_PER_COMPONENT + len(tenants),
        })
    return {
        "spec": spec,
        "base_residents": R3K_COMPONENTS * R3K_PER_COMPONENT,
        "warmup": [warmup],
        "segments": segments,
    }


# ---------------------------------------------------------------------------
# tenant-churn: about 300 residents in 24 three-element tenant components.
# ---------------------------------------------------------------------------

TC_TENANTS = 24
TC_IDLE = 24
TC_WARMUP_ROUNDS = 2
TC_SEGMENT_ROUNDS = 28
TC_READS_PER_ROUND = 2
TC_STATS_EVERY = 4


def tenant_churn(seed):
    """Tenants are three-element chains; tenant t holds 1..24 constraints
    over its chain (distinct sizes, so tenants are not symmetric and the
    canonical form stays cheap).  The writer connection runs rounds of a
    fresh admit on an idle chain (synth path), the retire of the previous
    fresh tenant, the retire of one resident and its alpha-renamed
    re-admit (memo path).  The reader connection asks what-ifs on idle
    chains the writer never touches, so every answer path is fixed
    however the two connections interleave.  Admits the analytic
    admission test refuses, and stats, run after them on one connection
    (see the measured phase below)."""
    rng = _rng("tenant-churn", seed)
    el, co, te = _tag(rng), _tag(rng), _tag(rng)
    slack_deadline = rng.randint(600, 640)
    sizes = list(range(1, TC_TENANTS + 1))
    rng.shuffle(sizes)
    lines = ['system "tenants" {']
    chain = lambda t: f"{el}x{t} -> {el}y{t} -> {el}z{t}"  # noqa: E731
    for t in range(TC_TENANTS + TC_IDLE):
        for e in "xyz":
            lines.append(f"  element {el}{e}{t} weight 1 pipelinable;")
    for t in range(TC_TENANTS + TC_IDLE):
        lines.append(f"  edge {el}x{t} -> {el}y{t};")
        lines.append(f"  edge {el}y{t} -> {el}z{t};")
        # Linking the chains into one path leaves the idle tenants without
        # automorphisms (see resident_3k); no constraint spans the links.
        if t + 1 < TC_TENANTS + TC_IDLE:
            lines.append(f"  edge {el}z{t} -> {el}x{t + 1};")
    names = {}
    for t in range(TC_TENANTS):
        for i in range(sizes[t]):
            d = 512 if i == 0 else slack_deadline
            names[(t, i)] = f"{co}k{t}_{i}"
            lines.append(
                f"  constraint {co}k{t}_{i} asynchronous separation 1024 "
                f"deadline {d} {{ {chain(t)}; }}"
            )
    lines.append("}")
    spec = "\n".join(lines) + "\n"

    rounds = TC_WARMUP_ROUNDS + SEGMENTS * TC_SEGMENT_ROUNDS
    idle = list(range(TC_TENANTS, TC_TENANTS + TC_IDLE))
    rng.shuffle(idle)
    hosts, probes = idle[: TC_IDLE // 2], idle[TC_IDLE // 2:]
    seps = rng.sample(range(1025, 2048), rounds)
    probe_seps = rng.sample(range(2049, 4096), rounds * TC_READS_PER_ROUND)
    churnable = [t for t in range(TC_TENANTS) if sizes[t] >= 2]
    rng.shuffle(churnable)
    fresh = []

    def writer_round(r, last_in_segment=False):
        ops = []
        name = f"{te}f{r}"
        host = hosts[r % len(hosts)]
        decl = (
            f"constraint {name} asynchronous separation {seps[r]} "
            f"deadline 512 {{ {chain(host)}; }}"
        )
        ops.append(_op(_req(f"a{r}", "admit", decl=decl), ok("synth")))
        fresh.append(name)
        if len(fresh) > 1:
            ops.append(
                _op(_req(f"r{r}", "retire", name=fresh.pop(0)), ok("retire"))
            )
        t = churnable[r % len(churnable)]
        old = names[(t, 1)]
        new = f"{te}m{r}"
        names[(t, 1)] = new
        churn = [_op(_req(f"q{r}", "retire", name=old), ok("retire"))]
        decl = (
            f"constraint {new} asynchronous separation 1024 "
            f"deadline {slack_deadline} {{ {chain(t)}; }}"
        )
        churn.append(_op(_req(f"m{r}", "admit", decl=decl), ok("memo")))
        # Seed-chosen order of the two pairs (see resident_3k's rounds),
        # except that a segment ends on the re-admit: journal replay
        # re-seeds the memo at admit records only, so a restart after a
        # final retire would leave the next re-admit without its memo
        # entry.
        if last_in_segment or rng.random() < 0.5:
            return ops + churn
        return churn + ops

    def quick_round(r):
        # Requests answered in a millisecond or two, whatever the state.
        ops = []
        if r % 2 == 0:
            t = churnable[r % len(churnable)]
            decl = (
                f"constraint {te}n{r} periodic period 1 deadline 1 "
                f"{{ {el}z{t}; }}"
            )
            ops.append(_op(_req(f"n{r}", "admit", decl=decl), rejected("impossible")))
        if r % TC_STATS_EVERY == 0:
            ops.append(_op(_req(f"s{r}", "stats"), ok()))
        return ops

    def reader_round(r):
        ops = []
        for j in range(TC_READS_PER_ROUND):
            k = r * TC_READS_PER_ROUND + j
            probe = probes[k % len(probes)]
            decl = (
                f"constraint {te}w{k} asynchronous separation {probe_seps[k]} "
                f"deadline 512 {{ {chain(probe)}; }}"
            )
            ops.append(_op(_req(f"w{k}", "what-if", decl=decl), ok("synth")))
        return ops

    warm_w, warm_r = [], []
    for r in range(TC_WARMUP_ROUNDS):
        warm_w += writer_round(r) + quick_round(r)
        warm_r += reader_round(r)
    # Each segment runs the two connections on slow requests only, then
    # the quick ones on one connection.  A quick request in the
    # two-connection stage would let the generator's turnaround time
    # decide which request the other connection's waits behind, and with
    # it the latency distribution.
    segments = []
    for k in range(SEGMENTS):
        meas_w, meas_r, quick = [], [], []
        for j in range(TC_SEGMENT_ROUNDS):
            r = TC_WARMUP_ROUNDS + k * TC_SEGMENT_ROUNDS + j
            meas_w += writer_round(r, j == TC_SEGMENT_ROUNDS - 1)
            meas_r += reader_round(r)
            quick += quick_round(r)
        segments.append({
            "stages": [[meas_w, meas_r], [quick]],
            "resident": list(fresh) + [names[(t, 1)] for t in churnable],
            "residents": sum(sizes) + len(fresh),
        })
    return {
        "spec": spec,
        "base_residents": sum(sizes),
        "warmup": [warm_w, warm_r],
        "segments": segments,
    }


# ---------------------------------------------------------------------------
# offline-pipeline: rtsyn processes, no daemon.
# ---------------------------------------------------------------------------

# Infeasible pinwheel-style instances: density below 1, yet no schedule
# exists, and the analytic test cannot tell (inconclusive), so the exact
# game search has to exhaust them.  Each takes the search 0.1-0.3 s.
PINWHEELS = ([4, 5, 7, 8, 9, 12, 20], [4, 5, 6, 9, 10, 15, 16], [4, 5, 7, 8, 10, 15, 18])
# A 3-PARTITION yes-instance (m = 3, b = 17) in the Theorem-2 reduction.
E3_ITEMS = [7, 6, 5, 6, 6, 5, 6, 5, 5]
E3_B = 17

PLANT_COMPONENTS = 100
PLANT_PER_COMPONENT = 60

OFF_PINWHEEL_REPS = 3
OFF_E3_REPS = 2
OFF_SYNTH = 30
OFF_CHECK = 8
OFF_REPLAY_PLANT = 8
OFF_REPLAY_CONTROL = 8
OFF_FAULTSIM = 8
OFF_DISTSIM = 8
REPLAY_PLANT_HORIZON = 256
REPLAY_CONTROL_HORIZON = 3000
FAULTSIM_HORIZON = 20000
DISTSIM_HORIZON = 20000


def _pinwheel(tag, ds):
    lines = [f'system "pinwheel" {{']
    for i in range(len(ds)):
        lines.append(f"  element {tag}p{i} weight 1 atomic;")
    for i, d in enumerate(ds):
        lines.append(
            f"  constraint {tag}c{i} asynchronous separation {d} deadline {d} "
            f"{{ {tag}p{i}; }}"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _e3(tag):
    m = len(E3_ITEMS) // 3
    d_sep = 3 * E3_B - 1
    d_item = 2 * m * E3_B + (E3_B + 1) // 2
    lines = ['system "e3" {', f"  element {tag}sep weight {E3_B} atomic;"]
    for j, w in enumerate(E3_ITEMS):
        lines.append(f"  element {tag}item{j} weight {w} atomic;")
    lines.append(
        f"  constraint {tag}sep asynchronous separation {d_sep} deadline {d_sep} "
        f"{{ {tag}sep; }}"
    )
    for j in range(len(E3_ITEMS)):
        lines.append(
            f"  constraint {tag}it{j} asynchronous separation {d_item} "
            f"deadline {d_item} {{ {tag}item{j}; }}"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _plant(tag, slack_deadline):
    lines = ['system "plant" {']
    for k in range(PLANT_COMPONENTS):
        lines.append(f"  element {tag}e{k} weight 1 pipelinable;")
    for k in range(PLANT_COMPONENTS):
        for i in range(PLANT_PER_COMPONENT):
            d = 512 if i == 0 else slack_deadline
            lines.append(
                f"  constraint {tag}c{k}_{i} asynchronous separation 1024 "
                f"deadline {d} {{ {tag}e{k}; }}"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _control(tag):
    # The paper's control system (rtsyn example), renamed.
    e = lambda n: f"{tag}{n}"  # noqa: E731
    return "\n".join([
        'system "control" {',
        f"  element {e('fx')} weight 1 pipelinable;",
        f"  element {e('fy')} weight 1 pipelinable;",
        f"  element {e('fz')} weight 1 pipelinable;",
        f"  element {e('fs')} weight 2 pipelinable;",
        f"  element {e('fk')} weight 1 pipelinable;",
        f"  edge {e('fk')} -> {e('fs')};",
        f"  edge {e('fs')} -> {e('fk')};",
        f"  edge {e('fz')} -> {e('fs')};",
        f"  edge {e('fy')} -> {e('fs')};",
        f"  edge {e('fx')} -> {e('fs')};",
        f"  constraint {e('px')} periodic period 10 deadline 10 {{ {e('fs')} -> {e('fk')}; {e('fx')} -> {e('fs')}; }}",
        f"  constraint {e('py')} periodic period 20 deadline 20 {{ {e('fs')} -> {e('fk')}; {e('fy')} -> {e('fs')}; }}",
        f"  constraint {e('pz')} asynchronous separation 50 deadline 15 {{ {e('fz')} -> {e('fs')}; }}",
        "}",
    ]) + "\n"


def offline_pipeline(seed):
    """Files to write and rtsyn invocations to run.  Each op is
    {"kind", "argv" (paths relative to the run directory), "expect_rc",
    "expect_line" (a substring of stdout), "artifacts" (files a write
    persists)}.  Set-up synthesizes the plans and certificates the reads
    consume."""
    rng = _rng("offline-pipeline", seed)
    tag = _tag(rng)
    files = {
        "plant.spec": _plant(tag, rng.randint(600, 640)),
        "control.spec": _control(tag),
        "e3.spec": _e3(tag),
    }
    for i, ds in enumerate(PINWHEELS):
        files[f"pinwheel{i}.spec"] = _pinwheel(tag, ds)
    setup = [
        ["synth", "plant.spec", "-o", "plant.plan", "--cert", "plant.cert"],
        ["synth", "control.spec", "-o", "control.plan", "--cert", "control.cert"],
    ]

    def op(kind, argv, rc, line, artifacts=()):
        return {"kind": kind, "argv": argv, "expect_rc": rc,
                "expect_line": line, "artifacts": list(artifacts)}

    ops = []
    for r in range(OFF_PINWHEEL_REPS):
        for i in range(len(PINWHEELS)):
            ops.append(op("write", ["exact", f"pinwheel{i}.spec", "--cert", f"pw{i}_{r}.cert"],
                          1, "INFEASIBLE", [f"pw{i}_{r}.cert"]))
    for r in range(OFF_E3_REPS):
        ops.append(op("write", ["exact", "e3.spec", "--cert", f"e3_{r}.cert"], 0,
                      "certificate: OK", [f"e3_{r}.cert"]))
    for r in range(OFF_SYNTH):
        # A few output names, rewritten in turn: the bytes each write
        # persists count, and restart recovery re-checks what is on disk.
        k = r % 4
        ops.append(op("write", ["synth", "plant.spec", "-o", f"plant{k}.plan",
                                "--cert", f"plant{k}.cert"], 0, "certificate: OK",
                      [f"plant{k}.plan", f"plant{k}.cert"]))
    for r in range(OFF_CHECK):
        ops.append(op("read", ["check", "plant.spec", "--certificate",
                               "plant.cert"], 0, "CERTIFICATE OK"))
    for r in range(OFF_REPLAY_PLANT):
        ops.append(op("read", ["replay", "plant.plan", "--horizon",
                               str(REPLAY_PLANT_HORIZON), "--seed", str(r + 1)],
                      0, "worst response"))
    for r in range(OFF_REPLAY_CONTROL):
        ops.append(op("read", ["replay", "control.plan", "--horizon",
                               str(REPLAY_CONTROL_HORIZON), "--seed", str(r + 1)],
                      0, "worst response"))
    for r in range(OFF_FAULTSIM):
        ops.append(op("read", ["faultsim", "control.spec", "--horizon",
                               str(FAULTSIM_HORIZON), "--seed", str(r + 1)],
                      0, "0 misses"))
    for r in range(OFF_DISTSIM):
        ops.append(op("read", ["distsim", "control.spec", "--horizon",
                               str(DISTSIM_HORIZON), "--seed", str(r + 1)],
                      0, "invocations"))
    rng.shuffle(ops)
    return {"files": files, "setup": setup, "ops": ops}


DAEMON_WORKLOADS = {"resident-3k": resident_3k, "tenant-churn": tenant_churn}

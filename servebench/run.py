#!/usr/bin/env python3
"""The served end-to-end benchmark of the SELECT-trigger engine.

    python3 servebench/run.py --workload point_read --seed 1 --seconds 20 \
        --trace 0

Run from the root of a source checkout. It builds serverd and the traced
replay with dune, generates the workload's inputs from the seed, starts
serverd as a child on a private Unix socket with a fail-closed audit log,
loads the inputs through its init script, and drives the workload from this
one process over CONNECTIONS connections, closed loop (each waits for its
reply).
Afterwards it checks every reply and the audit log, and prints one JSON
line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics of a traced run (see README.md). Exit status: 0 when every output
was correct, 1 when one was not, 2 when the benchmark could not run.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import check  # noqa: E402
import client  # noqa: E402
import gen  # noqa: E402

# Closed-loop client connections. Two sessions audited at once leak
# ACCESSED IDs into each other's evidence (the per-session query generation
# marks a table shared by all sessions), so the workloads run one until
# that is mended; the load generator itself is written for any number.
CONNECTIONS = 1
SETUPS = 3
# Each set-up first runs its stream untimed for this long, so a fresh
# server's heap growth and first-touch page faults stay out of the figures.
WARMUP_S = 0.5
SERVERD = os.path.join("_build", "default", "bin", "serverd.exe")
# Everything the benchmark writes goes under dune's build directory, which
# the repository already ignores: the traced replay's workspace and one
# fresh temp directory per run.
WORK = os.path.join("_build", "servebench")
TRACE_WS = os.path.join(WORK, "trace-ws")
TRACER = os.path.join(TRACE_WS, "_build", "default", "servebench_trace.exe")
# Settings the program reads from its environment: the benchmark runs the
# program with its defaults.
SCRUB = ("EXEC_MODE", "BATCH_MODE", "STORAGE", "ELISION", "VERIFY")
SCRUB_PREFIXES = ("TPCH_", "BENCH_")

CHILDREN = []


def log(msg):
    print("[servebench] %s" % msg, file=sys.stderr, flush=True)


class Abort(Exception):
    """The benchmark cannot run (as opposed to: the program was wrong)."""


def clean_env():
    env = {k: v for k, v in os.environ.items()
           if k not in SCRUB and not k.startswith(SCRUB_PREFIXES)}
    env["DUNE_CACHE"] = "disabled"
    return env


def spawn(args, cpu=None, **kw):
    """A child process; with cpu, bound to that CPU before it runs."""
    if cpu is not None:
        kw["preexec_fn"] = lambda: os.sched_setaffinity(0, {cpu})
    p = subprocess.Popen(args, env=clean_env(), **kw)
    CHILDREN.append(p)
    return p


def cpu_plan():
    """(load generator's CPU, server's CPU), or (None, None) on one CPU.
    Each side keeps a CPU of its own, so neither waits for the other's
    time slice and the scheduler does not move them between CPUs
    mid-statement."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else (None, None)


CLIENT_CPU, SERVER_CPU = cpu_plan()
# The workload connection busy-polls for its replies (client.Conn) when it
# has the load generator's CPU to itself; connections sharing that CPU
# would poll in each other's way.
SPIN = CLIENT_CPU is not None and CONNECTIONS == 1


def reap_all():
    for p in CHILDREN:
        if p.poll() is None:
            p.terminate()
    for p in CHILDREN:
        try:
            p.wait(timeout=20)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def link(target, name):
    """A symlink at name to target (relative to name's directory)."""
    if os.path.islink(name) and os.readlink(name) == target:
        return
    if os.path.lexists(name):
        os.remove(name)
    os.symlink(target, name)


def build():
    """serverd in the repository's own build; the traced replay, a dune
    project of its own (servebench/trace), in a workspace that links that
    project's files beside the repository's libraries."""
    trace_src = os.path.join("servebench", "trace")
    for f in ("dune-project", os.path.join("bin", "serverd.ml"),
              os.path.join(trace_src, "dune-project")):
        if not os.path.exists(f):
            raise Abort("not a source checkout: %s is missing" % f)
    t0 = time.perf_counter()
    p = spawn(["dune", "build", "--root", ".", "bin/serverd.exe"],
              stdout=sys.stderr, stderr=sys.stderr)
    if p.wait() != 0:
        raise Abort("dune build of serverd failed")
    os.makedirs(TRACE_WS, exist_ok=True)
    up = os.path.join(*[".."] * len(TRACE_WS.split(os.sep)))
    for f in ("dune-project", "dune", "servebench_trace.ml"):
        link(os.path.join(up, trace_src, f), os.path.join(TRACE_WS, f))
    link(os.path.join(up, "lib"), os.path.join(TRACE_WS, "lib"))
    p = spawn(["dune", "build", "--root", TRACE_WS, "./servebench_trace.exe"],
              stdout=sys.stderr, stderr=sys.stderr)
    if p.wait() != 0:
        raise Abort("dune build of the traced replay failed")
    log("build %.1fs" % (time.perf_counter() - t0))


# ---------------------------------------------------------------------------
# The server child
# ---------------------------------------------------------------------------

class Server:
    def __init__(self, tmp, name, init_path):
        self.dir = os.path.join(tmp, name)
        os.mkdir(self.dir)
        # Relative to the checkout root, so it stays far below the 108-byte
        # limit on socket paths wherever the checkout lives.
        self.sock = os.path.join(self.dir, "s.sock")
        self.wal = os.path.join(self.dir, "audit.wal")
        self.log_path = os.path.join(self.dir, "serverd.log")
        logf = open(self.log_path, "w")
        t0 = time.perf_counter()
        self.proc = spawn([SERVERD, "--socket", self.sock, "--wal", self.wal,
                           "--init", init_path], cpu=SERVER_CPU,
                          stdout=logf, stderr=subprocess.STDOUT)
        logf.close()
        deadline = t0 + 120
        while True:
            if self.proc.poll() is not None:
                raise Abort("serverd exited during set-up: %s"
                            % self.tail())
            try:
                client.Conn(self.sock, "ready").close()
                break
            except OSError:
                if time.perf_counter() > deadline:
                    raise Abort("serverd not ready after 120 s")
                time.sleep(0.002)
        self.setup_s = time.perf_counter() - t0

    def tail(self):
        with open(self.log_path) as f:
            return f.read()[-400:]

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise Abort("no VmHWM for serverd")

    def stop(self):
        """SIGTERM (drains the group-commit queue) and the stats line."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise Abort("serverd did not stop on SIGTERM")
        with open(self.log_path) as f:
            lines = [ln for ln in f if "stats:" in ln]
        if not lines:
            raise Abort("no stats line from serverd: %s" % self.tail())
        return {k: int(v) for k, v in
                (kv.split("=") for kv in lines[-1].split("stats:")[1].split()
                 if "=" in kv)}


# ---------------------------------------------------------------------------
# Load generation: closed loop, one thread per connection
# ---------------------------------------------------------------------------

def drive(server, streams, warmup, seconds):
    """Each connection runs whole rounds of its stream: for warmup seconds
    untimed (their replies are kept with lat None and checked like the
    others), then for the given seconds timed. Returns (executed, wall):
    wall is the time from the first timed request to the last reply, in
    seconds."""
    conns = [client.Conn(server.sock, "c%d" % i, spin=SPIN)
             for i in range(len(streams))]
    results = [[] for _ in streams]
    starts = [None] * len(streams)
    warm_end = time.perf_counter() + warmup
    deadline = warm_end + seconds

    def worker(i):
        c, out, seq = conns[i], results[i], 0
        try:
            while time.perf_counter() < deadline:
                timed = time.perf_counter() >= warm_end
                if timed and starts[i] is None:
                    starts[i] = time.perf_counter()
                for st in streams[i].next_round():
                    seq += 1
                    t0 = time.perf_counter()
                    tag, text = c.execute(seq, st.sql)
                    lat = time.perf_counter() - t0 if timed else None
                    out.append(check.Executed(c.user, c.session, seq, st, tag,
                                              text, lat))
        except (OSError, client.ProtocolError) as e:
            out.append(check.Executed(c.user, c.session, seq, None, "X",
                                      str(e)))

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(len(streams))]
    # The loop makes no reference cycles; a collection pass over the
    # replies kept so far would only add pauses to the measured latencies.
    gc.disable()
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        end = time.perf_counter()
        gc.enable()
    for c in conns:
        c.close()
    wall = end - min((t for t in starts if t is not None), default=end)
    return [e for r in results for e in r], wall


def percentile(sorted_xs, q):
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def served_run(tmp, name, workload, data, init_path, seed, nconn, seconds):
    """Start a server, drive nconn connections, check everything. Returns a
    dict of raw measurements and the checker."""
    srv = Server(tmp, name, init_path)
    streams = [gen.make_stream(workload, data, seed, i, nconn)
               for i in range(nconn)]
    executed, wall = drive(srv, streams, WARMUP_S, seconds)
    rss = srv.peak_rss_mb()
    ck = check.Checker(data)
    broken = [e for e in executed if e.tag == "X"]
    if broken:
        srv.stop()
        raise Abort("connection lost: %s" % broken[0].text)
    sessions = {e.session for e in executed}
    c = client.Conn(srv.sock, "checker")
    try:
        def ask(sql):
            tag, text = c.execute(0, sql)
            if tag != "R":
                ck.fail("check query failed: %s: %s" % (sql[:60], text))
                return None
            return text
        if workload == "olap_audit":
            for qid in gen.QUERIES:
                ck.plain[qid] = ask(gen.plain_sql(qid))
            for qid in gen.REACH_SPAN:
                text = ask(gen.reach_sql(qid))
                if text is not None:
                    ck.set_reach(qid, text)
        log_text = ask("SELECT usr, ts, count(*), sum(custkey) FROM "
                       "access_log GROUP BY usr, ts")
        if workload == "write_mix":
            hist = ask("SELECT usr, ts, op, k FROM history")
            custs = ask("SELECT c_custkey, c_acctbal, c_mktsegment FROM "
                        "customer")
            orders = ask("SELECT count(*) FROM orders")
    finally:
        c.close()
    stats = srv.stop()
    with open(srv.wal, "rb") as f:
        records, torn = client.read_wal(f.read())
    if torn:
        ck.fail("audit log has %d unreadable trailing bytes" % torn)
    for e in executed:
        ck.reply(e)
    acked = ck.evidence(executed, records, sessions)
    if log_text is not None:
        ck.access_log(log_text, records, sessions)
    if workload == "write_mix" and None not in (hist, custs, orders):
        ck.history(hist, executed)
        ck.customers(custs, streams)
        ck.order_count(orders)
    evidence = sum(r["bytes"] for r in records
                   if r.get("session") in sessions)
    return {"executed": executed, "wall": wall,
            "rss": rss, "stats": stats, "acked": len(acked),
            "evidence": evidence, "setup_s": srv.setup_s, "checker": ck}


def failed_count(executed):
    return sum(1 for e in executed if e.tag != "R")


# ---------------------------------------------------------------------------
# Workload runs
# ---------------------------------------------------------------------------

def end_to_end(tmp, workload, data, init_path, seed, seconds):
    # Each set-up is measured, then drives its share of the run, so the
    # figures pool several server processes.
    runs = [served_run(tmp, "run%d" % i, workload, data, init_path, seed,
                       CONNECTIONS, seconds / SETUPS) for i in range(SETUPS)]
    executed = [e for r in runs for e in r["executed"]]
    lat = sorted(e.lat for e in executed
                 if e.tag == "R" and e.lat is not None)
    acked = sum(r["acked"] for r in runs)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
        "throughput_stmt_per_s": (len(lat) / sum(r["wall"] for r in runs),
                                  "stmt/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_p95_ms": (1e3 * percentile(lat, 0.95), "ms"),
        "evidence_bytes_per_stmt": (sum(r["evidence"] for r in runs) / acked,
                                    "bytes"),
        "server_peak_rss_mb": (statistics.median(r["rss"] for r in runs),
                               "MiB"),
    }
    if len(lat) - math.ceil(0.95 * len(lat)) < 10:
        log("only %d samples: p95 left out, fewer than 10 lie beyond it"
            % len(lat))
        del metrics["latency_p95_ms"]
    # p99 is logged but is no metric: on a shared host it moves with
    # scheduling and disk stalls by more than a regression bound can hold
    # (see README.md).
    log("p99 %.4f ms" % (1e3 * percentile(lat, 0.99)))
    log("%d statements; set-ups %s"
        % (len(executed), " ".join("%.3f" % r["setup_s"] for r in runs)))
    problems = [p for r in runs for p in r["checker"].problems]
    return problems, len(executed), failed_count(executed), metrics


def digest(text):
    return hashlib.md5("\n".join(sorted(text.split("\n"))).encode()).hexdigest()


def traced(tmp, workload, data, init_path, seed, seconds):
    # The served run gives serverd's group-commit stats and the served
    # latencies; the in-process replay runs the same statements from the
    # same initial state. The replay runs every served statement twice
    # (untraced and traced), so the served part is a quarter of the run.
    run = served_run(tmp, "run", workload, data, init_path, seed,
                     CONNECTIONS, seconds / 4)
    first = run["executed"][0].session
    served = [e for e in run["executed"] if e.session == first]
    stream_path = os.path.join(tmp, "stream.sql")
    replay = [e.stmt.sql for e in served]
    if workload != "write_mix":
        replay += [s.sql for s in gen.dml_probe(data, seed)]
    with open(stream_path, "w") as f:
        f.write("\n".join(replay) + "\n")
    out_path = os.path.join(tmp, "trace.json")
    p = spawn([TRACER, init_path, stream_path, tmp, out_path,
               os.path.join(tmp, "spans.tsv")],
              stdout=sys.stderr, stderr=sys.stderr)
    if p.wait() != 0:
        raise Abort("traced replay failed")
    with open(out_path) as f:
        tr = json.load(f)
    problems = run["checker"].problems
    for i, e in enumerate(served):
        if e.tag == "R" and tr["digests"][i] != digest(e.text):
            problems.append("in-process reply to statement %d differs from "
                            "the served one" % (i + 1))
            break
    ok = [i for i, e in enumerate(served)
          if e.tag == "R" and e.lat is not None]
    served_us = 1e6 * statistics.fmean(served[i].lat for i in ok)
    inproc_us = statistics.fmean(tr["untraced_exec_us"][i] for i in ok)
    stats = run["stats"]
    m = dict(tr["metrics"])
    m["audit_log.records_per_fsync"] = stats["records"] / max(1,
                                                                stats["fsyncs"])
    m["audit_log.fsyncs_per_stmt"] = stats["fsyncs"] / max(1,
                                                            stats["statements"])
    m["server.overhead_us"] = served_us - inproc_us
    return (problems, len(run["executed"]) + tr["statements"],
            failed_count(run["executed"]) + tr["failed"],
            {k: (v, UNITS[k]) for k, v in m.items()})


UNITS = {
    "sql.parse_us": "us", "plan.bind_optimize_us": "us",
    "plan.lower_us": "us", "core.placement_us": "us",
    "core.accessed_ids_per_stmt": "ids/stmt",
    "core.exact_over_accessed": "ratio", "exec.run_us": "us",
    "exec.rows_scanned_per_stmt": "rows/stmt",
    "exec.audit_probes_per_stmt": "probes/stmt",
    "exec.probe_hit_ratio": "ratio", "db.exec_us": "us",
    "db.trigger_us": "us", "db.trigger_rows_per_stmt": "rows/stmt",
    "db.update_us": "us", "db.insert_us": "us", "db.delete_us": "us",
    "audit_log.append_us": "us", "audit_log.sync_us": "us",
    "audit_log.records_per_stmt": "records/stmt",
    "audit_log.records_per_fsync": "records/fsync",
    "audit_log.fsyncs_per_stmt": "fsyncs/stmt",
    "server.codec_us": "us", "server.overhead_us": "us",
    "trace.overhead_pct": "%",
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    tmp = None
    try:
        build()
        if CLIENT_CPU is not None:
            os.sched_setaffinity(0, {CLIENT_CPU})
        data = gen.Data(args.seed, gen.SCALE[args.workload])
        failures = check.self_test(data)
        if failures:
            raise Abort("checker self-test: the checker %s"
                        % "; ".join(failures))
        tmp = os.path.relpath(tempfile.mkdtemp(prefix="run-", dir=WORK))
        init_path = os.path.join(tmp, "init.sql")
        with open(init_path, "w") as f:
            f.write(gen.init_script(data, args.workload))
        log("%s seed %d: %s" % (args.workload, args.seed, data.sizes()))
        run = traced if args.trace else end_to_end
        problems, attempted, failed, metrics = run(
            tmp, args.workload, data, init_path, args.seed, args.seconds)
    except Abort as e:
        log("cannot run: %s" % e)
        return 2
    finally:
        reap_all()
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    for p in problems:
        log("INCORRECT: %s" % p)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }), flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

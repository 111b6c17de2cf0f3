"""Correctness checks for the served benchmark, and their self-test.

Nothing here compares against a stored copy of earlier output. Point
reads, write read-backs, the micro-join's rows and ACCESSED sets and the
final table contents are computed from the generator's own data and its
model of the applied writes. For the section V queries, whose results the
generator does not compute, the checks are properties the method must
have: instrumented rows equal the uninstrumented rows (the same query over
an unaudited copy of customer) as multisets; ACCESSED lies between the
audited customers that reach the result and the audited customers that
pass the query's customer predicates; repeated executions access the same
IDs. A customer reaches the result when it is output (Q10, Q18), when one
of its orders is output (Q3), when the query keeps every customer (Q13), or
when it passes the FROM and WHERE of
an aggregate without TOP (Q5, Q7, Q8: the same FROM and WHERE over the
unaudited copy).

The evidence checks read the server's audit log after shutdown: exactly
one complete ACCESSED record, with the expected IDs, per acknowledged
statement that touched an audited key and none for any other; one trigger
firing per ACCESSED record; and the trigger's log table holds exactly the
ACCESSED rows.

    python3 servebench/check.py     # runs the self-test
"""

import collections
import struct
import sys
import zlib

import client
import gen


def same_rows(got, want):
    """Equal as multisets of rows, with the same header and row count."""
    g = got.split("\n")
    w = want.split("\n")
    return (len(g) == len(w) and g[0] == w[0] and g[-1] == w[-1]
            and sorted(g[1:-1]) == sorted(w[1:-1]))


def parse_rows(text):
    lines = text.split("\n")
    if len(lines) < 2 or not lines[-1].endswith(" rows)"):
        raise ValueError("not a row result: %r" % text[:80])
    return [ln.split(" | ") for ln in lines[1:-1]]


class Executed:
    """One sent statement: who ran it, its wire seq, its reply, and how long
    the reply took (seconds)."""

    __slots__ = ("user", "session", "seq", "stmt", "tag", "text", "lat")

    def __init__(self, user, session, seq, stmt, tag, text, lat=0.0):
        self.user = user
        self.session = session
        self.seq = seq
        self.stmt = stmt
        self.tag = tag
        self.text = text
        self.lat = lat


class Checker:
    def __init__(self, data):
        self.data = data
        self.problems = []
        self.plain = {}  # qid -> uninstrumented reply
        self.reach = {}  # qid -> audited customers that reach the result
        self.seen = {}  # sql -> ACCESSED of its first execution

    def fail(self, msg):
        if len(self.problems) < 50:
            self.problems.append(msg)

    # -- replies -----------------------------------------------------------

    def reply(self, ex):
        st = ex.stmt
        if ex.tag != "R":
            return  # counted as failed by the caller
        if st.kind == "micro":
            if not same_rows(ex.text, st.reply):
                self.fail("%s seq %d: micro-join rows differ from the "
                          "generator's" % (ex.user, ex.seq))
        elif st.kind == "query":
            plain = self.plain.get(st.name)
            if plain is None:
                self.fail("%s: no uninstrumented reply to compare" % st.name)
            elif not same_rows(ex.text, plain):
                self.fail("%s seq %d: %s rows differ from the uninstrumented "
                          "rows" % (ex.user, ex.seq, st.name))
        elif ex.text != st.reply:
            self.fail("%s seq %d: %r replied %r, expected %r"
                      % (ex.user, ex.seq, st.sql[:60], ex.text[:120],
                         st.reply[:120]))

    # -- evidence ----------------------------------------------------------

    def set_reach(self, qid, text):
        """text: the reply to gen.reach_sql(qid)."""
        self.reach[qid] = frozenset(
            int(r[0]) for r in parse_rows(text)) & self.data.audited

    def result_custkeys(self, ex):
        """The audited customers the reply outputs, or whose orders it
        outputs."""
        if ex.tag != "R":
            return set()
        rows = parse_rows(ex.text)
        keys = set()
        col = gen.CUSTKEY_COLUMN.get(ex.stmt.name)
        if col is not None:
            keys |= {int(r[col]) for r in rows}
        col = gen.ORDERKEY_COLUMN.get(ex.stmt.name)
        if col is not None:
            keys |= {self.data.order_by_key[int(r[col])][1] for r in rows}
        return keys & self.data.audited

    def evidence(self, executed, records, sessions):
        """executed: every statement the workload sessions sent (failed
        ones included); records: the parsed WAL; sessions: the workload
        session ids."""
        acc = collections.defaultdict(list)
        fired = collections.Counter()
        for r in records:
            if r.get("session") not in sessions:
                continue
            if r["type"] == "accessed":
                acc[(r["session"], r["seq"])].append(r)
            elif r["type"] == "trigger":
                fired[(r["session"], r["seq"])] += 1
        acked = set()
        for ex in executed:
            key = (ex.session, ex.seq)
            recs = acc.get(key, [])
            if ex.tag != "R":
                continue
            acked.add(key)
            if len(recs) > 1:
                self.fail("%s seq %d: %d ACCESSED records"
                          % (ex.user, ex.seq, len(recs)))
                continue
            if recs and not recs[0]["complete"]:
                self.fail("%s seq %d: incomplete ACCESSED record"
                          % (ex.user, ex.seq))
            if recs and (recs[0]["user"] != ex.user
                         or recs[0]["audit"] != gen.AUDIT):
                self.fail("%s seq %d: ACCESSED record names %s/%s"
                          % (ex.user, ex.seq, recs[0]["user"],
                             recs[0]["audit"]))
            try:
                ids = frozenset(int(i) for i in recs[0]["ids"]) if recs \
                    else frozenset()
            except ValueError:
                self.fail("%s seq %d: non-integer ACCESSED id"
                          % (ex.user, ex.seq))
                continue
            if fired[key] != (1 if ids else 0):
                self.fail("%s seq %d: %d trigger firings for %d IDs"
                          % (ex.user, ex.seq, fired[key], len(ids)))
            self._accessed(ex, ids)
        sent = {(e.session, e.seq) for e in executed}
        for key in acc:
            if key not in sent:
                self.fail("ACCESSED record for an unknown statement %r"
                          % (key,))
        return acked

    def _accessed(self, ex, ids):
        st = ex.stmt
        if st.accessed is not None:
            if ids != st.accessed:
                self.fail("%s seq %d: ACCESSED %s, expected %s"
                          % (ex.user, ex.seq, sorted(ids)[:8],
                             sorted(st.accessed)[:8]))
            return
        lo = (self.result_custkeys(ex) | (st.lo or frozenset())
              | self.reach.get(st.name, frozenset()))
        if not lo <= ids:
            self.fail("%s seq %d: %s ACCESSED misses %s (no false negatives)"
                      % (ex.user, ex.seq, st.name, sorted(lo - ids)[:8]))
        if not ids <= st.hi:
            self.fail("%s seq %d: %s ACCESSED has %s beyond the audited "
                      "customers its predicates admit"
                      % (ex.user, ex.seq, st.name, sorted(ids - st.hi)[:8]))
        first = self.seen.setdefault(st.sql, ids)
        if first != ids:
            self.fail("%s seq %d: %s ACCESSED changed between executions"
                      % (ex.user, ex.seq, st.name))

    def access_log(self, text, records, sessions):
        """The trigger's log table, grouped by (usr, ts), against the
        ACCESSED records: the log gains exactly the ACCESSED rows."""
        want = {}
        for r in records:
            if r["type"] == "accessed" and r["session"] in sessions:
                want[(r["user"], r["seq"])] = (
                    len(r["ids"]), sum(int(i) for i in r["ids"]))
        got = {}
        for usr, ts, n, s in parse_rows(text):
            got[(usr, int(ts))] = (int(n), int(s))
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                self.fail("access_log for %s seq %d holds %s, ACCESSED %s"
                          % (key[0], key[1], got.get(key), want.get(key)))
                break

    def history(self, text, executed):
        want = collections.Counter(
            (ex.user, ex.seq, ex.stmt.history[0], ex.stmt.history[1])
            for ex in executed if ex.tag == "R" and ex.stmt.history)
        got = collections.Counter(
            (u, int(ts), op, int(k)) for u, ts, op, k in parse_rows(text))
        if got != want:
            self.fail("history table differs from the applied writes "
                      "(%d rows, expected %d)"
                      % (sum(got.values()), sum(want.values())))

    def customers(self, text, models):
        """Final customer table against the generator's rows plus the
        writes each connection's model applied."""
        want = {c[0]: (c[5], c[6]) for c in self.data.customer}
        for m in models:
            want.update(m.customer_rows())
        got = {int(k): (b, s) for k, b, s in parse_rows(text)}
        if set(got) != set(want):
            self.fail("customer keys differ after the writes")
            return
        for k, (bal, seg) in want.items():
            if got[k] != (gen.render(bal), seg):
                self.fail("customer %d is %s after the writes, expected %s"
                          % (k, got[k], (gen.render(bal), seg)))
                return

    def order_count(self, text):
        rows = parse_rows(text)
        if rows != [[str(len(self.data.orders))]]:
            self.fail("orders holds %s rows after the writes, expected %d"
                      % (rows, len(self.data.orders)))


# ---------------------------------------------------------------------------
# Self-test: the checker must reject corrupted rows and evidence
# ---------------------------------------------------------------------------

def _frame(payload):
    return struct.pack(">II", len(payload), zlib.crc32(payload)) + payload


def _s(x):
    b = x.encode()
    return struct.pack(">I", len(b)) + b


def _accessed_payload(session, seq, user, sql, ids, complete=True):
    return (b"\x01" + struct.pack(">II", session, seq) + _s(user) + _s(sql)
            + _s(gen.AUDIT) + struct.pack(">I", len(ids))
            + b"".join(_s(str(i)) for i in ids)
            + (b"\x01" if complete else b"\x00"))


def _trigger_payload(session, seq):
    return (b"\x02" + struct.pack(">II", session, seq) + _s("log_access")
            + _s(gen.AUDIT) + _s("AFTER"))


def self_test(data):
    """Feed the checker correct and corrupted replies and evidence; returns
    a list of failures of the checker itself (empty when it works)."""
    out = []
    audited = sorted(data.audited)[0]
    plain_k = next(c[0] for c in data.customer if c[0] not in data.audited)
    good_read = gen.cust_read(audited, data.cust_by_key[audited], True)
    plain_read = gen.cust_read(plain_k, data.cust_by_key[plain_k], False)
    micro = gen.olap_statements(data)[-1]
    q13 = next(s for s in gen.olap_statements(data) if s.name == "Q13")
    q5 = next(s for s in gen.olap_statements(data) if s.name == "Q5")
    q5_rows = "n_name | revenue\nASIA | 1.5\n(1 rows)"
    q3 = next(s for s in gen.olap_statements(data) if s.name == "Q3")
    q3_order = next(o for o in data.orders if o[1] in data.audited)
    q3_rows = ("l_orderkey | revenue | o_orderdate | o_shippriority\n"
               "%d | 1.5 | 1995-03-01 | 0\n(1 rows)" % q3_order[0])

    def wal(records):
        return client.read_wal(b"AUDWAL01" + b"".join(records))[0]

    def good_evidence():
        return [_frame(_accessed_payload(1, 1, "c0", good_read.sql,
                                         [audited])),
                _frame(_trigger_payload(1, 1))]

    def run(execs, records):
        ck = Checker(data)
        ck.plain["Q13"] = "c_count | custdist\n0 | 1\n(1 rows)"
        ck.plain["Q5"] = q5_rows
        ck.plain["Q3"] = q3_rows
        ck.set_reach("Q5", "c_custkey\n%d\n(1 rows)" % audited)
        for ex in execs:
            ck.reply(ex)
        ck.evidence(execs, wal(records), {1})
        return ck.problems

    def ex(seq, st, text):
        return Executed("c0", 1, seq, st, "R", text)

    base = [ex(1, good_read, good_read.reply), ex(2, plain_read,
                                                  plain_read.reply)]
    if run(base, good_evidence()):
        out.append("rejects correct replies and evidence: %s"
                   % run(base, good_evidence()))
    bad = good_read.reply.replace(gen.render(data.cust_by_key[audited][5]),
                                  "0.5")
    cases = [
        ("a corrupted point-read row",
         [ex(1, good_read, bad), base[1]], good_evidence()),
        ("a micro-join reply missing a row",
         [ex(1, micro, "\n".join(micro.reply.split("\n")[:1]
                                 + micro.reply.split("\n")[2:]))], []),
        ("instrumented rows that differ from the uninstrumented ones",
         [ex(1, q13, "c_count | custdist\n0 | 2\n(1 rows)")], []),
        ("a missing ACCESSED record", base, []),
        ("an ACCESSED record missing an ID", base,
         [_frame(_accessed_payload(1, 1, "c0", good_read.sql, [])),
          _frame(_trigger_payload(1, 1))]),
        ("ACCESSED for an unaudited read", base,
         good_evidence() + [_frame(_accessed_payload(
             1, 2, "c0", plain_read.sql, [plain_k])),
             _frame(_trigger_payload(1, 2))]),
        ("an incomplete ACCESSED record", base,
         [_frame(_accessed_payload(1, 1, "c0", good_read.sql, [audited],
                                   complete=False)),
          _frame(_trigger_payload(1, 1))]),
        ("a duplicated ACCESSED record", base,
         good_evidence() + good_evidence()[:1]),
        ("a torn evidence frame", base,
         [good_evidence()[0][:-3], good_evidence()[1]]),
        ("a checksum-corrupt evidence frame", base,
         [good_evidence()[0][:-2] + b"\x00\x00", good_evidence()[1]]),
        ("a missing trigger firing", base, good_evidence()[:1]),
    ]
    for what, execs, records in cases:
        if not run(execs, records):
            out.append("accepts %s" % what)
    # Q13 must access every audited customer, and never beyond them.
    for what, ids in (("ACCESSED below its lower bound", sorted(q13.lo)[1:]),
                      ("ACCESSED beyond its upper bound",
                       sorted(q13.hi) + [plain_k])):
        execs = [ex(1, q13, "c_count | custdist\n0 | 1\n(1 rows)")]
        rec = [_frame(_accessed_payload(1, 1, "c0", q13.sql, ids)),
               _frame(_trigger_payload(1, 1))]
        if not run(execs, rec):
            out.append("accepts %s" % what)
    # Q5 must access the audited customers that reach its groups, Q3 the
    # audited customers whose orders it outputs.
    for what, st, rows, cust in (
            ("an aggregate", q5, q5_rows, audited),
            ("a TOP query", q3, q3_rows, q3_order[1])):
        for ids in ([cust], []):
            rec = ([_frame(_accessed_payload(1, 1, "c0", st.sql, ids)),
                    _frame(_trigger_payload(1, 1))] if ids else [])
            problems = run([ex(1, st, rows)], rec)
            if ids and problems:
                out.append("rejects a correct ACCESSED on %s: %s"
                           % (what, problems))
            if not ids and not problems:
                out.append("accepts an empty ACCESSED on %s that audited "
                           "customers reach" % what)
    # The trigger's log must hold exactly the ACCESSED rows.
    ck = Checker(data)
    recs = wal(good_evidence())
    ck.access_log("usr | ts | n | s\nc0 | 1 | 1 | %d\n(1 rows)" % audited,
                  recs, {1})
    if ck.problems:
        out.append("rejects a correct access log")
    ck.access_log("usr | ts | n | s\nc0 | 1 | 1 | %d\n(1 rows)"
                  % (audited + 1), recs, {1})
    if not ck.problems:
        out.append("accepts an access log row that was not accessed")
    return out


if __name__ == "__main__":
    failures = self_test(gen.Data(1, gen.SCALE["olap_audit"]))
    for f in failures:
        print("self-test: checker %s" % f)
    print("self-test %s" % ("failed" if failures else "passed"))
    sys.exit(1 if failures else 0)

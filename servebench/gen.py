"""Seeded inputs for the served benchmark.

Everything the program sees comes from here, as SQL text: the TPC-H-shaped
tables (dbgen's distributions: uniform market segments, uniform order
dates, exact key-FK with no orders for customers whose key is a multiple
of 3), this benchmark's own copy of the query texts, and the per-connection
statement streams. The same seed gives the same tables and streams.

Each stream statement carries what the checker needs to judge its reply
without a stored copy of earlier output: the exact expected reply for
point reads and writes, the expected ACCESSED set where the method makes
it exact, and bounds where it does not.
"""

import datetime
import random

# TPC-H scale factor per workload (150 000 customers per unit). The
# section V queries run at half the scale of the others so a run holds
# enough of them for a p95.
SCALE = {"olap_audit": 0.0025, "point_read": 0.005, "write_mix": 0.005}
AUDIT = "audit_customer"
AUDITED_SEGMENT = "BUILDING"
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4), ("JAPAN", 2),
    ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0), ("MOZAMBIQUE", 0),
    ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3), ("SAUDI ARABIA", 4),
    ("VIETNAM", 2), ("RUSSIA", 3), ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
]
REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
INSTRUCTS = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"]
PART_TYPES = [
    "ECONOMY ANODIZED STEEL", "STANDARD POLISHED TIN", "SMALL PLATED COPPER",
    "MEDIUM BURNISHED NICKEL", "PROMO BRUSHED BRASS", "LARGE POLISHED STEEL",
    "ECONOMY BRUSHED COPPER", "STANDARD ANODIZED BRASS",
]
CONTAINERS = ["SM CASE", "LG BOX", "MED BAG", "JUMBO JAR", "WRAP PACK"]
COLORS = ["almond", "antique", "azure", "beige", "bisque"]
WORDS = ["ironic", "final", "pending", "bold", "quiet"]

START = datetime.date(1992, 1, 1)
END = datetime.date(1998, 8, 2)  # dbgen: 1998-12-31 minus 151 days
CURRENT = datetime.date(1995, 6, 17)

DDL = [
    "CREATE TABLE region (r_regionkey INT PRIMARY KEY, r_name VARCHAR, "
    "r_comment VARCHAR)",
    "CREATE TABLE nation (n_nationkey INT PRIMARY KEY, n_name VARCHAR, "
    "n_regionkey INT, n_comment VARCHAR)",
    "CREATE TABLE supplier (s_suppkey INT PRIMARY KEY, s_name VARCHAR, "
    "s_address VARCHAR, s_nationkey INT, s_phone VARCHAR, s_acctbal FLOAT, "
    "s_comment VARCHAR)",
    "CREATE TABLE part (p_partkey INT PRIMARY KEY, p_name VARCHAR, "
    "p_mfgr VARCHAR, p_brand VARCHAR, p_type VARCHAR, p_size INT, "
    "p_container VARCHAR, p_retailprice FLOAT, p_comment VARCHAR)",
    "CREATE TABLE orders (o_orderkey INT PRIMARY KEY, o_custkey INT, "
    "o_orderstatus VARCHAR, o_totalprice FLOAT, o_orderdate DATE, "
    "o_orderpriority VARCHAR, o_clerk VARCHAR, o_shippriority INT, "
    "o_comment VARCHAR)",
    "CREATE TABLE lineitem (l_orderkey INT, l_partkey INT, l_suppkey INT, "
    "l_linenumber INT, l_quantity FLOAT, l_extendedprice FLOAT, "
    "l_discount FLOAT, l_tax FLOAT, l_returnflag VARCHAR, "
    "l_linestatus VARCHAR, l_shipdate DATE, l_commitdate DATE, "
    "l_receiptdate DATE, l_shipinstruct VARCHAR, l_shipmode VARCHAR, "
    "l_comment VARCHAR)",
]

CUSTOMER_COLS = (
    "(c_custkey INT PRIMARY KEY, c_name VARCHAR, c_address VARCHAR, "
    "c_nationkey INT, c_phone VARCHAR, c_acctbal FLOAT, c_mktsegment VARCHAR, "
    "c_comment VARCHAR)"
)

# Evidence tables: the SELECT trigger's log and the DML triggers' history.
LOG_DDL = [
    "CREATE TABLE access_log (ts INT, usr VARCHAR, custkey INT)",
    "CREATE TABLE history (ts INT, usr VARCHAR, op VARCHAR, k INT)",
]
AUDIT_DDL = [
    "CREATE AUDIT EXPRESSION %s AS SELECT * FROM customer WHERE "
    "c_mktsegment = '%s' FOR SENSITIVE TABLE customer, PARTITION BY "
    "c_custkey" % (AUDIT, AUDITED_SEGMENT),
    "CREATE TRIGGER log_access ON ACCESS TO %s AS INSERT INTO access_log "
    "SELECT now(), user_id(), c_custkey FROM accessed" % AUDIT,
]
DML_TRIGGER_DDL = [
    "CREATE TRIGGER hist_cust ON customer AFTER UPDATE AS INSERT INTO "
    "history SELECT now(), user_id(), 'U', c_custkey FROM new",
    "CREATE TRIGGER hist_ins ON orders AFTER INSERT AS INSERT INTO history "
    "SELECT now(), user_id(), 'I', o_orderkey FROM new",
    "CREATE TRIGGER hist_del ON orders AFTER DELETE AS INSERT INTO history "
    "SELECT now(), user_id(), 'D', o_orderkey FROM old",
]


# --------------------------------------------------------------------------
# Rendering, as the engine prints values and as its parser reads literals
# --------------------------------------------------------------------------

def render(v):
    """The engine's Value.to_string."""
    if v is None:
        return "NULL"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if v.is_integer() and abs(v) < 1e15:
            return "%.1f" % v
        return "%g" % v
    if isinstance(v, datetime.date):
        return v.isoformat()
    return str(v)


def literal(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, datetime.date):
        return "DATE '%s'" % v.isoformat()
    return "'" + v.replace("'", "''") + "'"


def rows_reply(header, rows):
    """The engine's rendering of a row result."""
    lines = [" | ".join(header)]
    lines += [" | ".join(render(v) for v in r) for r in rows]
    lines.append("(%d rows)" % len(rows))
    return "\n".join(lines)


def affected_reply(n):
    return "(%d rows affected)" % n


# --------------------------------------------------------------------------
# Tables
# --------------------------------------------------------------------------

def money(rng, lo, hi):
    return round(rng.uniform(lo, hi) * 100.0) / 100.0


def comment(rng, noun):
    return "%s %s %d %s" % (noun, rng.choice(WORDS), rng.randrange(100000),
                            rng.choice(WORDS))


def phone(rng, nation):
    return "%d-%03d-%03d-%04d" % (10 + nation, rng.randint(100, 999),
                                  rng.randint(100, 999),
                                  rng.randint(1000, 9999))


def spread(rng, values, n):
    """n draws, each uniform over values, with every value drawn as nearly
    equally often as n allows (a seeded permutation)."""
    values = list(values)
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


class Data:
    """The generated tables, as Python tuples in column order."""

    def __init__(self, seed, sf):
        rng = random.Random("tables-%d" % seed)
        self.seed = seed
        ncust = max(3, int(150000 * sf))
        nord = max(1, int(1500000 * sf))
        nsupp = max(1, int(10000 * sf))
        npart = max(1, int(200000 * sf))
        self.region = [(i, n, "region " + n) for i, n in enumerate(REGIONS)]
        self.nation = [(i, n, r, "nation " + n)
                       for i, (n, r) in enumerate(NATIONS)]
        # Nations, like segments below, are uniform per row with exact
        # counts, so the few suppliers of a small scale still cover every
        # nation the queries name.
        self.supplier = []
        supp_nations = spread(rng, range(25), nsupp)
        for k in range(1, nsupp + 1):
            nk = supp_nations[k - 1]
            self.supplier.append(
                (k, "Supplier#%09d" % k, "addr %d" % rng.randrange(100000),
                 nk, phone(rng, nk), money(rng, -999.99, 9999.99),
                 comment(rng, "supplier")))
        # Each customer's segment is uniform over the five, and exactly a
        # fifth of the customers fall in each (a seeded permutation), so
        # the audited share does not vary with the seed.
        segments = spread(rng, SEGMENTS, ncust)
        cust_nations = spread(rng, range(25), ncust)
        self.customer = []
        for k in range(1, ncust + 1):
            nk = cust_nations[k - 1]
            self.customer.append(
                (k, "Customer#%09d" % k, "addr %d" % rng.randrange(100000),
                 nk, phone(rng, nk), money(rng, -999.99, 9999.99),
                 segments[k - 1], comment(rng, "customer")))
        self.part = []
        for k in range(1, npart + 1):
            self.part.append(
                (k, "%s %s" % (rng.choice(COLORS), rng.choice(COLORS)),
                 "Manufacturer#%d" % rng.randint(1, 5),
                 "Brand#%d%d" % (rng.randint(1, 5), rng.randint(1, 5)),
                 rng.choice(PART_TYPES), rng.randint(1, 50),
                 rng.choice(CONTAINERS), money(rng, 900.0, 2000.0),
                 comment(rng, "part")))
        span = (END - START).days
        self.orders = []
        self.lineitem = []
        for ok in range(1, nord + 1):
            # dbgen: customers whose key is a multiple of 3 place no orders
            ck = rng.randrange(1, ncust + 1)
            while ck % 3 == 0:
                ck = rng.randrange(1, ncust + 1)
            od = START + datetime.timedelta(days=rng.randint(0, span))
            total = 0.0
            for ln in range(1, rng.randint(1, 7) + 1):
                qty = float(rng.randint(1, 50))
                ext = round(qty * money(rng, 900.0, 2000.0) * 100.0) / 100.0
                disc = rng.randint(0, 10) / 100.0
                tax = rng.randint(0, 8) / 100.0
                ship = od + datetime.timedelta(days=rng.randint(1, 121))
                commit = od + datetime.timedelta(days=rng.randint(30, 90))
                receipt = ship + datetime.timedelta(days=rng.randint(1, 30))
                flag = rng.choice("RA") if receipt <= CURRENT else "N"
                status = "O" if ship > CURRENT else "F"
                total += ext * (1.0 + tax) * (1.0 - disc)
                self.lineitem.append(
                    (ok, rng.randint(1, npart), rng.randint(1, nsupp), ln,
                     qty, ext, disc, tax, flag, status, ship, commit,
                     receipt, rng.choice(INSTRUCTS), rng.choice(SHIP_MODES),
                     comment(rng, "lineitem")))
            ocomment = ("special handling requests" if rng.random() < 0.01
                        else comment(rng, "order"))
            self.orders.append(
                (ok, ck, rng.choice("OFP"), round(total * 100.0) / 100.0, od,
                 rng.choice(PRIORITIES), "Clerk#%09d" % rng.randint(1, 1000),
                 0, ocomment))
        self.cust_by_key = {c[0]: c for c in self.customer}
        self.order_by_key = {o[0]: o for o in self.orders}
        self.audited = {c[0] for c in self.customer
                        if c[6] == AUDITED_SEGMENT}

    def sizes(self):
        return {"region": len(self.region), "nation": len(self.nation),
                "supplier": len(self.supplier),
                "customer": len(self.customer), "part": len(self.part),
                "orders": len(self.orders),
                "lineitem": len(self.lineitem)}


def _inserts(table, rows, batch=400):
    out = []
    for i in range(0, len(rows), batch):
        vals = ",".join("(" + ",".join(literal(v) for v in r) + ")"
                        for r in rows[i:i + batch])
        out.append("INSERT INTO %s VALUES %s" % (table, vals))
    return out


def init_script(data, workload):
    """The SQL the server runs before it accepts connections: schema, the
    generated rows, and the audit and trigger declarations."""
    stmts = list(DDL)
    stmts.append("CREATE TABLE customer " + CUSTOMER_COLS)
    if workload == "olap_audit":
        # An unaudited copy of customer: the same queries over it give the
        # uninstrumented rows the instrumented ones must equal.
        stmts.append("CREATE TABLE customer_plain " + CUSTOMER_COLS)
        stmts += _inserts("customer_plain", data.customer)
    stmts += LOG_DDL
    for name in ("region", "nation", "supplier", "customer", "part",
                 "orders", "lineitem"):
        stmts += _inserts(name, getattr(data, name))
    stmts += AUDIT_DDL
    if workload == "write_mix":
        stmts += DML_TRIGGER_DDL
    return ";\n".join(stmts) + ";\n"


# --------------------------------------------------------------------------
# The paper's queries (section V), this benchmark's own copy
# --------------------------------------------------------------------------

QUERIES = {
    "Q3":
    "SELECT TOP 10 l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS "
    "revenue, o_orderdate, o_shippriority FROM {customer}, orders, lineitem "
    "WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND "
    "l_orderkey = o_orderkey AND o_orderdate < DATE '1995-03-15' AND "
    "l_shipdate > DATE '1995-03-15' GROUP BY l_orderkey, o_orderdate, "
    "o_shippriority ORDER BY revenue DESC, o_orderdate",
    "Q5":
    "SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue "
    "FROM {customer}, orders, lineitem, supplier, nation, region WHERE "
    "c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = "
    "s_suppkey AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey "
    "AND n_regionkey = r_regionkey AND r_name = 'ASIA' AND o_orderdate >= "
    "DATE '1994-01-01' AND o_orderdate < DATE '1994-01-01' + INTERVAL '1' "
    "YEAR GROUP BY n_name ORDER BY revenue DESC",
    "Q7":
    "SELECT supp_nation, cust_nation, l_year, sum(volume) AS revenue FROM "
    "(SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation, "
    "extract(YEAR FROM l_shipdate) AS l_year, l_extendedprice * (1 - "
    "l_discount) AS volume FROM supplier, lineitem, orders, {customer}, "
    "nation n1, nation n2 WHERE s_suppkey = l_suppkey AND o_orderkey = "
    "l_orderkey AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey "
    "AND c_nationkey = n2.n_nationkey AND ((n1.n_name = 'FRANCE' AND "
    "n2.n_name = 'GERMANY') OR (n1.n_name = 'GERMANY' AND n2.n_name = "
    "'FRANCE')) AND l_shipdate BETWEEN DATE '1995-01-01' AND DATE "
    "'1996-12-31') shipping GROUP BY supp_nation, cust_nation, l_year "
    "ORDER BY supp_nation, cust_nation, l_year",
    "Q8":
    "SELECT o_year, sum(CASE WHEN nation = 'BRAZIL' THEN volume ELSE 0 END) "
    "/ sum(volume) AS mkt_share FROM (SELECT extract(YEAR FROM o_orderdate) "
    "AS o_year, l_extendedprice * (1 - l_discount) AS volume, n2.n_name AS "
    "nation FROM part, supplier, lineitem, orders, {customer}, nation n1, "
    "nation n2, region WHERE p_partkey = l_partkey AND s_suppkey = "
    "l_suppkey AND l_orderkey = o_orderkey AND o_custkey = c_custkey AND "
    "c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey AND "
    "r_name = 'AMERICA' AND s_nationkey = n2.n_nationkey AND o_orderdate "
    "BETWEEN DATE '1995-01-01' AND DATE '1996-12-31' AND p_type = "
    "'ECONOMY ANODIZED STEEL') all_nations GROUP BY o_year ORDER BY o_year",
    "Q10":
    "SELECT TOP 20 c_custkey, c_name, sum(l_extendedprice * (1 - "
    "l_discount)) AS revenue, c_acctbal, n_name, c_address, c_phone, "
    "c_comment FROM {customer}, orders, lineitem, nation WHERE c_custkey = "
    "o_custkey AND l_orderkey = o_orderkey AND o_orderdate >= DATE "
    "'1993-10-01' AND o_orderdate < DATE '1993-10-01' + INTERVAL '3' MONTH "
    "AND l_returnflag = 'R' AND c_nationkey = n_nationkey GROUP BY "
    "c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment "
    "ORDER BY revenue DESC",
    "Q13":
    "SELECT c_count, count(*) AS custdist FROM (SELECT c_custkey AS "
    "custkey, count(o_orderkey) AS c_count FROM {customer} LEFT OUTER JOIN "
    "orders ON c_custkey = o_custkey AND o_comment NOT LIKE "
    "'%special%requests%' GROUP BY c_custkey) c_orders GROUP BY c_count "
    "ORDER BY custdist DESC, c_count DESC",
    # TPC-H's 300 selects almost nothing at this scale (at most 350 per
    # order); 200 keeps the query's shape and a result of some size.
    "Q18":
    "SELECT TOP 100 c_name, c_custkey, o_orderkey, o_orderdate, "
    "o_totalprice, sum(l_quantity) AS total_qty FROM {customer}, orders, "
    "lineitem WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem GROUP BY "
    "l_orderkey HAVING sum(l_quantity) > 200) AND c_custkey = o_custkey AND "
    "o_orderkey = l_orderkey GROUP BY c_name, c_custkey, o_orderkey, "
    "o_orderdate, o_totalprice ORDER BY o_totalprice DESC, o_orderdate",
}

# Position of c_custkey in each query's output, where it is output.
CUSTKEY_COLUMN = {"Q10": 0, "Q18": 1}
# Position of the order key in Q3's output: the customer who placed each
# output order reaches the result.
ORDERKEY_COLUMN = {"Q3": 0}

# Single-table predicates on customer in each query: the audited customers
# that pass them bound ACCESSED from above.
CUSTOMER_PREDICATE = {
    "Q3": lambda c: c[6] == "BUILDING",
}

# Queries in which every customer row reaches the output through an
# aggregate (Q13's outer join keeps customers without orders), so every
# audited customer is accessed under Definition 2.3.
ACCESSES_ALL = {"Q13"}

# Aggregates without TOP: every customer that passes the joins and
# predicates reaches an output group, so the audited ones among them bound
# ACCESSED from below. Each is the query's own FROM and WHERE (the inner
# block's, for Q7 and Q8): (text that starts it, text that ends it).
REACH_SPAN = {
    "Q5": ("FROM {customer}", " GROUP BY"),
    "Q7": ("FROM supplier", ") shipping"),
    "Q8": ("FROM part", ") all_nations"),
}


def reach_sql(qid):
    """The customers of qid's FROM and WHERE over the unaudited copy."""
    start, end = REACH_SPAN[qid]
    text = QUERIES[qid]
    body = text[text.index(start):text.index(end)]
    return ("SELECT c_custkey %s GROUP BY c_custkey"
            % body.format(customer="customer_plain"))

# Section V-A micro-join, projected to keys: (name, acctbal, date cutoff
# fraction of orders kept).
MICRO_SELECTIVITIES = [("MJ10", 0.1), ("MJ25", 0.25), ("MJ50", 0.5),
                       ("MJ100", 1.0)]
MICRO_ACCTBAL = 0.0


def micro_cutoff(selectivity):
    span = (END - START).days
    return END - datetime.timedelta(days=int(selectivity * span))


def micro_sql(selectivity):
    return ("SELECT o_orderkey, c_custkey FROM orders, customer WHERE "
            "c_custkey = o_custkey AND c_acctbal > %s AND o_orderdate > "
            "DATE '%s'" % (repr(MICRO_ACCTBAL),
                           micro_cutoff(selectivity).isoformat()))


def micro_expected(data, selectivity):
    cut = micro_cutoff(selectivity)
    return [(o[0], o[1]) for o in data.orders
            if o[4] > cut and data.cust_by_key[o[1]][5] > MICRO_ACCTBAL]


# --------------------------------------------------------------------------
# Statement streams
# --------------------------------------------------------------------------

class Stmt:
    """One statement and what its reply must be.

    kind: "query" (a section V query), "micro", "read", "update", "insert",
    "delete". reply: the exact expected reply, or None where the checker
    compares against the uninstrumented run instead. accessed: the exact
    expected ACCESSED set, or None where only bounds are known.
    """

    __slots__ = ("sql", "kind", "name", "reply", "accessed", "lo", "hi",
                 "history")

    def __init__(self, sql, kind, name, reply=None, accessed=None, lo=None,
                 hi=None, history=None):
        self.sql = sql
        self.kind = kind
        self.name = name
        self.reply = reply
        self.accessed = accessed
        self.lo = lo
        self.hi = hi
        self.history = history


def olap_statements(data):
    """The eleven statements of one olap_audit round, in a fixed order."""
    out = []
    for qid, text in QUERIES.items():
        custs = data.customer
        pred = CUSTOMER_PREDICATE.get(qid, lambda c: True)
        hi = frozenset(c[0] for c in custs
                       if c[0] in data.audited and pred(c))
        lo = hi if qid in ACCESSES_ALL else None
        out.append(Stmt(text.format(customer="customer"), "query", qid,
                        lo=lo, hi=hi))
    for name, sel in MICRO_SELECTIVITIES:
        rows = micro_expected(data, sel)
        out.append(Stmt(micro_sql(sel), "micro", name,
                        reply=rows_reply(["o_orderkey", "c_custkey"], rows),
                        accessed=frozenset(c for _, c in rows
                                           if c in data.audited)))
    return out


def plain_sql(qid):
    return QUERIES[qid].format(customer="customer_plain")


CUST_READ = ("SELECT c_custkey, c_name, c_acctbal, c_mktsegment FROM "
             "customer WHERE c_custkey = %d")
ORDER_READ = ("SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM "
              "orders WHERE o_orderkey = %d")
CUST_HEADER = ["c_custkey", "c_name", "c_acctbal", "c_mktsegment"]
ORDER_HEADER = ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"]


def cust_read(k, row, segment_audited):
    rows = [(row[0], row[1], row[5], row[6])] if row else []
    return Stmt(CUST_READ % k, "read", "cust",
                reply=rows_reply(CUST_HEADER, rows),
                accessed=frozenset([k]) if row and segment_audited
                else frozenset())


def order_read(k, row):
    rows = [(row[0], row[1], row[3], row[4])] if row else []
    return Stmt(ORDER_READ % k, "read", "order",
                reply=rows_reply(ORDER_HEADER, rows), accessed=frozenset())


class PointReadStream:
    """Uniform primary-key lookups, three on customer to one on orders;
    about 2 % of keys are absent. (An even split would put the median
    latency on the gap between the two tables' scan times.)"""

    ROUND = 16

    def __init__(self, data, seed, conn):
        self.data = data
        self.rng = random.Random("point-%d-%d" % (seed, conn))
        self.ncust = len(data.customer)
        self.nord = len(data.orders)

    def next_round(self):
        out = []
        for i in range(self.ROUND):
            if i % 4 != 3:
                k = self.rng.randint(1, self.ncust + self.ncust // 50)
                row = self.data.cust_by_key.get(k)
                out.append(cust_read(k, row, k in self.data.audited))
            else:
                k = self.rng.randint(1, self.nord + self.nord // 50)
                out.append(order_read(k, self.data.order_by_key.get(k)))
        return out


class OlapStream:
    """The section V queries and the micro-join, in a seeded order per
    round."""

    def __init__(self, data, seed, conn):
        self.stmts = olap_statements(data)
        self.rng = random.Random("olap-%d-%d" % (seed, conn))

    def next_round(self):
        out = list(self.stmts)
        self.rng.shuffle(out)
        return out


class KeyPool:
    """Keys with constant-time seeded choice, insertion and removal."""

    def __init__(self, keys):
        self.keys = list(keys)
        self.pos = {k: i for i, k in enumerate(self.keys)}

    def choice(self, rng):
        return self.keys[rng.randrange(len(self.keys))]

    def add(self, k):
        self.pos[k] = len(self.keys)
        self.keys.append(k)

    def remove(self, k):
        i = self.pos.pop(k)
        last = self.keys.pop()
        if i < len(self.keys):
            self.keys[i] = last
            self.pos[last] = i


class WriteMixStream:
    """Writes beside reads on the audited table, on keys this connection
    owns (customer keys congruent to the connection number, fresh order
    keys of its own), with a model of every applied write.

    One round: UPDATE c_acctbal, read it back; UPDATE c_mktsegment (moving
    the key into or out of the audit view), read it back; INSERT an order,
    read it back; DELETE it, read it back; read the first customer again.
    (Nine statements, so the median latency falls inside one kind of
    statement rather than on a gap between two.)

    Over every five rounds the first key is audited once, one audited key
    leaves the view and one joins it, so the audited share of the
    statements is the same for every seed and the view keeps its size.
    """

    ROUND = 9
    OTHER_SEGMENTS = [s for s in SEGMENTS if s != AUDITED_SEGMENT]

    def __init__(self, data, seed, conn, nconn):
        self.data = data
        self.rng = random.Random("write-%d-%d" % (seed, conn))
        # key -> [acctbal, segment]; the connection's own customers
        self.cust = {c[0]: [c[5], c[6]] for c in data.customer
                     if c[0] % nconn == conn}
        self.audited = KeyPool(k for k in sorted(self.cust)
                               if self.cust[k][1] == AUDITED_SEGMENT)
        self.plain = KeyPool(k for k in sorted(self.cust)
                             if self.cust[k][1] != AUDITED_SEGMENT)
        self.round = 0
        self.next_order = 10_000_000 * (conn + 1)

    def _pick(self, audited):
        return (self.audited if audited else self.plain).choice(self.rng)

    def _read(self, k):
        c = self.data.cust_by_key[k]
        bal, seg = self.cust[k]
        row = (k, c[1], c[2], c[3], c[4], bal, seg, c[7])
        return cust_read(k, row, seg == AUDITED_SEGMENT)

    def next_round(self):
        rng = self.rng
        self.round += 1
        phase = self.round % 5
        out = []
        k = self._pick(phase == 0)
        bal = money(rng, -999.99, 9999.99)
        self.cust[k][0] = bal
        out.append(Stmt(
            "UPDATE customer SET c_acctbal = %s WHERE c_custkey = %d"
            % (repr(bal), k), "update", "acctbal", reply=affected_reply(1),
            accessed=frozenset([k]) if phase == 0 else frozenset(),
            history=("U", k)))
        out.append(self._read(k))
        first = k
        k = self._pick(phase == 2)
        seg = (AUDITED_SEGMENT if phase == 4
               else rng.choice(self.OTHER_SEGMENTS))
        if phase == 2:
            self.audited.remove(k)
            self.plain.add(k)
        elif phase == 4:
            self.plain.remove(k)
            self.audited.add(k)
        self.cust[k][1] = seg
        out.append(Stmt(
            "UPDATE customer SET c_mktsegment = '%s' WHERE c_custkey = %d"
            % (seg, k), "update", "segment", reply=affected_reply(1),
            accessed=frozenset([k]) if phase == 2 else frozenset(),
            history=("U", k)))
        out.append(self._read(k))
        ok = self.next_order
        self.next_order += 1
        od = START + datetime.timedelta(days=rng.randint(0, (END - START).days))
        order = (ok, first, "O", money(rng, 1000.0, 400000.0), od,
                 rng.choice(PRIORITIES), "Clerk#%09d" % rng.randint(1, 1000),
                 0, "fresh order")
        out.append(Stmt(
            "INSERT INTO orders VALUES (%s)"
            % ",".join(literal(v) for v in order), "insert", "order",
            reply=affected_reply(1), accessed=frozenset(),
            history=("I", ok)))
        out.append(order_read(ok, order))
        out.append(Stmt(
            "DELETE FROM orders WHERE o_orderkey = %d" % ok, "delete",
            "order", reply=affected_reply(1), accessed=frozenset(),
            history=("D", ok)))
        out.append(order_read(ok, None))
        out.append(self._read(first))
        return out

    def customer_rows(self):
        """This connection's customers as the model has them now."""
        return {k: (bal, seg) for k, (bal, seg) in self.cust.items()}


WORKLOADS = ("olap_audit", "point_read", "write_mix")


def make_stream(workload, data, seed, conn, nconn):
    if workload == "olap_audit":
        return OlapStream(data, seed, conn)
    if workload == "point_read":
        return PointReadStream(data, seed, conn)
    if workload == "write_mix":
        return WriteMixStream(data, seed, conn, nconn)
    raise ValueError("unknown workload %r" % workload)


# The writes the traced run appends on workloads whose own stream has none
# (four write_mix rounds, reads dropped), so every write-path layer metric
# is measured on every workload.
def dml_probe(data, seed):
    s = WriteMixStream(data, seed, 0, 1)
    return [st for _ in range(4) for st in s.next_round() if st.kind != "read"]

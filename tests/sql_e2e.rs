//! The paper's §3.3 experiment driven entirely through SQL: schema,
//! loads, views JV1/JV2 under different methods, maintenance on DML, and
//! consistency checks.

use pvm::prelude::*;

fn load_tpcr(session: &mut Session, customers: i64) {
    session
        .execute(
            "CREATE TABLE customer (custkey INT, acctbal FLOAT, name STR) \
                 PARTITION BY HASH(custkey) CLUSTERED; \
             CREATE TABLE orders (orderkey INT, custkey INT, totalprice FLOAT) \
                 PARTITION BY HASH(orderkey) CLUSTERED; \
             CREATE TABLE lineitem (orderkey INT, partkey INT, suppkey INT, \
                 extendedprice FLOAT, discount FLOAT) PARTITION BY HASH(partkey) CLUSTERED;",
        )
        .unwrap();
    // Bulk loads through the engine API (the SQL INSERT path is exercised
    // below for deltas; statement-per-row loading would be slow).
    let cluster = session.cluster_mut();
    let c = cluster.table_id("customer").unwrap();
    let o = cluster.table_id("orders").unwrap();
    let l = cluster.table_id("lineitem").unwrap();
    cluster
        .insert(
            c,
            (0..customers)
                .map(|k| row![k, k as f64, format!("c{k}")])
                .collect(),
        )
        .unwrap();
    cluster
        .insert(
            o,
            (0..customers * 10)
                .map(|k| {
                    let custkey = if k < customers { k } else { customers + k };
                    row![k, custkey, k as f64]
                })
                .collect(),
        )
        .unwrap();
    cluster
        .insert(
            l,
            (0..customers * 10)
                .flat_map(|o| (0..4).map(move |i| row![o, o * 4 + i, 0, 1.0, 0.05]))
                .collect(),
        )
        .unwrap();
}

const JV1: &str = "CREATE VIEW jv1 USING AUXILIARY RELATION AS \
    SELECT c.custkey, c.acctbal, o.orderkey, o.totalprice \
    FROM customer c, orders o WHERE c.custkey = o.custkey \
    PARTITION ON c.custkey";

const JV2: &str = "CREATE VIEW jv2 USING NAIVE AS \
    SELECT c.custkey, c.acctbal, o.orderkey, o.totalprice, l.discount, l.extendedprice \
    FROM customer c, orders o, lineitem l \
    WHERE c.custkey = o.custkey AND o.orderkey = l.orderkey \
    PARTITION ON c.custkey";

#[test]
fn paper_views_in_sql() {
    let mut session = Session::new(ClusterConfig::new(4).with_buffer_pages(1_000));
    load_tpcr(&mut session, 100);
    let out = session.execute_one(JV1).unwrap();
    assert!(out.message.contains("100 rows"), "{}", out.message);
    let out = session.execute_one(JV2).unwrap();
    assert!(out.message.contains("400 rows"), "{}", out.message);

    // A delta customer matching one order (custkey = 100+100+0 = 200).
    let out = session
        .execute_one("INSERT INTO customer VALUES (200, 0.0, 'delta')")
        .unwrap();
    // JV1 gains 1 row, JV2 gains 4.
    assert!(
        out.message.contains("5 view rows maintained"),
        "{}",
        out.message
    );
    session.execute("CHECK VIEW jv1; CHECK VIEW jv2").unwrap();

    // New order + its lineitems for an existing customer.
    session
        .execute_one("INSERT INTO orders VALUES (5000, 7, 99.0)")
        .unwrap();
    session
        .execute_one("INSERT INTO lineitem VALUES (5000, 1, 1, 2.0, 0.0), (5000, 2, 1, 3.0, 0.0)")
        .unwrap();
    session.execute("CHECK VIEW jv1; CHECK VIEW jv2").unwrap();

    // Deleting the customer cascades out of both views.
    let before = session
        .execute_one("SELECT * FROM jv1 WHERE custkey = 7")
        .unwrap()
        .rows
        .unwrap()
        .1
        .len();
    assert_eq!(before, 2, "customer 7 now has two orders");
    session
        .execute_one("DELETE FROM customer WHERE custkey = 7")
        .unwrap();
    let after = session
        .execute_one("SELECT * FROM jv1 WHERE custkey = 7")
        .unwrap()
        .rows
        .unwrap()
        .1
        .len();
    assert_eq!(after, 0);
    session.execute("CHECK VIEW jv1; CHECK VIEW jv2").unwrap();
}

#[test]
fn update_statement_flows_through_views() {
    let mut session = Session::new(ClusterConfig::new(3).with_buffer_pages(512));
    load_tpcr(&mut session, 50);
    session.execute_one(JV1).unwrap();
    // acctbal is projected into JV1: updating it must rewrite view rows.
    session
        .execute_one("UPDATE customer SET acctbal = 999.0 WHERE custkey = 5")
        .unwrap();
    session.execute_one("CHECK VIEW jv1").unwrap();
    let rows = session
        .execute_one("SELECT * FROM jv1 WHERE custkey = 5")
        .unwrap()
        .rows
        .unwrap()
        .1;
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][1], Value::Float(999.0));
}

#[test]
fn show_cost_reflects_method_difference() {
    // Same DML under naive vs AR: the session's cumulative cost grows
    // much faster under naive.
    let run = |view_sql: &str| {
        let mut session = Session::new(ClusterConfig::new(8).with_buffer_pages(512));
        load_tpcr(&mut session, 50);
        session.execute_one(view_sql).unwrap();
        let before: f64 = session
            .cluster()
            .nodes()
            .iter()
            .map(|n| n.combined_snapshot().total_io())
            .sum();
        for i in 0..16 {
            session
                .execute_one(&format!(
                    "INSERT INTO customer VALUES ({}, 0.0, 'd')",
                    200 + i
                ))
                .unwrap();
        }
        let after: f64 = session
            .cluster()
            .nodes()
            .iter()
            .map(|n| n.combined_snapshot().total_io())
            .sum();
        after - before
    };
    let ar = run(JV1);
    let naive = run(&JV1
        .replace("USING AUXILIARY RELATION", "USING NAIVE")
        .replace("jv1", "jvn"));
    assert!(
        naive > ar * 1.5,
        "naive maintenance must cost visibly more: {naive} vs {ar}"
    );
}

#[test]
fn a_refused_insert_leaves_tables_and_views_unchanged() {
    // The middle row's clustered-index entry is over half a page. The
    // whole statement is refused before any row is written: none lands
    // in `t`'s heap without its index entry, and the view stays right.
    let mut session = Session::new(ClusterConfig::new(3).with_buffer_pages(64));
    session
        .execute(
            "CREATE TABLE t (k INT, v STR) PARTITION BY HASH(k) CLUSTERED; \
             CREATE TABLE u (k INT, w INT) PARTITION BY HASH(k); \
             INSERT INTO u VALUES (3, 3); \
             INSERT INTO u VALUES (4, 4); \
             CREATE VIEW jv USING NAIVE AS SELECT t.k, t.v, u.w FROM t, u WHERE t.k = u.k \
                 PARTITION ON t.k;",
        )
        .unwrap();
    let big = "x".repeat(5_000);
    let err = session
        .execute_one(&format!(
            "INSERT INTO t VALUES (3, 'a'), (4, '{big}'), (5, 'b')"
        ))
        .unwrap_err();
    assert!(
        err.to_string()
            .contains("index entry of 5033 bytes exceeds half a page"),
        "{err}"
    );
    let t = session.cluster().table_id("t").unwrap();
    assert_eq!(session.cluster().row_count(t).unwrap(), 0);
    let rows = session
        .execute_one("SELECT * FROM t")
        .unwrap()
        .rows
        .unwrap()
        .1;
    assert!(rows.is_empty(), "{rows:?}");
    session.execute_one("CHECK VIEW jv").unwrap();
    // The statement without the oversized row goes through and joins.
    session
        .execute_one("INSERT INTO t VALUES (3, 'a'), (4, 'c'), (5, 'b')")
        .unwrap();
    session.execute_one("CHECK VIEW jv").unwrap();
    let rows = session
        .execute_one("SELECT * FROM jv")
        .unwrap()
        .rows
        .unwrap()
        .1;
    assert_eq!(rows.len(), 2);
}

/// Every keyword the parser knows, plus the names, punctuation and
/// literals (edge values included) that SQL text around them holds.
const SQL_TOKENS: &str = "CREATE TABLE MATERIALIZED VIEW INSERT INTO VALUES DELETE FROM UPDATE \
    SET SELECT WHERE AND SHOW TABLES VIEWS COST CHECK DROP BEGIN SNAPSHOT TRANSACTION COMMIT \
    ROLLBACK ABORT ALTER PARTIAL BUDGET KB MB GB EXPLAIN ANALYZE MAINTENANCE OF ON USING NAIVE \
    AUXILIARY RELATION GLOBAL INDEX AS PARTITION BY HASH CLUSTERED GROUP COUNT SUM INT FLOAT \
    STR BOOL a b jv agg x y id c d p x.c y.d ( ) , ; . * = <> < <= > >= - 0 1 7 -1 2.5 's' '' \
    'it''s' 9223372036854775807 -9223372036854775808 18446744073709551616 1e308";

/// A statement the fuzzed session can run as written; `n` and `m` fill
/// its numbers.
fn valid_statement(pick: usize, n: &str, m: &str) -> String {
    match pick % 24 {
        0 => format!("INSERT INTO a VALUES ({n}, {m}, 'p{n}')"),
        1 => format!("INSERT INTO b VALUES ({n}, {m}, 'q'), ({m}, {n}, 'r')"),
        2 => format!("DELETE FROM a WHERE id = {n}"),
        3 => format!("DELETE FROM b WHERE d < {m} AND id >= {n}"),
        4 => format!("UPDATE a SET c = {m} WHERE id = {n}"),
        5 => format!("UPDATE b SET p = 'z' WHERE id <> {n}"),
        6 => "SELECT * FROM jv".into(),
        7 => format!("SELECT * FROM agg WHERE c = {m}"),
        8 => format!("SELECT * FROM a WHERE id <= {n}"),
        9 => "BEGIN TRANSACTION".into(),
        10 => "BEGIN SNAPSHOT".into(),
        11 => "COMMIT".into(),
        12 => "ROLLBACK".into(),
        13 => "CHECK VIEW jv; CHECK VIEW agg".into(),
        14 => "SHOW TABLES; SHOW VIEWS; SHOW COST".into(),
        15 => "EXPLAIN ANALYZE MAINTENANCE OF jv ON a".into(),
        16 => "EXPLAIN MAINTENANCE OF agg ON b".into(),
        17 => format!("ALTER VIEW jv SET PARTIAL BUDGET {n} KB"),
        18 => "CREATE VIEW gv USING GLOBAL INDEX AS SELECT x.id, y.id FROM a x, b y \
               WHERE x.c = y.d"
            .into(),
        19 => "CREATE VIEW nv USING NAIVE AS SELECT x.id, y.p FROM a x, b y \
               WHERE x.id = y.id PARTITION ON y.id"
            .into(),
        20 => "DROP VIEW jv".into(),
        21 => "DROP TABLE b".into(),
        22 => format!("CREATE TABLE t{n} (k INT, v FLOAT) PARTITION BY HASH(k) CLUSTERED"),
        _ => format!("SELECT * FROM b WHERE d > {m}"),
    }
}

/// A seeded, deterministic stream of SQL text: token soup, raw ASCII,
/// and valid statements with one token deleted, duplicated or replaced
/// (or left whole).
struct SqlFuzz {
    state: u64,
    tokens: Vec<&'static str>,
}

impl SqlFuzz {
    fn new(seed: u64) -> Self {
        SqlFuzz {
            state: seed,
            tokens: SQL_TOKENS.split_whitespace().collect(),
        }
    }

    /// splitmix64.
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn token(&mut self) -> &'static str {
        let at = self.below(self.tokens.len());
        self.tokens[at]
    }

    fn number(&mut self) -> String {
        match self.below(8) {
            0 => self.token().to_string(),
            _ => self.below(40).to_string(),
        }
    }

    fn statement(&mut self) -> String {
        match self.below(4) {
            0 => (0..self.below(16))
                .map(|_| self.token())
                .collect::<Vec<_>>()
                .join(" "),
            1 => (0..self.below(60))
                .map(|_| char::from(32 + self.below(95) as u8))
                .collect(),
            _ => {
                let (n, m) = (self.number(), self.number());
                let text = valid_statement(self.below(24), &n, &m);
                let spaced = ["(", ")", ",", ";"]
                    .iter()
                    .fold(text, |t, p| t.replace(p, &format!(" {p} ")));
                let mut tokens: Vec<&str> = spaced.split_whitespace().collect();
                let at = self.below(tokens.len());
                match self.below(4) {
                    0 => drop(tokens.remove(at)),
                    1 => tokens.insert(at, tokens[at]),
                    2 => tokens[at] = self.token(),
                    _ => {}
                }
                tokens.join(" ")
            }
        }
    }
}

/// Two base tables, an AR join view and an aggregate view over them.
fn fuzz_session() -> Session {
    let mut s = Session::new(ClusterConfig::new(3).with_buffer_pages(64));
    s.execute(
        "CREATE TABLE a (id INT, c INT, p STR) PARTITION BY HASH(id); \
         CREATE TABLE b (id INT, d INT, p STR) PARTITION BY HASH(id);",
    )
    .unwrap();
    for i in 0..12 {
        s.execute(&format!(
            "INSERT INTO a VALUES ({i}, {}, 'a'); INSERT INTO b VALUES ({i}, {}, 'b');",
            i % 4,
            i % 3
        ))
        .unwrap();
    }
    s.execute(
        "CREATE VIEW jv USING AUXILIARY RELATION AS \
         SELECT x.id, x.c, y.id FROM a x, b y WHERE x.c = y.d PARTITION ON x.id; \
         CREATE VIEW agg USING AUXILIARY RELATION AS \
         SELECT x.c, COUNT(*), SUM(y.d) FROM a x, b y WHERE x.c = y.d GROUP BY x.c",
    )
    .unwrap();
    s
}

#[test]
fn no_sql_text_panics_a_session() {
    const STATEMENTS: usize = 12_000;
    const RESET_EVERY: usize = 300;
    let mut fuzz = SqlFuzz::new(0x5EED);
    let mut session = fuzz_session();
    let mut ok = 0;
    for i in 0..STATEMENTS {
        if i % RESET_EVERY == RESET_EVERY - 1 {
            session = fuzz_session();
        }
        let sql = fuzz.statement();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.execute(&sql)));
        match run {
            Ok(result) => ok += usize::from(result.is_ok()),
            Err(_) => panic!("statement {i} panicked the session: {sql:?}"),
        }
    }
    assert!(
        ok > STATEMENTS / 20,
        "the stream reaches past the parser: {ok} ok"
    );
}

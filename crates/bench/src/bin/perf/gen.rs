//! Seeded input generator: TPC-R-shaped rows with the paper's fan-outs
//! (each customer matches one order, each order four lineitems), a
//! recycling pool of fresh customer keys, a Zipf draw, SQL text, and the
//! hash that identifies a generated schedule.
//!
//! The program under test only ever receives what this module produces;
//! the same seed produces the same rows, keys and statements.

use std::collections::VecDeque;

use pvm::prelude::*;

/// splitmix64 — small, seedable, and good enough to shuffle keys.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a over everything the generator hands to the program.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleHash(u64);

impl Default for ScheduleHash {
    fn default() -> Self {
        ScheduleHash(0xCBF2_9CE4_8422_2325)
    }
}

impl ScheduleHash {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn rows(&mut self, rows: &[Row]) {
        for r in rows {
            self.bytes(&r.encode());
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Rows per maintenance batch on the three small-transaction workloads.
pub const BLOCK: usize = 4;

/// The dataset of one workload. Order `o` carries custkey `key0 + o`, so
/// the first `customers` orders match the loaded customers and every
/// later order's custkey is a *fresh* customer key that joins exactly
/// that one order — the paper's §3.3 insert workload.
#[derive(Debug, Clone)]
pub struct Tpcr {
    pub customers: u64,
    /// Seed-derived key offsets: hash placement differs per seed.
    key0: i64,
    okey0: i64,
    salt: u64,
}

impl Tpcr {
    pub fn new(seed: u64, customers: u64) -> Self {
        let mut rng = Rng::new(seed);
        Tpcr {
            customers,
            key0: 1_000 + rng.below(1_000_000) as i64,
            okey0: 1_000 + rng.below(1_000_000) as i64,
            salt: rng.next_u64(),
        }
    }

    pub fn orders(&self) -> u64 {
        self.customers * 10
    }

    fn mix(&self, k: i64, lane: u64) -> u64 {
        Rng::new(self.salt ^ (k as u64).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ lane).next_u64()
    }

    /// Money-like floats on a quarter grid, so SQL text round-trips them
    /// exactly.
    fn money(&self, k: i64, lane: u64) -> f64 {
        (self.mix(k, lane) % 400_000) as f64 / 4.0
    }

    pub fn customer_schema() -> Schema {
        Schema::new(vec![
            Column::int("custkey"),
            Column::float("acctbal"),
            Column::str("name"),
        ])
    }

    pub fn orders_schema() -> Schema {
        Schema::new(vec![
            Column::int("orderkey"),
            Column::int("custkey"),
            Column::float("totalprice"),
        ])
    }

    pub fn lineitem_schema() -> Schema {
        Schema::new(vec![
            Column::int("orderkey"),
            Column::int("partkey"),
            Column::int("suppkey"),
            Column::float("extendedprice"),
            Column::float("discount"),
        ])
    }

    /// The customer row for `custkey` at account-balance version
    /// `version` (updates bump the version).
    pub fn customer(&self, custkey: i64, version: u64) -> Row {
        row![
            custkey,
            self.money(custkey, version),
            format!("Customer#{custkey:09}")
        ]
    }

    pub fn base_keys(&self) -> std::ops::Range<i64> {
        self.key0..self.key0 + self.customers as i64
    }

    pub fn customer_rows(&self) -> Vec<Row> {
        self.base_keys().map(|k| self.customer(k, 0)).collect()
    }

    /// The one order whose custkey is `custkey`.
    pub fn order_of(&self, custkey: i64) -> Row {
        let o = custkey - self.key0;
        row![self.okey0 + o, custkey, self.money(o, 7)]
    }

    pub fn orders_rows(&self) -> Vec<Row> {
        (0..self.orders() as i64)
            .map(|o| self.order_of(self.key0 + o))
            .collect()
    }

    /// The four lineitems of the order matching `custkey`.
    pub fn lineitems_of(&self, custkey: i64) -> Vec<Row> {
        let o = custkey - self.key0;
        (0..4)
            .map(|l| {
                let i = o * 4 + l;
                row![
                    self.okey0 + o,
                    (self.mix(i, 1) % 200_000) as i64,
                    (self.mix(i, 2) % 10_000) as i64,
                    self.money(i, 3),
                    (self.mix(i, 4) % 11) as f64 / 100.0
                ]
            })
            .collect()
    }

    pub fn lineitem_rows(&self) -> Vec<Row> {
        (0..self.orders() as i64)
            .flat_map(|o| self.lineitems_of(self.key0 + o))
            .collect()
    }

    /// JV1's rows for one customer row: (custkey, acctbal, orderkey,
    /// totalprice) — the bench's own model of the view.
    pub fn jv1_rows(&self, customer: &Row) -> Vec<Row> {
        let custkey = customer[0].as_int().expect("custkey is an int");
        let o = self.order_of(custkey);
        vec![Row::new(vec![
            customer[0].clone(),
            customer[1].clone(),
            o[0].clone(),
            o[2].clone(),
        ])]
    }

    /// JV2's rows for one customer row: (custkey, acctbal, orderkey,
    /// totalprice, discount, extendedprice), sorted.
    pub fn jv2_rows(&self, customer: &Row) -> Vec<Row> {
        let custkey = customer[0].as_int().expect("custkey is an int");
        let o = self.order_of(custkey);
        let mut rows: Vec<Row> = self
            .lineitems_of(custkey)
            .iter()
            .map(|l| {
                Row::new(vec![
                    customer[0].clone(),
                    customer[1].clone(),
                    o[0].clone(),
                    o[2].clone(),
                    l[4].clone(),
                    l[3].clone(),
                ])
            })
            .collect();
        rows.sort();
        rows
    }

    /// Create and load `customer` and `orders` (and `lineitem`),
    /// partitioned and clustered as the paper states.
    pub fn install(&self, cluster: &mut Cluster, lineitem: bool) -> Result<()> {
        let c = cluster.create_table(TableDef::hash_clustered(
            "customer",
            Self::customer_schema().into_ref(),
            0,
        ))?;
        let o = cluster.create_table(TableDef::hash_clustered(
            "orders",
            Self::orders_schema().into_ref(),
            0,
        ))?;
        cluster.insert(c, self.customer_rows())?;
        cluster.insert(o, self.orders_rows())?;
        if lineitem {
            let l = cluster.create_table(TableDef::hash_clustered(
                "lineitem",
                Self::lineitem_schema().into_ref(),
                1,
            ))?;
            cluster.insert(l, self.lineitem_rows())?;
        }
        Ok(())
    }

    /// Fold the loaded tables into a schedule hash.
    pub fn hash_into(&self, h: &mut ScheduleHash, lineitem: bool) {
        h.rows(&self.customer_rows());
        h.rows(&self.orders_rows());
        if lineitem {
            h.rows(&self.lineitem_rows());
        }
    }

    /// Blocks of `block` consecutive fresh custkeys, in seeded order;
    /// used blocks return to the back of the queue (key recycling).
    pub fn key_pool(&self, seed: u64, block: usize) -> KeyPool {
        let first = self.key0 + self.customers as i64;
        let blocks = (self.orders() - self.customers) as usize / block;
        let mut starts: Vec<i64> = (0..blocks as i64)
            .map(|b| first + b * block as i64)
            .collect();
        Rng::new(seed ^ 0xB10C).shuffle(&mut starts);
        KeyPool {
            free: starts.into(),
            block,
        }
    }
}

/// JV1 = customer ⋈ orders on custkey, partitioned on custkey.
pub fn jv1(name: &str) -> JoinViewDef {
    JoinViewDef {
        name: name.into(),
        relations: vec!["customer".into(), "orders".into()],
        edges: vec![ViewEdge::new(ViewColumn::new(0, 0), ViewColumn::new(1, 1))],
        projection: vec![
            ViewColumn::new(0, 0),
            ViewColumn::new(0, 1),
            ViewColumn::new(1, 0),
            ViewColumn::new(1, 2),
        ],
        partition_column: 0,
    }
}

/// JV2 = customer ⋈ orders ⋈ lineitem, partitioned on custkey.
pub fn jv2(name: &str) -> JoinViewDef {
    JoinViewDef {
        name: name.into(),
        relations: vec!["customer".into(), "orders".into(), "lineitem".into()],
        edges: vec![
            ViewEdge::new(ViewColumn::new(0, 0), ViewColumn::new(1, 1)),
            ViewEdge::new(ViewColumn::new(1, 0), ViewColumn::new(2, 0)),
        ],
        projection: vec![
            ViewColumn::new(0, 0),
            ViewColumn::new(0, 1),
            ViewColumn::new(1, 0),
            ViewColumn::new(1, 2),
            ViewColumn::new(2, 4),
            ViewColumn::new(2, 3),
        ],
        partition_column: 0,
    }
}

#[derive(Debug, Clone)]
pub struct KeyPool {
    free: VecDeque<i64>,
    block: usize,
}

impl KeyPool {
    /// The next block's keys, or `None` once every block is in use.
    pub fn take(&mut self) -> Option<Vec<i64>> {
        let start = self.free.pop_front()?;
        Some((start..start + self.block as i64).collect())
    }

    /// Return a block whose rows were deleted again.
    pub fn give_back(&mut self, keys: &[i64]) {
        self.free.push_back(keys[0]);
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf domain must be non-empty");
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|i| {
                total += (i as f64).powf(-s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// SQL text for the `sql_serve` workload.
pub mod sql {
    use pvm::prelude::Row;

    pub const CREATE_TABLES: &str = "\
        CREATE TABLE customer (custkey INT, acctbal FLOAT, name STR) \
            PARTITION BY HASH(custkey) CLUSTERED; \
        CREATE TABLE orders (orderkey INT, custkey INT, totalprice FLOAT) \
            PARTITION BY HASH(orderkey) CLUSTERED;";

    pub fn create_view(name: &str, method: &str) -> String {
        format!(
            "CREATE VIEW {name} USING {method} AS \
             SELECT c.custkey, c.acctbal, o.orderkey, o.totalprice \
             FROM customer c, orders o WHERE c.custkey = o.custkey \
             PARTITION ON c.custkey"
        )
    }

    pub fn insert(rows: &[Row]) -> String {
        let tuples: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "({}, {:.2}, '{}')",
                    r[0].as_int().expect("custkey"),
                    r[1].as_float().expect("acctbal"),
                    r[2].as_str().expect("name")
                )
            })
            .collect();
        format!("INSERT INTO customer VALUES {}", tuples.join(", "))
    }

    pub fn update(custkey: i64, acctbal: f64) -> String {
        format!("UPDATE customer SET acctbal = {acctbal:.2} WHERE custkey = {custkey}")
    }

    pub fn delete_range(lo: i64, hi: i64) -> String {
        format!("DELETE FROM customer WHERE custkey >= {lo} AND custkey <= {hi}")
    }

    pub fn select(view: &str, custkey: i64) -> String {
        // A view's stored columns are named `<relation>.<column>`.
        format!("SELECT * FROM {view} WHERE customer.custkey = {custkey}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rows_other_seed_other_rows() {
        let a = Tpcr::new(7, 50);
        let b = Tpcr::new(7, 50);
        let c = Tpcr::new(8, 50);
        assert_eq!(a.customer_rows(), b.customer_rows());
        assert_eq!(a.lineitem_rows(), b.lineitem_rows());
        assert_ne!(a.customer_rows(), c.customer_rows());
        let (mut ha, mut hb, mut hc) = Default::default();
        a.hash_into(&mut ha, true);
        b.hash_into(&mut hb, true);
        c.hash_into(&mut hc, true);
        let (ha, hb, hc): (ScheduleHash, ScheduleHash, ScheduleHash) = (ha, hb, hc);
        assert_eq!(ha.value(), hb.value());
        assert_ne!(ha.value(), hc.value());
    }

    #[test]
    fn fan_outs_follow_the_paper() {
        let d = Tpcr::new(3, 40);
        let orders = d.orders_rows();
        let lineitems = d.lineitem_rows();
        assert_eq!(orders.len(), 400);
        assert_eq!(lineitems.len(), 1600);
        let mut pool = d.key_pool(3, BLOCK);
        let fresh = pool.take().unwrap();
        for k in d.base_keys().take(5).chain(fresh) {
            let matching: Vec<&Row> = orders.iter().filter(|o| o[1] == Value::Int(k)).collect();
            assert_eq!(matching.len(), 1, "custkey {k} matches one order");
            assert_eq!(matching[0], &d.order_of(k));
            let items = lineitems.iter().filter(|l| l[0] == matching[0][0]).count();
            assert_eq!(items, 4, "each order matches four lineitems");
            assert_eq!(d.jv2_rows(&d.customer(k, 0)).len(), 4);
        }
    }

    #[test]
    fn pool_blocks_are_fresh_consecutive_and_recycled() {
        let d = Tpcr::new(11, 20);
        let mut pool = d.key_pool(11, BLOCK);
        let n = pool.free.len();
        assert_eq!(n, 180 / BLOCK);
        let first = pool.take().unwrap();
        assert!(first.windows(2).all(|w| w[1] == w[0] + 1));
        assert!(first.iter().all(|k| !d.base_keys().contains(k)));
        let mut seen = vec![first.clone()];
        while let Some(b) = pool.take() {
            seen.push(b);
        }
        assert_eq!(seen.len(), n);
        let mut starts: Vec<i64> = seen.iter().map(|b| b[0]).collect();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts.len(), n, "no block handed out twice");
        pool.give_back(&first);
        assert_eq!(pool.take().unwrap(), first);
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = Zipf::new(1000, 1.1);
        let mut rng = Rng::new(5);
        let mut head = 0;
        for _ in 0..20_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1000);
            head += usize::from(r < 10);
        }
        assert!((6_000..14_000).contains(&head), "top-10 share off: {head}");
    }

    #[test]
    fn sql_text_parses_and_round_trips_money() {
        let d = Tpcr::new(9, 10);
        let rows: Vec<Row> = (0..4)
            .map(|i| d.customer(d.base_keys().start + i, 1))
            .collect();
        let text = [
            sql::CREATE_TABLES.to_string(),
            sql::create_view("jv0", "AUXILIARY RELATION"),
            sql::insert(&rows),
            sql::update(5, 12.25),
            sql::delete_range(5, 8),
            sql::select("jv0", 5),
        ]
        .join("; ");
        assert_eq!(pvm::sql::parse(&text).unwrap().len(), 7);
        let acct = rows[0][1].as_float().unwrap();
        assert_eq!(format!("{acct:.2}").parse::<f64>().unwrap(), acct);
    }
}

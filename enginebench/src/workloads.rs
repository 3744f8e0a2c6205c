//! The three workloads: seeded fixtures, a fixed statement pool per
//! workload, and the answer oracles.
//!
//! Every workload is one client in a closed loop over its pool, which is a
//! whole number of fixed-layout cycles. Writes in federated_analytics and
//! adhoc_compile come as adjacent `+d` / `-d` pairs on one lineitem, so the
//! data every read sees is always the seeded data and the reference answers
//! computed before the run stay valid.

use crate::fixture::{self, Fixture, Params, Wrap, ACCOUNTS_PER_MEMBER, MEMBERS};
use crate::stats::Op;
use dhqp::{Engine, QueryResult};
use dhqp_types::{DhqpError, Result, Row, Value};
use dhqp_workload::tpch::{self, TpchScale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    OltpMix,
    FederatedAnalytics,
    AdhocCompile,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::OltpMix, Kind::FederatedAnalytics, Kind::AdhocCompile];

    pub fn name(self) -> &'static str {
        match self {
            Kind::OltpMix => "oltp_mix",
            Kind::FederatedAnalytics => "federated_analytics",
            Kind::AdhocCompile => "adhoc_compile",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Statements run before measuring: whole cycles that compile every
    /// template and fill the metadata and statistics caches (and, for
    /// adhoc_compile, the plan cache).
    fn warmup(self) -> usize {
        match self {
            Kind::OltpMix => 2 * OLTP_CYCLE,
            Kind::FederatedAnalytics => 2 * ANALYTICS_CYCLE_LEN,
            Kind::AdhocCompile => 7 * ADHOC_CYCLE,
        }
    }
}

/// What the oracle checks for one statement.
#[derive(Debug, Clone)]
pub enum Check {
    /// Read of one account: the answer must equal the shadow balance.
    Balance(i64),
    /// Update adding `delta` to each listed account (one row each).
    Transfer { ids: Vec<i64>, delta: i64 },
    /// Read whose rows must equal, as a multiset, reference answer `idx`.
    Reference(usize),
    /// Write that must affect exactly one row.
    AffectsOne,
}

#[derive(Debug, Clone)]
pub struct Stmt {
    /// Template class: the unit of the traced run's per-class breakdown.
    pub class: &'static str,
    pub op: Op,
    pub sql: String,
    pub params: Params,
    pub check: Check,
    /// The `-d` half of a write pair: run even when time is up, so the
    /// data is restored before the end-of-run checks.
    pub closes_pair: bool,
}

pub struct Bench {
    pub kind: Kind,
    pub fx: Fixture,
    pub pool: Vec<Stmt>,
    pub warmup: usize,
    pub seed: u64,
}

/// Build the fixture and statement pool of `kind` from `seed`.
pub fn build(kind: Kind, seed: u64, wrap: &dyn Wrap) -> Result<Bench> {
    let (fx, pool) = match kind {
        Kind::OltpMix => (fixture::oltp(seed, wrap)?, oltp_pool(seed)),
        Kind::FederatedAnalytics => {
            let scale = fixture::analytics_scale();
            let fx = fixture::tpch_federation(&scale, seed, wrap)?;
            (fx, analytics_pool(&scale, seed))
        }
        Kind::AdhocCompile => {
            let scale = TpchScale::tiny();
            let fx = fixture::tpch_federation(&scale, seed, wrap)?;
            (fx, adhoc_pool(&scale, seed))
        }
    };
    Ok(Bench {
        kind,
        fx,
        pool,
        warmup: kind.warmup(),
        seed,
    })
}

fn params(pairs: &[(&str, Value)]) -> Params {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

// ---------------------------------------------------------------------------
// oltp_mix
// ---------------------------------------------------------------------------

/// 57 point reads and 3 updates per cycle: two single-account updates and
/// one two-member update that commits through 2PC.
pub const OLTP_CYCLE: usize = 60;
/// 120 distinct updates, so the write p90 has ten samples beyond it even
/// from a single pass.
const OLTP_CYCLES: usize = 40;
pub const OLTP_READ: &str = "SELECT balance FROM accounts_all WHERE id = @id";
const OLTP_WRITE_ONE: &str = "UPDATE accounts_all SET balance = balance + @d WHERE id = @a";
const OLTP_WRITE_TWO: &str =
    "UPDATE accounts_all SET balance = balance + @d WHERE id = @a OR id = @b";

fn oltp_pool(seed: u64) -> Vec<Stmt> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6f6c_7470);
    let total = MEMBERS as i64 * ACCOUNTS_PER_MEMBER;
    let delta = |rng: &mut StdRng| {
        let d = rng.gen_range(1..51i64);
        if rng.gen_bool(0.5) {
            d
        } else {
            -d
        }
    };
    let mut pool = Vec::with_capacity(OLTP_CYCLE * OLTP_CYCLES);
    for _ in 0..OLTP_CYCLES {
        for slot in 0..OLTP_CYCLE {
            let stmt = match slot {
                19 | 59 => {
                    let a = rng.gen_range(0..total);
                    let d = delta(&mut rng);
                    Stmt {
                        class: "write_one",
                        op: Op::Write,
                        sql: OLTP_WRITE_ONE.into(),
                        params: params(&[("a", Value::Int(a)), ("d", Value::Int(d))]),
                        check: Check::Transfer {
                            ids: vec![a],
                            delta: d,
                        },
                        closes_pair: false,
                    }
                }
                39 => {
                    let ma = rng.gen_range(0..MEMBERS as i64);
                    let mb = (ma + rng.gen_range(1..MEMBERS as i64)) % MEMBERS as i64;
                    let a = ma * ACCOUNTS_PER_MEMBER + rng.gen_range(0..ACCOUNTS_PER_MEMBER);
                    let b = mb * ACCOUNTS_PER_MEMBER + rng.gen_range(0..ACCOUNTS_PER_MEMBER);
                    let d = delta(&mut rng);
                    Stmt {
                        class: "write_2pc",
                        op: Op::Write,
                        sql: OLTP_WRITE_TWO.into(),
                        params: params(&[
                            ("a", Value::Int(a)),
                            ("b", Value::Int(b)),
                            ("d", Value::Int(d)),
                        ]),
                        check: Check::Transfer {
                            ids: vec![a, b],
                            delta: d,
                        },
                        closes_pair: false,
                    }
                }
                _ => {
                    let id = rng.gen_range(0..total);
                    Stmt {
                        class: "read",
                        op: Op::Read,
                        sql: OLTP_READ.into(),
                        params: params(&[("id", Value::Int(id))]),
                        check: Check::Balance(id),
                        closes_pair: false,
                    }
                }
            };
            pool.push(stmt);
        }
    }
    pool
}

// ---------------------------------------------------------------------------
// Shared lineitem write pair (federated_analytics and adhoc_compile)
// ---------------------------------------------------------------------------

/// Routed to one member by the partitioning column, like an application
/// that knows its row's commit date.
const LINEITEM_WRITE: &str = "UPDATE lineitem_all SET l_quantity = l_quantity + @d \
     WHERE l_commitdate = @cd AND l_orderkey = @k AND l_linenumber = @ln";

/// `+d` then `-d` on one seeded lineitem row.
fn lineitem_write_pair(rows: &[Row], rng: &mut StdRng) -> [Stmt; 2] {
    let row = &rows[rng.gen_range(0..rows.len())];
    let d = rng.gen_range(1..10i64);
    let stmt = |delta: i64, closes_pair: bool| Stmt {
        class: "write",
        op: Op::Write,
        sql: LINEITEM_WRITE.into(),
        params: params(&[
            ("d", Value::Int(delta)),
            ("cd", row.get(5).clone()),
            ("k", row.get(0).clone()),
            ("ln", row.get(1).clone()),
        ]),
        check: Check::AffectsOne,
        closes_pair,
    };
    [stmt(d, false), stmt(-d, true)]
}

fn seeded_lineitems(scale: &TpchScale, seed: u64) -> Vec<Row> {
    tpch::lineitem_rows(scale, &mut StdRng::seed_from_u64(seed))
}

// ---------------------------------------------------------------------------
// federated_analytics
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Slot {
    Q1,
    Lookup,
    Join,
    SemiJoin,
    WritePair,
}

/// Ten reads and two write pairs. The read weights put the read p50 inside
/// the semi-join template's latency band and p90 inside the join/Q1 band,
/// never on the edge between two templates.
const ANALYTICS_CYCLE: [Slot; 12] = [
    Slot::Lookup,
    Slot::SemiJoin,
    Slot::Lookup,
    Slot::Q1,
    Slot::WritePair,
    Slot::Lookup,
    Slot::Join,
    Slot::Lookup,
    Slot::SemiJoin,
    Slot::WritePair,
    Slot::Q1,
    Slot::Join,
];
/// Statements per analytics cycle (each write pair is two).
const ANALYTICS_CYCLE_LEN: usize = ANALYTICS_CYCLE.len() + 2;
/// 100 distinct updates per pass, so even a single pass leaves ten
/// samples beyond the write p90.
const ANALYTICS_CYCLES: usize = 25;

pub const Q1: &str = "SELECT l_linenumber, COUNT(*) AS n, SUM(l_quantity) AS qty, \
     SUM(l_extendedprice) AS price FROM lineitem_all WHERE l_quantity < @q GROUP BY l_linenumber";
pub const LOOKUP: &str =
    "SELECT l_linenumber, l_quantity, l_extendedprice FROM lineitem_all WHERE l_orderkey = @k";
pub const JOIN: &str = "SELECT l.l_linenumber, COUNT(*) AS n, SUM(l.l_extendedprice) AS price \
     FROM orders o JOIN lineitem_all l ON o.o_orderkey = l.l_orderkey \
     WHERE o.o_totalprice > @p GROUP BY l.l_linenumber";
pub const SEMI_JOIN: &str = "SELECT o.o_orderkey, l.l_linenumber, l.l_quantity \
     FROM orders o JOIN lineitem_all l ON o.o_orderkey = l.l_orderkey WHERE o.o_custkey = @c";

fn analytics_pool(scale: &TpchScale, seed: u64) -> Vec<Stmt> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x616e_616c);
    let lineitems = seeded_lineitems(scale, seed);
    let mut pool = Vec::new();
    for _ in 0..ANALYTICS_CYCLES {
        for slot in ANALYTICS_CYCLE {
            let (class, sql, p) = match slot {
                Slot::Q1 => ("q1", Q1, ("q", Value::Int(rng.gen_range(30..50i64)))),
                Slot::Lookup => (
                    "lookup",
                    LOOKUP,
                    ("k", Value::Int(rng.gen_range(0..scale.orders as i64))),
                ),
                Slot::Join => (
                    "join",
                    JOIN,
                    ("p", Value::Float(rng.gen_range(1_000..4_000i64) as f64)),
                ),
                Slot::SemiJoin => (
                    "semi_join",
                    SEMI_JOIN,
                    ("c", Value::Int(rng.gen_range(0..scale.customers as i64))),
                ),
                Slot::WritePair => {
                    pool.extend(lineitem_write_pair(&lineitems, &mut rng));
                    continue;
                }
            };
            let idx = pool.len();
            pool.push(Stmt {
                class,
                op: Op::Read,
                sql: sql.into(),
                params: params(&[p]),
                check: Check::Reference(idx),
                closes_pair: false,
            });
        }
    }
    pool
}

// ---------------------------------------------------------------------------
// adhoc_compile
// ---------------------------------------------------------------------------

/// Twenty distinct SELECTs and one write pair per cycle.
const ADHOC_CYCLE: usize = 22;
const ADHOC_CYCLES: usize = 26;
/// Distinct SELECT templates: over 4x the default plan-cache capacity.
pub const ADHOC_SELECTS: usize = 20 * ADHOC_CYCLES;
const _: () = assert!(ADHOC_SELECTS >= 4 * 128);

#[derive(Clone, Copy)]
enum Col {
    /// Integer column sampled from `lo..hi`.
    Int(&'static str, i64, i64),
    /// Float column sampled from `lo..hi` (whole units).
    Float(&'static str, i64, i64),
    /// String column, equality against one of the values.
    Str(&'static str, &'static [&'static str]),
}

impl Col {
    fn name(self) -> &'static str {
        match self {
            Col::Int(n, ..) | Col::Float(n, ..) | Col::Str(n, _) => n,
        }
    }

    fn numeric(self) -> bool {
        !matches!(self, Col::Str(..))
    }

    /// A predicate on this column: the comparison is drawn from `shape`,
    /// the literal from `literal`.
    fn predicate(self, shape: &mut StdRng, literal: &mut StdRng) -> String {
        const OPS: [&str; 4] = ["<", ">", "<=", ">="];
        match self {
            Col::Int(n, lo, hi) => format!(
                "{n} {} {}",
                OPS[shape.gen_range(0..4)],
                literal.gen_range(lo..hi)
            ),
            Col::Float(n, lo, hi) => format!(
                "{n} {} {}.{:02}",
                OPS[shape.gen_range(0..4)],
                literal.gen_range(lo..hi),
                literal.gen_range(0..100)
            ),
            Col::Str(n, values) => {
                format!("{n} = '{}'", values[literal.gen_range(0..values.len())])
            }
        }
    }
}

/// The join ring nation - customer - orders - lineitem_all - supplier -
/// nation: every arc of 2 to 4 tables is a connected join.
const RING: [(&str, &[Col]); 5] = [
    (
        "nation",
        &[
            Col::Int("n_nationkey", 0, 5),
            Col::Str(
                "n_name",
                &["ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT"],
            ),
            Col::Int("n_regionkey", 0, 5),
        ],
    ),
    (
        "customer",
        &[
            Col::Int("c_custkey", 0, 60),
            Col::Str("c_city", &["Seattle", "Portland", "Redmond", "Tacoma"]),
            Col::Float("c_acctbal", 0, 9_000),
        ],
    ),
    (
        "orders",
        &[
            Col::Int("o_orderkey", 0, 120),
            Col::Int("o_custkey", 0, 60),
            Col::Float("o_totalprice", 10, 5_000),
        ],
    ),
    (
        "lineitem_all",
        &[
            Col::Int("l_linenumber", 1, 4),
            Col::Int("l_quantity", 1, 50),
            Col::Float("l_extendedprice", 1, 1_000),
            Col::Int("l_suppkey", 0, 12),
        ],
    ),
    (
        "supplier",
        &[
            Col::Int("s_suppkey", 0, 12),
            Col::Str(
                "s_name",
                &["Supplier#0001", "Supplier#0003", "Supplier#0007"],
            ),
            Col::Float("s_acctbal", 0, 9_000),
        ],
    ),
];

/// Join condition between ring neighbours `i` and `i + 1`.
const RING_EDGES: [&str; 5] = [
    "n_nationkey = c_nationkey",
    "c_custkey = o_custkey",
    "o_orderkey = l_orderkey",
    "l_suppkey = s_suppkey",
    "s_nationkey = n_nationkey",
];

/// One SELECT: its shape (tables, columns, comparisons, clauses) comes
/// from `rng`, its literal values from `literal`.
fn adhoc_select(rng: &mut StdRng, literal: &mut StdRng) -> String {
    let start = rng.gen_range(0..5usize);
    let len = rng.gen_range(2..5usize);
    let mut arc: Vec<usize> = (0..len).map(|i| (start + i) % 5).collect();
    if rng.gen_bool(0.5) {
        arc.reverse();
    }
    let mut from = RING[arc[0]].0.to_string();
    for w in arc.windows(2) {
        let edge = if (w[0] + 1) % 5 == w[1] { w[0] } else { w[1] };
        from.push_str(&format!(" JOIN {} ON {}", RING[w[1]].0, RING_EDGES[edge]));
    }
    let cols: Vec<Col> = arc
        .iter()
        .flat_map(|&t| RING[t].1.iter().copied())
        .collect();
    let pick = |rng: &mut StdRng| cols[rng.gen_range(0..cols.len())];

    let mut preds: Vec<String> = Vec::new();
    for _ in 0..rng.gen_range(1..3usize) {
        preds.push(pick(rng).predicate(rng, literal));
    }
    let select = if rng.gen_bool(0.5) {
        let group = pick(rng);
        let mut items = vec![group.name().to_string(), "COUNT(*) AS n".to_string()];
        let numeric: Vec<Col> = cols.iter().copied().filter(|c| c.numeric()).collect();
        if rng.gen_bool(0.7) {
            let agg = ["SUM", "MIN", "MAX"][rng.gen_range(0..3)];
            let col = numeric[rng.gen_range(0..numeric.len())];
            items.push(format!("{agg}({}) AS a", col.name()));
        }
        let order = if rng.gen_bool(0.5) {
            format!(" ORDER BY {}", group.name())
        } else {
            String::new()
        };
        format!(
            "SELECT {} FROM {from} WHERE {} GROUP BY {}{order}",
            items.join(", "),
            preds.join(" AND "),
            group.name()
        )
    } else {
        let mut items: Vec<&str> = Vec::new();
        for _ in 0..rng.gen_range(1..4usize) {
            let c = pick(rng).name();
            if !items.contains(&c) {
                items.push(c);
            }
        }
        let order = if rng.gen_bool(0.5) {
            format!(" ORDER BY {}", items[0])
        } else {
            String::new()
        };
        format!(
            "SELECT {} FROM {from} WHERE {}{order}",
            items.join(", "),
            preds.join(" AND ")
        )
    };
    select
}

/// [`ADHOC_SELECTS`] SELECTs whose plan-cache templates are pairwise
/// distinct, so cycling through them in order never hits the LRU. The
/// shapes are the same for every seed, so runs with different seeds
/// compile the same mix; the seed picks the literals.
pub fn adhoc_selects(seed: u64) -> Vec<String> {
    let mut shape = StdRng::seed_from_u64(0x6164_686f);
    let mut literal = StdRng::seed_from_u64(seed ^ 0x6c69_7465);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(ADHOC_SELECTS);
    while out.len() < ADHOC_SELECTS {
        let sql = adhoc_select(&mut shape, &mut literal);
        let template = dhqp_sqlfront::fingerprint(&sql)
            .expect("generated SELECTs tokenize")
            .template;
        if seen.insert(template) {
            out.push(sql);
        }
    }
    out
}

fn adhoc_pool(scale: &TpchScale, seed: u64) -> Vec<Stmt> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7772_6974);
    let lineitems = seeded_lineitems(scale, seed);
    let mut selects = adhoc_selects(seed).into_iter();
    let mut pool = Vec::new();
    for _ in 0..ADHOC_CYCLES {
        for slot in 0..ADHOC_CYCLE - 2 {
            if slot == 10 {
                pool.extend(lineitem_write_pair(&lineitems, &mut rng));
            }
            let idx = pool.len();
            pool.push(Stmt {
                class: "select",
                op: Op::Read,
                sql: selects.next().expect("one SELECT per slot"),
                params: Params::new(),
                check: Check::Reference(idx),
                closes_pair: false,
            });
        }
    }
    pool
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// Rows in a canonical order for multiset comparison.
fn canonical(rows: &[Row]) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = rows.iter().map(|r| r.values.clone()).collect();
    out.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        // Float sums may differ in their last bits with summation order.
        (Value::Float(x), Value::Float(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
        _ => a.total_cmp(b).is_eq() && a.data_type() == b.data_type(),
    }
}

fn same_rows(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(u, v)| same_value(u, v)))
}

pub struct Oracle {
    /// Canonical reference answers by pool index (federated_analytics and
    /// adhoc_compile).
    reference: HashMap<usize, Vec<Vec<Value>>>,
    /// Client-side balances of every account an update touched.
    shadow: HashMap<i64, i64>,
    initial_balance: i64,
    /// Sum of every delta an acknowledged update applied.
    applied: i64,
    /// Reference engine, kept for the end-of-run data check.
    reference_engine: Option<Engine>,
}

impl Oracle {
    /// Build the oracle for `bench` (untimed: a local reference engine
    /// with the same seeded data answers every pool read once).
    pub fn new(bench: &Bench) -> Result<Oracle> {
        let mut oracle = Oracle {
            reference: HashMap::new(),
            shadow: HashMap::new(),
            initial_balance: fixture::initial_balance(bench.seed),
            applied: 0,
            reference_engine: None,
        };
        let scale = match bench.kind {
            Kind::OltpMix => return Ok(oracle),
            Kind::FederatedAnalytics => fixture::analytics_scale(),
            Kind::AdhocCompile => TpchScale::tiny(),
        };
        let reference = fixture::tpch_reference(&scale, bench.seed)?;
        for (idx, stmt) in bench.pool.iter().enumerate() {
            if let Check::Reference(_) = stmt.check {
                let r = reference.execute_with_params(&stmt.sql, stmt.params.clone())?;
                oracle.reference.insert(idx, canonical(&r.rows));
            }
        }
        oracle.reference_engine = Some(reference);
        Ok(oracle)
    }

    /// Whether `result` is the right answer to `stmt`; updates the shadow
    /// state for acknowledged writes.
    pub fn check(&mut self, stmt: &Stmt, result: &Result<QueryResult>) -> bool {
        let Ok(r) = result else { return false };
        match &stmt.check {
            Check::Balance(id) => {
                let want = *self.shadow.get(id).unwrap_or(&self.initial_balance);
                r.rows.len() == 1 && matches!(r.rows[0].get(0), Value::Int(b) if *b == want)
            }
            Check::Transfer { ids, delta } => {
                if r.rows_affected != Some(ids.len() as u64) {
                    return false;
                }
                for id in ids {
                    *self.shadow.entry(*id).or_insert(self.initial_balance) += delta;
                }
                self.applied += delta * ids.len() as i64;
                true
            }
            Check::Reference(idx) => same_rows(&canonical(&r.rows), &self.reference[idx]),
            Check::AffectsOne => r.rows_affected == Some(1),
        }
    }

    /// Untimed end-of-run data check: oltp_mix's total balance equals the
    /// initial total plus every applied delta; the lineitem quantities of
    /// the other workloads are back to the seeded ones.
    pub fn final_check(&self, bench: &Bench) -> Result<()> {
        let (sql, want) = match &self.reference_engine {
            None => {
                let total = MEMBERS as i64 * ACCOUNTS_PER_MEMBER * self.initial_balance;
                (
                    "SELECT SUM(balance) AS s FROM accounts_all",
                    Value::Int(total + self.applied),
                )
            }
            Some(reference) => {
                let sql = "SELECT SUM(l_quantity) AS s FROM lineitem_all";
                let want = reference.query(sql)?.rows[0].get(0).clone();
                (sql, want)
            }
        };
        let got = bench.fx.head.query(sql)?;
        match got.scalar() {
            Some(v) if same_value(v, &want) => Ok(()),
            other => Err(DhqpError::Execute(format!(
                "end-of-run check `{sql}`: got {other:?}, want {want:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adhoc_templates_are_distinct_and_exceed_the_plan_cache() {
        let selects = adhoc_selects(7);
        assert_eq!(selects.len(), ADHOC_SELECTS);
        let pool = adhoc_pool(&TpchScale::tiny(), 7);
        assert_eq!(pool.len(), ADHOC_CYCLE * ADHOC_CYCLES);
        assert_eq!(
            pool.iter().filter(|s| s.op == Op::Read).count(),
            ADHOC_SELECTS
        );
    }

    #[test]
    fn pools_are_whole_cycles_with_closed_write_pairs() {
        let pool = oltp_pool(3);
        assert_eq!(pool.len(), OLTP_CYCLE * OLTP_CYCLES);
        let writes = pool.iter().filter(|s| s.op == Op::Write).count();
        assert_eq!(writes, 3 * OLTP_CYCLES);
        let pool = analytics_pool(&fixture::analytics_scale(), 3);
        for (i, s) in pool.iter().enumerate() {
            if s.closes_pair {
                assert!(pool[i - 1].op == Op::Write && !pool[i - 1].closes_pair);
            }
        }
        assert_eq!(pool.len(), ANALYTICS_CYCLE_LEN * ANALYTICS_CYCLES);
    }
}

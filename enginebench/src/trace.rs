//! The traced run's instrumentation, all of it outside the program: timing
//! forwarders around each member source, one outside its
//! `NetworkedDataSource` (layer `link`: accounting plus member) and one
//! inside it (layer `member`). Spans stay in memory and are written out
//! when the run ends.

use crate::fixture::Wrap;
use dhqp_netsim::{NetworkLink, NetworkedDataSource};
use dhqp_oledb::{
    Command, CommandResult, DataSource, Histogram, KeyRange, LatencySummary, ProviderCapabilities,
    Rowset, Session, TableInfo, TrafficSnapshot, TxnId,
};
use dhqp_types::{Result, Row, RowBatch, Schema, Value};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The whole statement, as the client timed it.
    Statement,
    /// Outer forwarder: link accounting plus everything below it.
    Link,
    /// Inner forwarder: the member engine's own work.
    Member,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Statement => "statement",
            Layer::Link => "link",
            Layer::Member => "member",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: Layer,
    /// Member index (`usize::MAX` for the statement span).
    pub member: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct State {
    /// Only calls made while a statement is in flight are recorded.
    active: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Span index handed out while no statement is in flight.
const IDLE: usize = usize::MAX;

/// Collects the spans of the statement in flight.
pub struct Recorder {
    epoch: Instant,
    state: Mutex<State>,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        })
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("span recorder poisoned by a panic")
    }

    fn enter(&self, layer: Layer, member: usize, name: &'static str) -> usize {
        let start_ns = self.ns(Instant::now());
        let mut st = self.lock();
        if !st.active {
            return IDLE;
        }
        let idx = st.spans.len();
        let parent = st.stack.last().copied();
        st.spans.push(Span {
            layer,
            member,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        st.stack.push(idx);
        idx
    }

    fn exit(&self, idx: usize) {
        if idx == IDLE {
            return;
        }
        let end_ns = self.ns(Instant::now());
        let mut st = self.lock();
        st.spans[idx].end_ns = end_ns;
        let top = st.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans closed out of order");
    }

    /// Open the statement span; every forwarder span until
    /// [`Recorder::end_statement`] nests under it.
    pub fn begin_statement(&self) {
        let mut st = self.lock();
        st.spans.clear();
        st.stack.clear();
        st.active = true;
        drop(st);
        self.enter(Layer::Statement, usize::MAX, "statement");
    }

    /// Close the statement span with the client's own timestamps and hand
    /// back the statement's spans (index 0 is the statement).
    pub fn end_statement(&self, t0: Instant, t1: Instant) -> Vec<Span> {
        let (s, e) = (self.ns(t0), self.ns(t1));
        let mut st = self.lock();
        st.active = false;
        st.stack.clear();
        let mut spans = std::mem::take(&mut st.spans);
        spans[0].start_ns = s;
        spans[0].end_ns = e;
        spans
    }
}

/// Closes its span when dropped, also on an early `?` return.
struct Guard<'a> {
    rec: &'a Recorder,
    idx: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.rec.exit(self.idx);
    }
}

#[derive(Clone)]
struct Tap {
    rec: Arc<Recorder>,
    layer: Layer,
    member: usize,
}

impl Tap {
    fn span(&self, name: &'static str) -> Guard<'_> {
        Guard {
            rec: &self.rec,
            idx: self.rec.enter(self.layer, self.member, name),
        }
    }
}

/// The traced configuration: `link` forwarder, then the network link, then
/// the `member` forwarder, then the member engine.
pub struct Traced(pub Arc<Recorder>);

impl Wrap for Traced {
    fn wrap(
        &self,
        index: usize,
        link: NetworkLink,
        member: Arc<dyn DataSource>,
    ) -> Arc<dyn DataSource> {
        let tap = |layer| Tap {
            rec: Arc::clone(&self.0),
            layer,
            member: index,
        };
        let inner: Arc<dyn DataSource> = Arc::new(TimedSource {
            inner: member,
            tap: tap(Layer::Member),
        });
        Arc::new(TimedSource {
            inner: Arc::new(NetworkedDataSource::reliable(inner, link)),
            tap: tap(Layer::Link),
        })
    }
}

pub struct TimedSource {
    inner: Arc<dyn DataSource>,
    tap: Tap,
}

impl DataSource for TimedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> ProviderCapabilities {
        self.inner.capabilities()
    }

    fn tables(&self) -> Result<Vec<TableInfo>> {
        let _s = self.tap.span("tables");
        self.inner.tables()
    }

    fn create_session(&self) -> Result<Box<dyn Session>> {
        let _s = self.tap.span("create_session");
        Ok(Box::new(TimedSession {
            inner: self.inner.create_session()?,
            tap: self.tap.clone(),
        }))
    }

    fn traffic(&self) -> Option<TrafficSnapshot> {
        self.inner.traffic()
    }

    fn latency(&self) -> Option<LatencySummary> {
        self.inner.latency()
    }

    fn table(&self, name: &str) -> Result<TableInfo> {
        let _s = self.tap.span("table");
        self.inner.table(name)
    }
}

struct TimedSession {
    inner: Box<dyn Session>,
    tap: Tap,
}

impl TimedSession {
    fn rowset(&self, inner: Box<dyn Rowset>) -> Box<dyn Rowset> {
        Box::new(TimedRowset {
            inner,
            tap: self.tap.clone(),
        })
    }
}

impl Session for TimedSession {
    fn open_rowset(&mut self, table: &str) -> Result<Box<dyn Rowset>> {
        let _s = self.tap.span("open_rowset");
        let rs = self.inner.open_rowset(table)?;
        Ok(self.rowset(rs))
    }

    fn create_command(&mut self) -> Result<Box<dyn Command>> {
        let _s = self.tap.span("create_command");
        Ok(Box::new(TimedCommand {
            inner: self.inner.create_command()?,
            tap: self.tap.clone(),
        }))
    }

    fn open_index(
        &mut self,
        table: &str,
        index: &str,
        range: &KeyRange,
    ) -> Result<Box<dyn Rowset>> {
        let _s = self.tap.span("open_index");
        let rs = self.inner.open_index(table, index, range)?;
        Ok(self.rowset(rs))
    }

    fn fetch_by_bookmarks(&mut self, table: &str, bookmarks: &[u64]) -> Result<Vec<Row>> {
        let _s = self.tap.span("fetch_by_bookmarks");
        self.inner.fetch_by_bookmarks(table, bookmarks)
    }

    fn histogram(&mut self, table: &str, column: &str) -> Result<Option<Histogram>> {
        let _s = self.tap.span("histogram");
        self.inner.histogram(table, column)
    }

    fn join_transaction(&mut self, txn: TxnId) -> Result<()> {
        let _s = self.tap.span("join_transaction");
        self.inner.join_transaction(txn)
    }

    fn prepare(&mut self, txn: TxnId) -> Result<()> {
        let _s = self.tap.span("prepare");
        self.inner.prepare(txn)
    }

    fn commit(&mut self, txn: TxnId) -> Result<()> {
        let _s = self.tap.span("commit");
        self.inner.commit(txn)
    }

    fn abort(&mut self, txn: TxnId) -> Result<()> {
        let _s = self.tap.span("abort");
        self.inner.abort(txn)
    }

    fn insert(&mut self, table: &str, rows: &[Row]) -> Result<u64> {
        let _s = self.tap.span("insert");
        self.inner.insert(table, rows)
    }

    fn delete_by_bookmarks(&mut self, table: &str, bookmarks: &[u64]) -> Result<u64> {
        let _s = self.tap.span("delete_by_bookmarks");
        self.inner.delete_by_bookmarks(table, bookmarks)
    }

    fn update_by_bookmarks(
        &mut self,
        table: &str,
        bookmarks: &[u64],
        updates: &[Row],
    ) -> Result<u64> {
        let _s = self.tap.span("update_by_bookmarks");
        self.inner.update_by_bookmarks(table, bookmarks, updates)
    }
}

struct TimedCommand {
    inner: Box<dyn Command>,
    tap: Tap,
}

impl Command for TimedCommand {
    fn set_text(&mut self, text: &str) -> Result<()> {
        let _s = self.tap.span("set_text");
        self.inner.set_text(text)
    }

    fn bind_parameter(&mut self, ordinal: usize, value: Value) -> Result<()> {
        let _s = self.tap.span("bind_parameter");
        self.inner.bind_parameter(ordinal, value)
    }

    fn execute(&mut self) -> Result<CommandResult> {
        let _s = self.tap.span("execute");
        Ok(match self.inner.execute()? {
            CommandResult::Rowset(inner) => CommandResult::Rowset(Box::new(TimedRowset {
                inner,
                tap: self.tap.clone(),
            })),
            count => count,
        })
    }
}

struct TimedRowset {
    inner: Box<dyn Rowset>,
    tap: Tap,
}

impl Rowset for TimedRowset {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next(&mut self) -> Result<Option<Row>> {
        let _s = self.tap.span("next");
        self.inner.next()
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        let _s = self.tap.span("next_batch");
        self.inner.next_batch(max)
    }

    fn size_hint(&self) -> Option<usize> {
        self.inner.size_hint()
    }
}

/// Pulls, as opposed to calls that open or change something.
pub fn is_pull(name: &str) -> bool {
    matches!(name, "next" | "next_batch")
}

/// One statement's time split by layer, in nanoseconds. `head_self` is the
/// statement span minus its `link` children; `account` is the `link` spans
/// minus their `member` children; `member` is the `member` spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Split {
    pub statement: u64,
    pub head_self: u64,
    pub account: u64,
    pub member: u64,
    pub member_calls: u64,
    pub members_touched: u64,
    pub prepare: u64,
    pub commit: u64,
    pub enlisted: u64,
}

/// Split one statement's spans, checking that every span lies inside its
/// parent and that siblings never overlap, so the parts sum to the whole.
pub fn split(spans: &[Span]) -> std::result::Result<Split, String> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate().skip(1) {
        let p = s.parent.ok_or("span without a parent")?;
        let parent = &spans[p];
        if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            return Err(format!(
                "{}.{} escapes its parent {}.{}",
                s.layer.name(),
                s.name,
                parent.layer.name(),
                parent.name
            ));
        }
        children[p].push(i);
    }
    for kids in &children {
        for w in kids.windows(2) {
            if spans[w[1]].start_ns < spans[w[0]].end_ns {
                return Err("sibling spans overlap".into());
            }
        }
    }
    let child_ns = |i: usize| children[i].iter().map(|&c| spans[c].ns()).sum::<u64>();
    let mut out = Split {
        statement: spans[0].ns(),
        head_self: spans[0].ns() - child_ns(0),
        ..Split::default()
    };
    let mut touched = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.layer {
            Layer::Statement => {}
            Layer::Link if s.parent == Some(0) => {
                out.account += s.ns() - child_ns(i);
                if !touched.contains(&s.member) {
                    touched.push(s.member);
                }
                match s.name {
                    "prepare" => out.prepare += s.ns(),
                    "commit" => out.commit += s.ns(),
                    "join_transaction" => out.enlisted += 1,
                    _ => {}
                }
            }
            Layer::Member if spans[s.parent.expect("checked")].layer == Layer::Link => {
                out.member += s.ns();
                if !is_pull(s.name) {
                    out.member_calls += 1;
                }
            }
            _ => return Err(format!("{}.{} nested unexpectedly", s.layer.name(), s.name)),
        }
    }
    out.members_touched = touched.len() as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{pinned_engine, Plain};
    use crate::run::traffic;
    use crate::stats::Op;
    use crate::workloads::{self, Bench, Check, Kind, Stmt};
    use dhqp::EngineDataSource;
    use dhqp_netsim::NetworkConfig;
    use dhqp_oledb::RowsetExt;
    use dhqp_workload::accounts::create_account_partition;

    /// Run `stmts` on the plain and the traced fixture in lockstep: same
    /// plans, same per-statement wire bytes, round trips and rows, same
    /// answers, and a traced split that sums to the statement.
    fn assert_equivalent(kind: Kind, stmts: impl Fn(&Bench) -> Vec<Stmt>) {
        let rec = Recorder::new();
        let plain = workloads::build(kind, 9, &Plain).unwrap();
        let traced = workloads::build(kind, 9, &Traced(Arc::clone(&rec))).unwrap();
        for stmt in stmts(&plain) {
            let (head_a, head_b) = (&plain.fx.head, &traced.fx.head);
            if stmt.op == Op::Read {
                let a = head_a
                    .explain_with_params(&stmt.sql, stmt.params.clone())
                    .unwrap();
                let b = head_b
                    .explain_with_params(&stmt.sql, stmt.params.clone())
                    .unwrap();
                assert_eq!(a.plan_text, b.plan_text, "{}", stmt.sql);
                assert_eq!((a.est_rows, a.est_cost), (b.est_rows, b.est_cost));
            }
            let before = traffic(&plain);
            let ra = head_a
                .execute_with_params(&stmt.sql, stmt.params.clone())
                .unwrap();
            let da = traffic(&plain).since(&before);

            let before = traffic(&traced);
            rec.begin_statement();
            let t0 = Instant::now();
            let rb = head_b
                .execute_with_params(&stmt.sql, stmt.params.clone())
                .unwrap();
            let spans = rec.end_statement(t0, Instant::now());
            let db = traffic(&traced).since(&before);

            assert_eq!(da, db, "traffic of {}", stmt.sql);
            assert_eq!(ra, rb, "answer of {}", stmt.sql);
            let s = split(&spans).unwrap();
            assert_eq!(s.head_self + s.account + s.member, s.statement);
            assert_eq!(spans.len() > 1, db.requests > 0, "{}", stmt.sql);
        }
    }

    #[test]
    fn forwarders_change_no_plan_traffic_or_answer_on_tpch_templates() {
        assert_equivalent(Kind::AdhocCompile, |bench| {
            let read = |sql: &str, name: &str, v: Value| Stmt {
                class: "t",
                op: Op::Read,
                sql: sql.into(),
                params: [(name.to_string(), v)].into_iter().collect(),
                check: Check::Reference(0),
                closes_pair: false,
            };
            let mut stmts = vec![
                read(workloads::Q1, "q", Value::Int(30)),
                read(workloads::LOOKUP, "k", Value::Int(7)),
                read(workloads::JOIN, "p", Value::Float(1000.0)),
                read(workloads::SEMI_JOIN, "c", Value::Int(3)),
            ];
            // Adhoc SELECTs, then a write pair (the pool's first is at 10).
            stmts.extend(bench.pool[..14].iter().cloned());
            stmts
        });
    }

    #[test]
    fn forwarders_change_no_plan_traffic_or_answer_on_oltp_templates() {
        assert_equivalent(Kind::OltpMix, |bench| {
            // Reads around one single-id and one two-member update.
            bench.pool[17..41].to_vec()
        });
    }

    #[test]
    fn forwarders_pass_through_metadata_histograms_and_batches() {
        let member = pinned_engine("member", false);
        create_account_partition(member.storage(), "accounts_0", 0, 99, 5).unwrap();
        member.storage().analyze("accounts_0", 8).unwrap();
        let link = NetworkLink::new("m0", NetworkConfig::lan());
        let traced = Traced(Recorder::new()).wrap(
            0,
            link.clone(),
            Arc::new(EngineDataSource::new(member.clone())),
        );
        let direct = NetworkedDataSource::reliable(
            Arc::new(EngineDataSource::new(member)),
            NetworkLink::new("m1", NetworkConfig::lan()),
        );
        assert_eq!(traced.capabilities(), direct.capabilities());
        assert_eq!(traced.name(), direct.name());
        assert_eq!(
            traced.table("accounts_0").unwrap(),
            direct.table("accounts_0").unwrap()
        );

        let mut ts = traced.create_session().unwrap();
        let mut ds = direct.create_session().unwrap();
        let h = ts.histogram("accounts_0", "id").unwrap();
        assert!(h.is_some());
        assert_eq!(h, ds.histogram("accounts_0", "id").unwrap());

        let mut rs = ts.open_rowset("accounts_0").unwrap();
        let drs = ds.open_rowset("accounts_0").unwrap();
        assert_eq!(rs.size_hint(), drs.size_hint());
        let before = link.snapshot();
        let batch = rs.next_batch(8).unwrap().unwrap();
        assert_eq!(batch.len(), 8);
        // One shipped batch, not eight single-row transfers.
        assert_eq!(link.snapshot().batches - before.batches, 1);
        assert_eq!(rs.collect_rows().unwrap().len(), 92);
        assert_eq!(traced.traffic(), Some(link.snapshot()));
        assert_eq!(
            traced.latency().unwrap().p50_us,
            link.latency_summary().p50_us
        );
    }
}

//! The traced run: the per-layer metrics, from bench-owned forwarders,
//! compile replays through the public front-end, binder and optimizer
//! functions, direct storage scans, and the engine's own counters read at
//! statement boundaries. Nothing inside the program is traced.

use crate::fixture::{self, Plain};
use crate::run::{
    closed_loop, print_knobs, stmts_per_s, traffic, warm_up, BenchResult, Metric, NoObserver,
    Observer, Report,
};
use crate::stats::{median, Op};
use crate::trace::{is_pull, split, Recorder, Span, Split, Traced};
use crate::workloads::{self, Bench, Kind, Oracle, Stmt};
use crate::Args;
use dhqp::binder::Binder;
use dhqp::{MetricsSnapshot, QueryResult};
use dhqp_optimizer::Optimizer;
use dhqp_sqlfront::{fingerprint, parse_statement, Statement};
use dhqp_types::Result;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// Statements whose individual spans are written out.
const SPAN_STATEMENTS: u64 = 300;
/// Directory, relative to the working directory, for span files.
const OUT_DIR: &str = ".bench_out";
/// Repetitions of each direct storage scan.
const SCAN_REPS: usize = 5;

/// Per-class sums of the statement split, in nanoseconds.
#[derive(Default)]
struct ClassSums {
    statements: u64,
    statement: u64,
    head_self: u64,
    account: u64,
    member: u64,
}

#[derive(Default)]
struct Tracer {
    rec: Option<Arc<Recorder>>,
    next_id: u64,
    start_metrics: Option<MetricsSnapshot>,
    end_metrics: Option<MetricsSnapshot>,
    traffic_before: dhqp_oledb::TrafficSnapshot,
    /// `(commits, aborts)` of the head's DTC before the statement.
    dtc_before: (u64, u64),
    // Per-statement accumulators.
    stmts: u64,
    head_self_ns: u64,
    account_ns: u64,
    member_ns: u64,
    member_calls: u64,
    members_touched: u64,
    rows: u64,
    batches: u64,
    requests: u64,
    bytes: u64,
    // Writes.
    writes: u64,
    write_rows_shipped: u64,
    write_rows_affected: u64,
    enlisted: u64,
    two_phase: u64,
    prepare_ns: u64,
    commit_ns: u64,
    // Compile replays.
    fingerprint_ns: u64,
    parse_ns: u64,
    selects: u64,
    bind_ns: u64,
    optimize_ns: u64,
    memo_groups: u64,
    memo_exprs: u64,
    rules_fired: u64,
    classes: BTreeMap<&'static str, ClassSums>,
    /// Span-file lines of the first statements.
    kept: Vec<String>,
}

impl Tracer {
    fn rec(&self) -> &Recorder {
        self.rec.as_ref().expect("tracer has a recorder")
    }

    /// Re-run the statement's compile through the public functions the
    /// engine itself calls, timing each stage.
    fn replay(&mut self, bench: &Bench, stmt: &Stmt) -> BenchResult<()> {
        let t = Instant::now();
        let fp = fingerprint(&stmt.sql);
        self.fingerprint_ns += t.elapsed().as_nanos() as u64;
        let text = match &fp {
            Some(fp) if stmt.op == Op::Read => fp.template.as_str(),
            _ => stmt.sql.as_str(),
        };
        let t = Instant::now();
        let parsed = parse_statement(text).map_err(|e| e.to_string())?;
        self.parse_ns += t.elapsed().as_nanos() as u64;
        let Statement::Select(select) = parsed else {
            return Ok(());
        };
        let mut params = stmt.params.clone();
        for (name, value) in fp.iter().flat_map(|fp| fp.params.iter()) {
            params.insert(name.clone(), value.clone());
        }
        let head = &bench.fx.head;
        let t = Instant::now();
        let bound = Binder::new(head, &params)
            .bind_select(&select)
            .map_err(|e| e.to_string())?;
        self.bind_ns += t.elapsed().as_nanos() as u64;
        let mut registry = bound.registry;
        let t = Instant::now();
        let (_, opt) = Optimizer::new(head.optimizer_config())
            .optimize(bound.tree, &mut registry, bound.required)
            .map_err(|e| e.to_string())?;
        self.optimize_ns += t.elapsed().as_nanos() as u64;
        self.selects += 1;
        self.memo_groups += opt.groups as u64;
        self.memo_exprs += opt.exprs as u64;
        self.rules_fired += opt.rules_fired as u64;
        Ok(())
    }
}

impl Observer for Tracer {
    fn before(&mut self, bench: &Bench, _stmt: &Stmt) {
        if self.start_metrics.is_none() {
            self.start_metrics = Some(bench.fx.head.metrics());
        }
        self.traffic_before = traffic(bench);
        self.dtc_before = bench.fx.head.dtc().stats();
        self.rec().begin_statement();
    }

    fn after(
        &mut self,
        bench: &Bench,
        stmt: &Stmt,
        t0: Instant,
        t1: Instant,
        result: &Result<QueryResult>,
    ) -> BenchResult<()> {
        let spans = self.rec().end_statement(t0, t1);
        let s: Split = split(&spans).map_err(|e| format!("{}: {e}", stmt.class))?;
        let shipped = traffic(bench).since(&self.traffic_before);
        let (commits, aborts) = bench.fx.head.dtc().stats();
        let two_phase = commits + aborts > self.dtc_before.0 + self.dtc_before.1;
        if two_phase != (s.enlisted > 0) {
            return Err(format!(
                "{}: the DTC counted {} outcomes but {} members enlisted",
                stmt.class,
                commits + aborts - self.dtc_before.0 - self.dtc_before.1,
                s.enlisted
            ));
        }
        self.stmts += 1;
        self.head_self_ns += s.head_self;
        self.account_ns += s.account;
        self.member_ns += s.member;
        self.member_calls += s.member_calls;
        self.members_touched += s.members_touched;
        self.rows += shipped.rows;
        self.batches += shipped.batches;
        self.requests += shipped.requests;
        self.bytes += shipped.bytes;
        if stmt.op == Op::Write {
            self.writes += 1;
            self.write_rows_shipped += shipped.rows;
            if let Ok(r) = result {
                self.write_rows_affected += r.rows_affected.unwrap_or(0);
            }
            self.enlisted += s.enlisted;
            if two_phase {
                self.two_phase += 1;
                self.prepare_ns += s.prepare;
                self.commit_ns += s.commit;
            }
        }
        let c = self.classes.entry(stmt.class).or_default();
        c.statements += 1;
        c.statement += s.statement;
        c.head_self += s.head_self;
        c.account += s.account;
        c.member += s.member;
        if self.next_id < SPAN_STATEMENTS {
            self.kept
                .extend(span_lines(self.next_id, stmt.class, &spans));
        }
        self.next_id += 1;
        self.replay(bench, stmt)?;
        self.end_metrics = Some(bench.fx.head.metrics());
        Ok(())
    }
}

/// Armed head minus disarmed twin: median read latency over the same
/// reads against the same members, alternating which head goes first.
fn store_events_cost(bench: &Bench, oracle: &mut Oracle) -> BenchResult<f64> {
    let twin = fixture::disarmed_twin(&bench.fx).map_err(|e| e.to_string())?;
    let reads: Vec<&Stmt> = bench.pool.iter().filter(|s| s.op == Op::Read).collect();
    for stmt in reads.iter().take(16) {
        twin.execute_with_params(&stmt.sql, stmt.params.clone())
            .map_err(|e| e.to_string())?;
    }
    let (mut armed, mut disarmed) = (Vec::new(), Vec::new());
    for (j, stmt) in reads.iter().enumerate() {
        let heads = if j % 2 == 0 {
            [(&bench.fx.head, true), (&twin, false)]
        } else {
            [(&twin, false), (&bench.fx.head, true)]
        };
        for (head, is_armed) in heads {
            let params = stmt.params.clone();
            let t = Instant::now();
            let r = head.execute_with_params(&stmt.sql, params);
            let us = t.elapsed().as_secs_f64() * 1e6;
            if !oracle.check(stmt, &r) {
                return Err(format!("twin comparison read failed: {r:?}"));
            }
            if is_armed {
                armed.push(us);
            } else {
                disarmed.push(us);
            }
        }
    }
    Ok(median(&armed) - median(&disarmed))
}

/// `Table::scan_rows` over every member partition table, in ns per row
/// (median over repetitions).
fn scan_ns_per_row(bench: &Bench) -> BenchResult<f64> {
    let mut per_rep = Vec::new();
    for _ in 0..SCAN_REPS {
        let (mut ns, mut rows) = (0u128, 0usize);
        for (i, table) in &bench.fx.tables {
            let storage = bench.fx.members[*i].storage();
            let (dt, n) = storage
                .with_table(table, |t| {
                    let began = Instant::now();
                    let scanned = std::hint::black_box(t.scan_rows());
                    (began.elapsed(), scanned.len())
                })
                .map_err(|e| e.to_string())?;
            ns += dt.as_nanos();
            rows += n;
        }
        per_rep.push(ns as f64 / rows as f64);
    }
    Ok(median(&per_rep))
}

/// One statement's span-file lines. Calls are written one per span; row
/// pulls (`next`, `next_batch`) are folded into one `pulls` line per layer
/// and member, under the nearest enclosing span that is not a pull, since
/// a full-table row location makes 100k of them.
fn span_lines(id: u64, class: &str, spans: &[Span]) -> Vec<String> {
    let member = |m: usize| {
        if m == usize::MAX {
            "null".to_string()
        } else {
            m.to_string()
        }
    };
    let anchor = |mut p: Option<usize>| {
        while let Some(i) = p.filter(|&i| is_pull(spans[i].name)) {
            p = spans[i].parent;
        }
        p.map_or("null".to_string(), |p| p.to_string())
    };
    let mut lines = Vec::new();
    // (anchor, layer, member) -> [pulls, total ns, first start, last end]
    let mut pulls: BTreeMap<(String, &str, usize), [u64; 4]> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if is_pull(s.name) {
            let e = pulls
                .entry((anchor(s.parent), s.layer.name(), s.member))
                .or_insert([0, 0, s.start_ns, s.end_ns]);
            e[0] += 1;
            e[1] += s.ns();
            e[3] = s.end_ns;
            continue;
        }
        lines.push(format!(
            "{{\"type\": \"span\", \"stmt\": {id}, \"class\": \"{class}\", \"span\": {i}, \
             \"layer\": \"{}\", \"member\": {}, \"name\": \"{}\", \"start_ns\": {}, \
             \"end_ns\": {}, \"parent\": {}}}",
            s.layer.name(),
            member(s.member),
            s.name,
            s.start_ns,
            s.end_ns,
            anchor(s.parent)
        ));
    }
    for ((under, layer, m), [count, ns, first, last]) in pulls {
        lines.push(format!(
            "{{\"type\": \"pulls\", \"stmt\": {id}, \"class\": \"{class}\", \
             \"layer\": \"{layer}\", \"member\": {}, \"under\": {under}, \"count\": {count}, \
             \"total_ns\": {ns}, \"first_start_ns\": {first}, \"last_end_ns\": {last}}}",
            member(m)
        ));
    }
    lines
}

fn write_spans(args: &Args, tracer: &Tracer) -> BenchResult<std::path::PathBuf> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    let path = std::path::Path::new(OUT_DIR).join(format!(
        "spans-{}-seed{}.jsonl",
        args.kind.name(),
        args.seed
    ));
    let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
    let mut out = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| e.to_string();
    for line in &tracer.kept {
        writeln!(out, "{line}").map_err(io)?;
    }
    for (class, c) in &tracer.classes {
        writeln!(
            out,
            "{{\"type\": \"class\", \"class\": \"{class}\", \"statements\": {}, \
             \"statement_ns\": {}, \"head_self_ns\": {}, \"netsim_account_ns\": {}, \
             \"member_ns\": {}}}",
            c.statements, c.statement, c.head_self, c.account, c.member
        )
        .map_err(io)?;
    }
    out.flush().map_err(io)?;
    Ok(path)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn traced_run(args: &Args) -> BenchResult<Report> {
    let half = args.seconds / 2;

    // Untraced baseline: the measured program, for `trace.overhead_frac`.
    let bench = workloads::build(args.kind, args.seed, &Plain).map_err(|e| e.to_string())?;
    let mut oracle = Oracle::new(&bench).map_err(|e| e.to_string())?;
    warm_up(&bench, &mut oracle)?;
    let plain = closed_loop(&bench, &mut oracle, half, None, &mut NoObserver)?;
    // Only oltp_mix arms the Query Store and event bus on its head; the
    // other heads are already the disarmed configuration.
    let store_events_us = if args.kind == Kind::OltpMix {
        store_events_cost(&bench, &mut oracle)?
    } else {
        0.0
    };
    let mut correct = plain.failed == 0 && oracle.final_check(&bench).is_ok();
    drop(bench);

    // Traced run over a fresh fixture with the forwarders in place.
    let rec = Recorder::new();
    let bench = workloads::build(args.kind, args.seed, &Traced(Arc::clone(&rec)))
        .map_err(|e| e.to_string())?;
    let mut oracle = Oracle::new(&bench).map_err(|e| e.to_string())?;
    warm_up(&bench, &mut oracle)?;
    let mut tracer = Tracer {
        rec: Some(rec),
        ..Tracer::default()
    };
    let traced = closed_loop(&bench, &mut oracle, half, None, &mut tracer)?;
    if let Err(e) = oracle.final_check(&bench) {
        eprintln!("{e}");
        correct = false;
    }
    correct &= traced.failed == 0;
    print_knobs(&bench.fx.head)?;
    let scan = scan_ns_per_row(&bench)?;
    let path = write_spans(args, &tracer)?;

    let t = &tracer;
    let (m0, m1) = (
        t.start_metrics.as_ref().ok_or("no traced statements")?,
        t.end_metrics.as_ref().ok_or("no traced statements")?,
    );
    let n = t.stmts;
    let us = |ns: u64, count: u64| ratio(ns, count) / 1e3;
    let hits = m1.plan_cache_hits - m0.plan_cache_hits;
    let misses = m1.plan_cache_misses - m0.plan_cache_misses;
    let meta_hits = m1.meta_cache_hits - m0.meta_cache_hits;
    let meta_misses = m1.meta_cache_misses - m0.meta_cache_misses;
    let stats_hits = m1.stats_cache_hits - m0.stats_cache_hits;
    let stats_misses = m1.stats_cache_misses - m0.stats_cache_misses;
    let lan = dhqp_netsim::NetworkConfig::lan();
    let modeled_us =
        t.requests as f64 * lan.latency_us as f64 + t.bytes as f64 * 1e3 / lan.bytes_per_ms as f64;

    println!(
        "workload {} seed {}: {} untraced, {} traced statements; spans in {}",
        args.kind.name(),
        args.seed,
        plain.attempted,
        traced.attempted,
        path.display()
    );
    for (class, c) in &t.classes {
        let parts = c.head_self + c.account + c.member;
        println!(
            "class {class}: {} stmts, statement {:.1} us = head_self {:.1} + netsim_account {:.1} + member {:.1} (sum {:.1} us)",
            c.statements,
            us(c.statement, c.statements),
            us(c.head_self, c.statements),
            us(c.account, c.statements),
            us(c.member, c.statements),
            us(parts, c.statements)
        );
        if parts != c.statement {
            return Err(format!(
                "class {class}: layer times do not sum to the statement time"
            ));
        }
    }

    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("sqlfront.parse_us", us(t.parse_ns, n), "us"),
        metric("sqlfront.fingerprint_us", us(t.fingerprint_ns, n), "us"),
        metric("plan_cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        metric(
            "plan_cache.evictions_per_stmt",
            ratio(m1.plan_cache_evictions - m0.plan_cache_evictions, n),
            "count",
        ),
        metric("binder.bind_us", us(t.bind_ns, t.selects), "us"),
        metric(
            "binder.meta_cache_hit_ratio",
            ratio(meta_hits, meta_hits + meta_misses),
            "ratio",
        ),
        metric(
            "binder.stats_cache_hit_ratio",
            ratio(stats_hits, stats_hits + stats_misses),
            "ratio",
        ),
        metric("optimizer.optimize_us", us(t.optimize_ns, t.selects), "us"),
        metric(
            "optimizer.memo_groups",
            ratio(t.memo_groups, t.selects),
            "count",
        ),
        metric(
            "optimizer.memo_exprs",
            ratio(t.memo_exprs, t.selects),
            "count",
        ),
        metric(
            "optimizer.rules_fired",
            ratio(t.rules_fired, t.selects),
            "count",
        ),
        metric("executor.head_self_us", us(t.head_self_ns, n), "us"),
        metric("observe.store_events_us", store_events_us, "us"),
        metric("remote.member_us", us(t.member_ns, n), "us"),
        metric(
            "remote.member_calls_per_stmt",
            ratio(t.member_calls, n),
            "count",
        ),
        metric("netsim.account_us", us(t.account_ns, n), "us"),
        metric("netsim.rows_shipped_per_stmt", ratio(t.rows, n), "rows"),
        metric(
            "netsim.rows_per_round_trip",
            ratio(t.rows, t.batches),
            "rows",
        ),
        metric(
            "netsim.modeled_wire_us_per_stmt",
            modeled_us / n as f64,
            "us",
        ),
        metric("storage.scan_ns_per_row", scan, "ns"),
        metric(
            "dml.rows_examined_per_row_affected",
            ratio(t.write_rows_shipped, t.write_rows_affected),
            "rows",
        ),
        metric("dtc.prepare_us", us(t.prepare_ns, t.two_phase), "us"),
        metric("dtc.commit_us", us(t.commit_ns, t.two_phase), "us"),
        metric(
            "dtc.participants_per_write",
            ratio(t.enlisted, t.writes),
            "count",
        ),
        metric(
            "federation.members_touched_per_stmt",
            ratio(t.members_touched, n),
            "count",
        ),
        metric(
            "trace.overhead_frac",
            1.0 - stmts_per_s(&traced.whole_pass_latencies(&bench.pool)?)
                / stmts_per_s(&plain.whole_pass_latencies(&bench.pool)?),
            "ratio",
        ),
    ];
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    Ok(Report {
        correct,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
    })
}

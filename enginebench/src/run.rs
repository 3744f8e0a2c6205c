//! The measured (untraced) run: set-up, warm-up, a closed loop over the
//! workload's statement pool, answer checks and the end-to-end metrics.

use crate::calibrate::Speed;
use crate::fixture::{Plain, Wrap};
use crate::stats::{median, Latencies, Op};
use crate::workloads::{self, Bench, Oracle, Stmt};
use crate::Args;
use dhqp::{Engine, QueryResult};
use dhqp_oledb::TrafficSnapshot;
use dhqp_types::Result;
use std::time::{Duration, Instant};

/// Fixture builds per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Loop time between two host-speed samples.
const CALIBRATION_EVERY: Duration = Duration::from_secs(1);
/// Wrong answers echoed to standard error before going quiet.
const SHOWN_FAILURES: u64 = 5;

pub type BenchResult<T> = std::result::Result<T, String>;

/// One metric of the final JSON line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a JSON number");
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Hooks the traced run hangs on the closed loop.
pub trait Observer {
    /// Just before the statement's timer starts.
    fn before(&mut self, _bench: &Bench, _stmt: &Stmt) {}
    /// Just after it stops, before the answer is checked.
    fn after(
        &mut self,
        _bench: &Bench,
        _stmt: &Stmt,
        _t0: Instant,
        _t1: Instant,
        _result: &Result<QueryResult>,
    ) -> BenchResult<()> {
        Ok(())
    }
}

pub struct NoObserver;
impl Observer for NoObserver {}

pub struct LoopStats {
    pub attempted: u64,
    pub failed: u64,
    /// Latency of each execution, by pool position, in microseconds.
    by_stmt: Vec<Vec<f64>>,
    /// Whole passes over the pool: `(passes, statements, traffic)`.
    pub whole_passes: Option<(usize, u64, TrafficSnapshot)>,
    /// Host speed sampled during the loop.
    pub speed: Speed,
}

impl LoopStats {
    /// Latencies of the executions in whole passes, by op type, so every
    /// pool statement weighs the same.
    pub fn whole_pass_latencies(&self, pool: &[Stmt]) -> BenchResult<Latencies> {
        let (passes, ..) = self
            .whole_passes
            .ok_or("the run did not complete one pass of the statement pool")?;
        let mut out = Latencies::default();
        for (stmt, samples) in pool.iter().zip(&self.by_stmt) {
            for us in &samples[..passes] {
                out.record(stmt.op, *us);
            }
        }
        Ok(out)
    }
}

/// Statements per second over a set of latencies.
pub fn stmts_per_s(latencies: &Latencies) -> f64 {
    (latencies.count(Op::Read) + latencies.count(Op::Write)) as f64 / (latencies.total_us() / 1e6)
}

pub fn traffic(bench: &Bench) -> TrafficSnapshot {
    bench
        .fx
        .links
        .iter()
        .fold(TrafficSnapshot::default(), |acc, l| acc + l.snapshot())
}

/// Run the warm-up statements untimed from pool position 0, checking answers.
pub fn warm_up(bench: &Bench, oracle: &mut Oracle) -> BenchResult<()> {
    for stmt in &bench.pool[..bench.warmup] {
        let r = bench
            .fx
            .head
            .execute_with_params(&stmt.sql, stmt.params.clone());
        if !oracle.check(stmt, &r) {
            return Err(format!("warm-up statement failed: {} -> {r:?}", stmt.sql));
        }
    }
    Ok(())
}

/// One client, closed loop: the next statement starts when the previous
/// one has been answered and checked. Starts where warm-up stopped and
/// runs for `budget`, and on past it until one whole pass of the pool is
/// done, or for `limit` statements when one is given.
pub fn closed_loop(
    bench: &Bench,
    oracle: &mut Oracle,
    budget: Duration,
    limit: Option<usize>,
    obs: &mut dyn Observer,
) -> BenchResult<LoopStats> {
    let pool = &bench.pool;
    let mut out = LoopStats {
        attempted: 0,
        failed: 0,
        by_stmt: vec![Vec::new(); pool.len()],
        whole_passes: None,
        speed: Speed::default(),
    };
    let mut next_calibration = Duration::ZERO;
    let start_traffic = traffic(bench);
    let began = Instant::now();
    for i in 0usize.. {
        let at = (bench.warmup + i) % pool.len();
        let stmt = &pool[at];
        if i > 0 && i % pool.len() == 0 {
            let t = traffic(bench).since(&start_traffic);
            out.whole_passes = Some((i / pool.len(), i as u64, t));
        }
        let done = out.whole_passes.is_some() && began.elapsed() >= budget;
        if Some(i) == limit || (done && !stmt.closes_pair) {
            break;
        }
        if began.elapsed() >= next_calibration {
            out.speed.sample();
            next_calibration += CALIBRATION_EVERY;
        }
        let params = stmt.params.clone();
        obs.before(bench, stmt);
        let t0 = Instant::now();
        let result = bench.fx.head.execute_with_params(&stmt.sql, params);
        let t1 = Instant::now();
        obs.after(bench, stmt, t0, t1, &result)?;
        out.by_stmt[at].push((t1 - t0).as_secs_f64() * 1e6);
        out.attempted += 1;
        if !oracle.check(stmt, &result) {
            out.failed += 1;
            if out.failed <= SHOWN_FAILURES {
                eprintln!("wrong answer: {} {:?} -> {result:?}", stmt.sql, stmt.params);
            }
        }
    }
    Ok(out)
}

/// The head's `sys.dm_os_knobs` rows, one `knob` line each.
pub fn print_knobs(head: &Engine) -> BenchResult<()> {
    let r = head
        .query("SELECT name, value, source FROM sys.dm_os_knobs")
        .map_err(|e| e.to_string())?;
    for row in &r.rows {
        println!(
            "knob {} = {} ({})",
            row.get(0).to_sql_literal(),
            row.get(1).to_sql_literal(),
            row.get(2).to_sql_literal()
        );
    }
    Ok(())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Build the workload `SETUPS` times, keeping the last build; the host
/// speed is sampled after each build.
fn timed_setups(args: &Args, wrap: &dyn Wrap) -> BenchResult<(Bench, f64, Speed)> {
    let mut times = Vec::new();
    let mut speed = Speed::default();
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let t = Instant::now();
        bench = Some(workloads::build(args.kind, args.seed, wrap).map_err(|e| e.to_string())?);
        times.push(t.elapsed().as_secs_f64());
        speed.sample();
    }
    Ok((bench.expect("SETUPS > 0"), median(&times), speed))
}

pub fn measured_run(args: &Args) -> BenchResult<Report> {
    let (bench, setup_raw, setup_speed) = timed_setups(args, &Plain)?;
    let mut oracle = Oracle::new(&bench).map_err(|e| e.to_string())?;
    warm_up(&bench, &mut oracle)?;
    let stats = closed_loop(&bench, &mut oracle, args.seconds, None, &mut NoObserver)?;
    let final_ok = oracle.final_check(&bench);
    if let Err(e) = &final_ok {
        eprintln!("{e}");
    }
    print_knobs(&bench.fx.head)?;
    let lat = &stats.whole_pass_latencies(&bench.pool)?;
    let (passes, pass_stmts, pass_traffic) = stats.whole_passes.expect("checked above");
    let per_stmt = |v: u64| v as f64 / pass_stmts as f64;
    println!(
        "workload {} seed {}: {} statements, {} failed, failed_stmt_frac {}; \
         {passes} whole passes, timings from {} reads and {} writes",
        args.kind.name(),
        args.seed,
        stats.attempted,
        stats.failed,
        stats.failed as f64 / stats.attempted as f64,
        lat.count(Op::Read),
        lat.count(Op::Write),
    );
    let (setup_slow, loop_slow) = (setup_speed.slowdown(), stats.speed.slowdown());
    println!(
        "host slowdown {setup_slow} during set-up, {loop_slow} during the loop \
         (kernel medians {:?} ms)",
        stats.speed.medians()
    );
    let metric = |name, value, unit| Metric { name, value, unit };
    // Raw times, before scaling to the reference host speed.
    let timed = [
        metric("setup_s", setup_raw, "s"),
        metric("stmts_per_s", stmts_per_s(lat), "1/s"),
        metric("read_p50_us", lat.percentile(Op::Read, 0.5)?, "us"),
        metric("read_p90_us", lat.percentile(Op::Read, 0.9)?, "us"),
        metric("write_p50_us", lat.percentile(Op::Write, 0.5)?, "us"),
        metric("write_p90_us", lat.percentile(Op::Write, 0.9)?, "us"),
    ];
    let mut metrics = Vec::new();
    for m in timed {
        println!("raw {} {} {}", m.name, m.value, m.unit);
        let value = match m.name {
            "setup_s" => m.value / setup_slow,
            "stmts_per_s" => m.value * loop_slow,
            _ => m.value / loop_slow,
        };
        metrics.push(metric(m.name, value, m.unit));
    }
    metrics.push(metric(
        "wire_bytes_per_stmt",
        per_stmt(pass_traffic.bytes),
        "B",
    ));
    metrics.push(metric(
        "round_trips_per_stmt",
        per_stmt(pass_traffic.requests + pass_traffic.batches),
        "count",
    ));
    metrics.push(metric("peak_rss_mb", peak_rss_mb()?, "MiB"));
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    Ok(Report {
        correct: stats.failed == 0 && final_ok.is_ok(),
        attempted: stats.attempted,
        failed: stats.failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Kind;

    /// Exact counts over one pass of the pool, after warm-up.
    fn one_pass(kind: Kind, seed: u64) -> (usize, u64, TrafficSnapshot) {
        let bench = workloads::build(kind, seed, &Plain).unwrap();
        let mut oracle = Oracle::new(&bench).unwrap();
        warm_up(&bench, &mut oracle).unwrap();
        let limit = bench.pool.len() + 1;
        let stats = closed_loop(
            &bench,
            &mut oracle,
            Duration::MAX,
            Some(limit),
            &mut NoObserver,
        )
        .unwrap();
        assert_eq!(stats.failed, 0);
        stats.whole_passes.expect("one whole pass")
    }

    #[test]
    fn exact_counts_repeat_for_a_seed_and_change_with_it() {
        let a = one_pass(Kind::AdhocCompile, 5);
        let b = one_pass(Kind::AdhocCompile, 5);
        assert_eq!(a, b);
        let c = one_pass(Kind::AdhocCompile, 6);
        assert_eq!(a.1, c.1);
        assert_ne!(a.2, c.2);
    }

    #[test]
    fn json_line_has_the_result_keys_and_full_precision() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.123456789012,
                unit: "s",
            }],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}}}"
        );
    }
}

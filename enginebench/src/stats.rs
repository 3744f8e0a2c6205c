//! Latency bookkeeping. Reads and writes live in separate sample sets, so
//! no percentile can blend the two, and a tail percentile is only reported
//! when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples required strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read,
    Write,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Read => "read",
            Op::Write => "write",
        }
    }
}

/// Per-op-type statement latencies, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    reads: Vec<f64>,
    writes: Vec<f64>,
}

impl Latencies {
    pub fn record(&mut self, op: Op, us: f64) {
        match op {
            Op::Read => self.reads.push(us),
            Op::Write => self.writes.push(us),
        }
    }

    pub fn count(&self, op: Op) -> usize {
        self.of(op).len()
    }

    /// Sum of every recorded latency, both op types.
    pub fn total_us(&self) -> f64 {
        self.reads.iter().chain(&self.writes).sum()
    }

    fn of(&self, op: Op) -> &[f64] {
        match op {
            Op::Read => &self.reads,
            Op::Write => &self.writes,
        }
    }

    /// Nearest-rank percentile `q` (0 < q < 1) of one op type.
    pub fn percentile(&self, op: Op, q: f64) -> Result<f64, String> {
        let mut sorted = self.of(op).to_vec();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, q).map_err(|e| format!("{} {e}", op.name()))
    }
}

/// Nearest-rank percentile of an ascending slice; an error unless at least
/// [`MIN_BEYOND`] samples lie beyond the chosen rank.
pub fn percentile(sorted: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "percentile {q} out of (0, 1)");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{}: {n} samples leave {beyond} beyond the percentile, need {MIN_BEYOND}",
            q * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_and_writes_never_blend() {
        let mut l = Latencies::default();
        for i in 0..200 {
            l.record(Op::Read, 10.0 + (i % 7) as f64);
        }
        for i in 0..200 {
            l.record(Op::Write, 20_000.0 + i as f64);
        }
        // Read tails stay in the read range even with slow writes present.
        assert!(l.percentile(Op::Read, 0.9).unwrap() <= 16.0);
        assert!(l.percentile(Op::Write, 0.5).unwrap() >= 20_000.0);
        assert_eq!(l.count(Op::Read), 200);
        assert_eq!(l.count(Op::Write), 200);
    }

    #[test]
    fn sparse_tail_is_an_error() {
        // 99 samples: p90 is rank 90, 9 beyond it.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&v, 0.9).is_err());
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9).unwrap(), 90.0);
        assert_eq!(percentile(&v, 0.5).unwrap(), 50.0);
        assert!(percentile(&[], 0.5).is_err());
        let mut l = Latencies::default();
        l.record(Op::Write, 1.0);
        assert!(l.percentile(Op::Write, 0.5).is_err());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

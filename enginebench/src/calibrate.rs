//! Host-speed calibration. On a shared host the same binary runs a fifth
//! slower or faster from one minute to the next, and every engine time
//! moves with it. Three fixed kernels, independent of the engine, are
//! timed alongside the workload; their slowdown against reference times
//! scales the run's times back to the reference host speed.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// Row-like heap allocations, hashing, a random walk and a sort.
pub fn memory() -> Duration {
    let began = Instant::now();
    let n = 50_000u64;
    let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
    let rows: Vec<Vec<u64>> = (0..n).map(|i| vec![i, next() % 1000, next()]).collect();
    let mut index: HashMap<u64, usize> = HashMap::with_capacity(n as usize);
    for (i, r) in rows.iter().enumerate() {
        index.insert(r[2], i);
    }
    let mut acc = 0u64;
    let mut at = 0usize;
    for _ in 0..n {
        let r = &rows[at];
        acc = acc.wrapping_add(r[1]);
        at = index[&r[2]].wrapping_mul(31).wrapping_add(r[1] as usize) % rows.len();
    }
    let mut keys: Vec<u64> = rows.iter().map(|r| r[2] ^ acc).collect();
    keys.sort_unstable();
    black_box((acc, keys));
    began.elapsed()
}

#[derive(Clone, Copy)]
enum Op {
    Push(i64),
    Add,
    Mul,
    Lt,
    JumpIfZero(usize),
    Dup,
    Pop,
}

/// A branchy stack-machine interpreter: the shape of expression
/// evaluation and operator dispatch.
pub fn interpreter() -> Duration {
    let began = Instant::now();
    let mut next = xorshift(0x2545_f491_4f6c_dd1d);
    let program: Vec<Op> = (0..64)
        .map(|i| match next() % 7 {
            0 => Op::Push((next() % 100) as i64),
            1 => Op::Add,
            2 => Op::Mul,
            3 => Op::Lt,
            4 => Op::JumpIfZero((i + 1 + (next() % 3) as usize).min(63)),
            5 => Op::Dup,
            _ => Op::Pop,
        })
        .collect();
    let mut total = 0i64;
    let mut stack: Vec<i64> = Vec::with_capacity(256);
    for round in 0..6_000i64 {
        stack.clear();
        stack.push(round);
        let mut pc = 0;
        while pc < program.len() {
            let top = |s: &mut Vec<i64>| s.pop().unwrap_or(round);
            match program[pc] {
                Op::Push(v) => stack.push(v),
                Op::Add => {
                    let (a, b) = (top(&mut stack), top(&mut stack));
                    stack.push(a.wrapping_add(b));
                }
                Op::Mul => {
                    let (a, b) = (top(&mut stack), top(&mut stack));
                    stack.push(a.wrapping_mul(b) % 1_000_003);
                }
                Op::Lt => {
                    let (a, b) = (top(&mut stack), top(&mut stack));
                    stack.push((a < b) as i64);
                }
                Op::JumpIfZero(to) => {
                    if top(&mut stack) == 0 {
                        pc = to;
                        continue;
                    }
                }
                Op::Dup => {
                    let v = *stack.last().unwrap_or(&round);
                    stack.push(v);
                }
                Op::Pop => {
                    stack.pop();
                }
            }
            pc += 1;
        }
        total = total.wrapping_add(stack.iter().sum::<i64>());
    }
    black_box(total);
    began.elapsed()
}

/// Dependent loads over a 16 MiB permutation plus allocation churn of
/// variably sized strings: the cache- and allocator-bound side of the
/// engine.
pub fn large() -> Duration {
    thread_local! {
        static CHAIN: Vec<u32> = {
            let n = 1usize << 22;
            let mut next = xorshift(0x5851_f42d_4c95_7f2d);
            // Sattolo's algorithm: one cycle through every slot.
            let mut p: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                let j = (next() % i as u64) as usize;
                p.swap(i, j);
            }
            p
        };
    }
    let began = Instant::now();
    let end = CHAIN.with(|chain| {
        let mut at = 0u32;
        for _ in 0..150_000 {
            at = chain[at as usize];
        }
        at
    });
    let mut next = xorshift(0x1405_7b7e_f767_814f ^ end as u64);
    let mut kept: Vec<String> = Vec::with_capacity(1024);
    for i in 0..60_000u64 {
        let s = "x".repeat(16 + (next() % 240) as usize);
        if i % 7 == 0 {
            kept.push(s);
        }
        if kept.len() == 1024 {
            kept.clear();
        }
    }
    black_box((end, kept.len()));
    began.elapsed()
}

/// Kernel times, in milliseconds, at the reference speed: medians of
/// [`memory`], [`interpreter`] and [`large`] on a quiet 2-vCPU Xeon host
/// at 2.1 GHz.
const REFERENCE_MS: [f64; 3] = [9.5, 1.35, 27.0];

/// Kernel samples taken during one phase of a run.
#[derive(Default)]
pub struct Speed {
    samples: [Vec<f64>; 3],
}

impl Speed {
    /// Time each kernel once.
    pub fn sample(&mut self) {
        for (i, kernel) in [memory, interpreter, large].iter().enumerate() {
            self.samples[i].push(kernel().as_secs_f64() * 1e3);
        }
    }

    /// Median time of each kernel, in milliseconds.
    pub fn medians(&self) -> [f64; 3] {
        self.samples.each_ref().map(|s| crate::stats::median(s))
    }

    /// How much slower than the reference the host ran: the geometric
    /// mean of the kernels' median slowdowns. Divide a time by it, or
    /// multiply a rate, to state it at the reference speed.
    pub fn slowdown(&self) -> f64 {
        let m = self.medians();
        let log: f64 = m.iter().zip(REFERENCE_MS).map(|(t, r)| (t / r).ln()).sum();
        (log / 3.0).exp()
    }
}

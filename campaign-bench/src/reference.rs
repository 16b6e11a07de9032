//! The host-speed reference: a miniature campaign written out in this
//! file, timed before every pass so campaign times can be reported
//! relative to it.
//!
//! On a shared cloud VM, other tenants slow everything the benchmark runs
//! for stretches of seconds to minutes, by up to 2×. The reference does
//! the same kinds of work a campaign does — tabular Q-learning steps,
//! hash-map memo lookups shared across runs, and interpreting a register
//! program for every new design — so it slows down with the campaigns,
//! and the ratio keeps what the code under test changes. It depends on
//! nothing outside this file and must not change: every recorded
//! `campaign_rel` is in units of it.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Runs per reference, each with its own memo and Q-table.
const RUNS: u64 = 8;
/// Agent steps per run.
const STEPS: u32 = 800;
/// Instructions in the interpreted program.
const PROGRAM_LEN: usize = 600;
/// Registers the program reads and writes.
const REGISTERS: usize = 128;
/// Actions per state: two operator moves and four variable-bit flips.
const ACTIONS: u8 = 6;

/// A xorshift64 generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Reference timings a [`Reference`] smooths over.
const WINDOW: usize = 5;

/// Times the reference before each pass. It reports the median of the
/// last [`WINDOW`] timings, so the jitter of one short timing stays out of
/// the ratios while a shift in the host's speed shows within a few passes.
#[derive(Default)]
pub struct Reference {
    recent: VecDeque<f64>,
}

impl Reference {
    /// Runs the reference once; returns the smoothed time in seconds.
    pub fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(run());
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(t0.elapsed().as_secs_f64());
        crate::median(&mut self.recent.iter().copied().collect::<Vec<_>>())
    }
}

/// The miniature campaign; returns a checksum so no work is optimised
/// away.
fn run() -> f64 {
    let program: Vec<(u8, usize, usize, usize)> = (0..PROGRAM_LEN)
        .map(|i| {
            let r = |k: usize| (i * k + k / 2) % REGISTERS;
            ((i % 4) as u8, r(7), r(13), r(3))
        })
        .collect();
    let mut shared: HashMap<u32, [f64; 4]> = HashMap::new();
    let mut checksum = 0.0;
    for run in 0..RUNS {
        let mut rng = Rng(0x9E37_79B9 ^ (run + 1).wrapping_mul(0x51_7CC1));
        let mut memo: HashMap<u32, [f64; 4]> = HashMap::new();
        let mut q: HashMap<(u32, u8), f64> = HashMap::new();
        let value = |q: &HashMap<(u32, u8), f64>, s: u32, a: u8| *q.get(&(s, a)).unwrap_or(&0.0);
        let (mut state, mut epsilon) = (0u32, 0.3);
        for _ in 0..STEPS {
            let action = if (rng.next() % 1000) as f64 / 1000.0 < epsilon {
                (rng.next() % u64::from(ACTIONS)) as u8
            } else {
                (0..ACTIONS)
                    .max_by(|&a, &b| value(&q, state, a).total_cmp(&value(&q, state, b)))
                    .expect("at least one action")
            };
            epsilon *= 0.995;
            let next = match action {
                0 => (state + 1) % 6 + state / 6 * 6,
                1 => (state + 6) % 36 + state / 36 * 36,
                a => state ^ (1 << (u32::from(a) + 4)),
            } & 0x3FF;
            let metrics = match memo.get(&next).or_else(|| shared.get(&next)) {
                Some(m) => *m,
                None => {
                    let m = interpret(&program, next);
                    shared.insert(next, m);
                    m
                }
            };
            memo.insert(next, metrics);
            let reward = if metrics[2] < 128.0 { 1.0 } else { -1.0 };
            let best = (0..ACTIONS)
                .map(|a| value(&q, next, a))
                .fold(f64::MIN, f64::max);
            let entry = q.entry((state, action)).or_insert(0.0);
            *entry += 0.5 * (reward + 0.95 * best - *entry);
            checksum += *entry;
            state = next;
        }
    }
    checksum
}

/// Scores one design by running the register program on inputs derived
/// from it.
fn interpret(program: &[(u8, usize, usize, usize)], design: u32) -> [f64; 4] {
    let mut regs = [0i64; REGISTERS];
    for (k, r) in regs.iter_mut().enumerate() {
        *r = (i64::from(design) + 3) * (k as i64 + 1);
    }
    for &(op, a, b, d) in program {
        let (a, b) = (regs[a], regs[b]);
        regs[d] = match op {
            0 => a.wrapping_add(b),
            1 if design & 1 == 1 => a.wrapping_mul(b) >> 4,
            1 => a.wrapping_mul(b),
            2 => a ^ b,
            _ => a.wrapping_sub(b) >> 1,
        };
    }
    [
        regs[0] as f64,
        (regs[1] & 0xFFFF) as f64,
        (regs[2] & 0xFF) as f64,
        f64::from(design),
    ]
}

//! The reference kernel that end-to-end times are expressed in.
//!
//! A shared host changes speed by up to half over tens of seconds, for
//! every process on it alike: the same `bagcons check` takes 130 ms in
//! one minute and 200 ms in the next. Ten runs of a workload spread over
//! several such phases, so raw wall times of the same code disagree by
//! more than any useful regression bound. A fixed kernel timed beside
//! the operations slows down with them. Over 30-second windows of four
//! noisy minutes on a 2-vCPU VM, `acyclic_cli`'s raw medians spread by
//! 21–24% (quartile distance over median) and their ratios to this
//! kernel by 6–8%; `cyclic_cli`'s by 12–13% and 2–4%. The slowdowns sit
//! in the shared cache and memory: a kernel of register arithmetic alone
//! kept its speed while the program lost a fifth of its own.
//!
//! End-to-end latencies are therefore reported in *probes*: one probe is
//! the wall time of one kernel run, the median of [`REPS`] runs taken at
//! most [`REFRESH`] before the operation starts. The kernel uses nothing
//! of the program, so a change to the program moves the ratio exactly as
//! it moves the operation's time. Raw millisecond medians and the
//! probe's own median go to the provenance line.

use crate::stats;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Keys the kernel sorts and hashes: 1 MiB of them, beyond the private
/// caches, so that it waits on the shared cache and memory as the
/// program's sorts and hash tables do.
const KEYS: usize = 1 << 17;
/// Kernel repetitions per probe; the probe is their median, so one
/// preemption does not skew it.
const REPS: usize = 5;
/// How old a probe may get before an operation needs a fresh one.
const REFRESH: Duration = Duration::from_millis(100);

/// The kernel's buffers, allocated once so that a probe times no page
/// faults.
struct Kernel {
    keys: Vec<u64>,
    table: Vec<u32>,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            keys: vec![0; KEYS],
            table: vec![0; KEYS / 4],
        }
    }

    /// A fixed amount of sorting and hashing over pseudo-random keys.
    fn run(&mut self) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for k in &mut self.keys {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *k = x;
        }
        self.keys.sort_unstable();
        self.table.fill(0);
        let slots = self.table.len();
        for &k in &self.keys {
            let slot = (k.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as usize % slots;
            self.table[slot] = self.table[slot].wrapping_add(k as u32);
        }
        self.table
            .iter()
            .fold(0u64, |acc, &t| acc.rotate_left(5) ^ u64::from(t))
    }

    /// One probe in ms: the median wall time of [`REPS`] runs.
    fn probe_ms(&mut self) -> f64 {
        let times: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                black_box(self.run());
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        stats::median(&times).expect("REPS > 0")
    }
}

/// The latest probe, refreshed when it is older than [`REFRESH`], and
/// every probe taken, for the provenance line.
pub struct Calib {
    kernel: Kernel,
    last_ms: f64,
    at: Instant,
    taken: Vec<f64>,
}

impl Calib {
    /// Takes the first probe.
    pub fn new() -> Calib {
        let mut kernel = Kernel::new();
        // The first run faults the buffers in; it is not timed.
        black_box(kernel.run());
        let last_ms = kernel.probe_ms();
        Calib {
            kernel,
            last_ms,
            at: Instant::now(),
            taken: vec![last_ms],
        }
    }

    /// The probe for an operation about to start: the latest one, or a
    /// fresh one if that is older than [`REFRESH`].
    pub fn probe(&mut self) -> f64 {
        if self.at.elapsed() >= REFRESH {
            self.refresh();
        }
        self.last_ms
    }

    /// The latest probe in ms.
    pub fn last_ms(&self) -> f64 {
        self.last_ms
    }

    /// Takes a fresh probe now.
    pub fn refresh(&mut self) -> f64 {
        self.last_ms = self.kernel.probe_ms();
        self.at = Instant::now();
        self.taken.push(self.last_ms);
        self.last_ms
    }

    /// The median probe of the run, in ms.
    pub fn median_ms(&self) -> f64 {
        stats::median(&self.taken).expect("a probe is taken at creation")
    }
}

/// Wall times of one kind of operation, each also in probes.
#[derive(Default)]
pub struct Timed {
    ms: Vec<f64>,
    in_probes: Vec<f64>,
}

impl Timed {
    /// An operation of `ms`, with the probe taken for it.
    pub fn push(&mut self, ms: f64, probe_ms: f64) {
        self.ms.push(ms);
        self.in_probes.push(ms / probe_ms);
    }

    /// One operation made of all of `parts`' operations.
    pub fn push_total(&mut self, parts: &Timed) {
        self.ms.push(parts.ms.iter().sum());
        self.in_probes.push(parts.in_probes.iter().sum());
    }

    pub fn extend(&mut self, other: Timed) {
        self.ms.extend(other.ms);
        self.in_probes.extend(other.in_probes);
    }

    pub fn clear(&mut self) {
        self.ms.clear();
        self.in_probes.clear();
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// The wall times in ms.
    pub fn ms(&self) -> &[f64] {
        &self.ms
    }

    /// The wall times in probes.
    pub fn in_probes(&self) -> &[f64] {
        &self.in_probes
    }
}

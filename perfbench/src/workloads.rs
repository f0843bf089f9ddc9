//! The benchmark's workloads.  All run S-HS with 128 B transactions.

use smp_replica::{ExperimentConfig, Protocol};
use smp_types::{SimTime, MICROS_PER_MS, MICROS_PER_SEC};
use smp_workload::LoadDistribution;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Runtime {
    Sim,
    Socket,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub runtime: Runtime,
    /// Nominal offered rate, tx/s.
    pub nominal_tps: f64,
    /// Offered-rate ladder for `capacity_ktps`, ascending, tx/s.
    pub ladder: &'static [f64],
    /// p99 commit-latency limit for a ladder rung to pass.
    pub limit: SimTime,
    /// Warm-up before the measurement window.
    pub warmup: SimTime,
    /// Window of each ladder rung other than the nominal one.
    pub rung_window: SimTime,
    /// Time after the window for its transactions to commit.
    pub drain: SimTime,
    n: usize,
    wan: bool,
    zipf: bool,
    dlb_d: usize,
    byzantine: usize,
    batch_bytes: usize,
}

pub const ALL: &[Workload] = &[
    Workload {
        name: "sim-lan-n64",
        runtime: Runtime::Sim,
        nominal_tps: 50_000.0,
        ladder: &[50_000.0, 100_000.0, 200_000.0],
        limit: 1_000 * MICROS_PER_MS,
        warmup: 500 * MICROS_PER_MS,
        rung_window: MICROS_PER_SEC,
        drain: 500 * MICROS_PER_MS,
        n: 64,
        wan: false,
        zipf: false,
        dlb_d: 1,
        byzantine: 0,
        batch_bytes: 128 * 1024,
    },
    Workload {
        name: "sim-wan-n64-byz",
        runtime: Runtime::Sim,
        nominal_tps: 20_000.0,
        ladder: &[20_000.0, 40_000.0],
        limit: 5_000 * MICROS_PER_MS,
        warmup: MICROS_PER_SEC,
        rung_window: MICROS_PER_SEC,
        drain: 5_000 * MICROS_PER_MS,
        n: 64,
        wan: true,
        zipf: true,
        dlb_d: 3,
        byzantine: 10,
        batch_bytes: 128 * 1024,
    },
    Workload {
        name: "sock-lan-n4",
        runtime: Runtime::Socket,
        nominal_tps: 50_000.0,
        ladder: &[100_000.0, 200_000.0, 400_000.0],
        limit: 100 * MICROS_PER_MS,
        warmup: 500 * MICROS_PER_MS,
        rung_window: 2 * MICROS_PER_SEC,
        drain: 500 * MICROS_PER_MS,
        n: 4,
        wan: false,
        zipf: false,
        dlb_d: 1,
        byzantine: 0,
        batch_bytes: 16 * 1024,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    /// The deployment at offered rate `rate_tps`.
    pub fn config(&self, rate_tps: f64, seed: u64) -> ExperimentConfig {
        let mut c = ExperimentConfig::new(Protocol::StratusHotStuff, self.n, rate_tps)
            .with_batch_size(self.batch_bytes);
        if self.wan {
            c = c.wan();
        }
        if self.zipf {
            c = c.with_distribution(LoadDistribution::zipf1());
        }
        if self.dlb_d > 1 {
            c = c.with_dlb_d(self.dlb_d);
        }
        if self.byzantine > 0 {
            // They serve the leader plus f + 1 others.
            let f = (self.n - 1) / 3;
            c = c.with_byzantine(self.byzantine, f + 1);
        }
        c.seed = seed;
        c
    }
}

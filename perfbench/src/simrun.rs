//! One simulation of a workload: assembly, run, accounting.

use crate::account::{self, Observed, Outcome};
use crate::assembly::{self, Node};
use crate::procfs;
use crate::workloads::Workload;
use simnet::{NetConfig, Simulation};
use smp_replica::ExperimentConfig;
use smp_types::SimTime;
use std::time::Instant;

pub struct SimRun {
    pub config: ExperimentConfig,
    pub sim: Simulation<Node>,
    pub outcome: Outcome,
    /// Replica assembly plus `Simulation::new`, wall seconds.
    pub setup_s: f64,
    /// `run_until` wall seconds.
    pub run_s: f64,
    /// Process CPU seconds from assembly to accounted result.
    pub cpu_s: f64,
}

/// Assembles the wrapped deployment and the simulator.
pub fn assemble(config: &ExperimentConfig, trace: bool, origin: Instant) -> Simulation<Node> {
    let nodes = assembly::nodes(config, trace, origin);
    Simulation::new(nodes, NetConfig::from_preset(config.network), config.seed)
}

/// Runs `w` at `rate` for a `window` after its warm-up, then drains.
pub fn run(w: &Workload, rate: f64, seed: u64, window: SimTime, trace: bool) -> SimRun {
    let config = w.config(rate, seed);
    let cpu0 = procfs::cpu_seconds();
    let t0 = Instant::now();
    let mut sim = assemble(&config, trace, t0);
    let setup_s = t0.elapsed().as_secs_f64();
    let (w0, w1) = (w.warmup, w.warmup + window);
    let end = w1 + w.drain;
    let t1 = Instant::now();
    sim.run_until(end);
    let run_s = t1.elapsed().as_secs_f64();
    let outcome = account_sim(&config, &sim, (w0, w1), end);
    let cpu_s = procfs::cpu_seconds() - cpu0;
    SimRun {
        config,
        sim,
        outcome,
        setup_s,
        run_s,
        cpu_s,
    }
}

fn account_sim(
    config: &ExperimentConfig,
    sim: &Simulation<Node>,
    window: (SimTime, SimTime),
    run_end: SimTime,
) -> Outcome {
    let honest = assembly::honest(config);
    let logs = honest
        .iter()
        .map(|&i| crate::probe::CommitLog::commit_log(sim.node(i).inner()))
        .collect();
    account::account(&Observed {
        logs,
        commit_times: &sim.node(0).rec.commit_times,
        recorders: sim.nodes().iter().map(|n| &n.rec).collect(),
        clock_offset: vec![0; config.n],
        rates: config.workload.rates(config.n),
        window,
        run_end,
    })
}

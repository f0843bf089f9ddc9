//! The benchmark's own assembly must commit exactly what the library's
//! runners commit, and tracing must not change a commit.  Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml` (the
//! n = 64 simulations are slow unoptimised).

use crate::probe::CommitLog;
use crate::simrun;
use crate::workloads::{self, Workload};
use smp_replica::{run, sim_commit_logs, ExperimentConfig};
use smp_types::{TxId, MICROS_PER_MS};
use std::time::Instant;

/// A short horizon that still commits on the LAN workloads.
const HORIZON_US: u64 = 1_200 * MICROS_PER_MS;

fn short(w: &Workload) -> ExperimentConfig {
    w.config(w.nominal_tps, 7)
        .with_duration(HORIZON_US / 2, HORIZON_US / 2)
}

fn bench_logs(config: &ExperimentConfig, trace: bool) -> (Vec<Vec<TxId>>, simnet::ObservationLog) {
    let mut sim = simrun::assemble(config, trace, Instant::now());
    sim.run_until(HORIZON_US);
    let logs = sim
        .nodes()
        .iter()
        .map(|n| CommitLog::commit_log(n.inner()).to_vec())
        .collect();
    (logs, sim.observations().clone())
}

#[test]
fn assembly_commits_byte_identically_to_the_library_runners() {
    for w in workloads::ALL {
        let config = short(w);
        let (logs, observations) = bench_logs(&config, false);
        assert_eq!(
            logs,
            sim_commit_logs(&config, None, HORIZON_US),
            "{}: commit logs differ from sim_commit_logs",
            w.name
        );
        assert_eq!(
            observations,
            run(&config).observations,
            "{}: observations differ from smp_replica::run",
            w.name
        );
        if !w.name.contains("byz") {
            assert!(!logs[0].is_empty(), "{}: nothing committed", w.name);
        }
    }
}

#[test]
fn traced_run_commits_byte_identically_to_an_untraced_one() {
    let w = workloads::find("sim-lan-n64").expect("workload exists");
    let config = short(w);
    let (plain, plain_obs) = bench_logs(&config, false);
    let (traced, traced_obs) = bench_logs(&config, true);
    assert!(!plain[0].is_empty());
    assert_eq!(plain, traced);
    assert_eq!(plain_obs, traced_obs);
}

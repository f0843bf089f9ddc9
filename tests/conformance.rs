//! Replay conformance suite: a simulation is a pure function of its
//! configuration and seed.  Running the same configuration twice must
//! give **byte-identical** results — same commits, same
//! `ObservationLog`, same throughput series, same summary — for every
//! Table II protocol and k ∈ {1, 2, 4} shards.
//!
//! If per-shard RNG streams, shard visiting order, or the cross-shard
//! merge ever depend on anything but the seed (hash-map iteration order,
//! wall-clock time, global state leaking between runs), one of these
//! comparisons trips.
//!
//! Replay alone cannot see a change that is deterministic but different,
//! so `golden_fingerprints_are_unchanged` also pins each protocol's
//! results to recorded digests.

use proptest::prelude::*;
use stratus_repro::prelude::*;

fn quick(protocol: Protocol, n: usize, rate: f64) -> ExperimentConfig {
    ExperimentConfig::new(protocol, n, rate)
        .with_duration(500_000, 1_500_000)
        .with_batch_size(16 * 1024)
}

/// Runs `base` at `k` shards twice and asserts the runs are
/// indistinguishable.
fn assert_replays(base: &ExperimentConfig, k: usize) {
    let config = base.clone().with_shards(k);
    let first = run_experiment(&config);
    let second = run_experiment(&config);
    let label = format!("{} k={k} seed={}", base.protocol.label(), base.seed);
    assert_eq!(
        first.observations, second.observations,
        "{label}: observation logs diverged"
    );
    assert_eq!(
        first.committed_txs, second.committed_txs,
        "{label}: committed transactions diverged"
    );
    assert_eq!(
        first.view_changes, second.view_changes,
        "{label}: view changes diverged"
    );
    assert_eq!(
        first.throughput_series, second.throughput_series,
        "{label}: throughput series diverged"
    );
    // `RunSummary` holds floats (possibly NaN when nothing commits), so
    // compare renderings rather than values.
    assert_eq!(
        format!("{:?}", first.summary),
        format!("{:?}", second.summary),
        "{label}: summaries diverged"
    );
}

#[test]
fn replay_is_byte_identical_for_every_protocol_and_shard_count() {
    for protocol in Protocol::all() {
        for k in [1usize, 2, 4] {
            assert_replays(&quick(protocol, 4, 2_000.0), k);
        }
    }
}

#[test]
fn conformance_survives_byzantine_senders_and_wan_conditions() {
    // The adversarial paths (censoring senders, WAN delays, DLB under
    // skew) exercise RNG draws the happy path never reaches.
    let base = quick(Protocol::StratusHotStuff, 7, 2_000.0)
        .wan()
        .with_byzantine(2, 2)
        .with_distribution(LoadDistribution::Zipf { s: 1.01, v: 1.0 });
    assert_replays(&base, 2);
    assert_replays(&base, 4);
}

#[test]
fn telemetry_does_not_perturb_the_simulation() {
    // Telemetry must be a pure observer: with recording enabled the
    // simulated results stay byte-identical to a plain run.
    let base = quick(Protocol::StratusHotStuff, 4, 2_000.0).with_shards(2);
    let plain = run_experiment(&base);
    let traced = run_experiment(&base.clone().with_telemetry(true));
    assert_eq!(
        plain.observations, traced.observations,
        "telemetry changed the observation log"
    );
    assert_eq!(
        plain.committed_txs, traced.committed_txs,
        "telemetry changed the committed transactions"
    );
    assert_eq!(
        plain.throughput_series, traced.throughput_series,
        "telemetry changed the throughput series"
    );
    assert!(
        traced.telemetry.is_enabled(),
        "traced run should carry a live telemetry handle"
    );
}

proptest! {
    // Each case runs two full simulations; a handful of random seeds per
    // CI run is plenty on top of the exhaustive fixed-seed sweep above.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn conformance_holds_for_random_seeds_loads_and_shard_counts(
        seed in any::<u64>(),
        rate in 500f64..6_000.0,
        k in 1usize..5,
        protocol_index in 0usize..11,
    ) {
        let protocol = Protocol::all()[protocol_index];
        let mut base = quick(protocol, 4, rate);
        base.seed = seed;
        assert_replays(&base, k);
    }
}

/// Folds a run's observation log into `h`, field by field, so the
/// fingerprint depends on the recorded values and not on any `Debug`
/// rendering.
fn absorb_observations(h: &mut stratus_repro::crypto::Hasher, log: &simnet::ObservationLog) {
    use simnet::ObsKind;
    h.update_u64(log.len() as u64);
    for o in log.entries() {
        h.update_u64(o.time);
        h.update_u64(o.node.0 as u64);
        match &o.kind {
            ObsKind::Committed {
                txs,
                latency_sum_us,
                latency_count,
            } => {
                h.update_u64(0);
                h.update_u64(*txs as u64);
                h.update_u64(*latency_sum_us);
                h.update_u64(*latency_count as u64);
            }
            ObsKind::ViewChange { view } => {
                h.update_u64(1);
                h.update_u64(*view);
            }
            ObsKind::MicroblockStable { stable_time_us } => {
                h.update_u64(2);
                h.update_u64(*stable_time_us);
            }
            ObsKind::MissingFetch { count } => {
                h.update_u64(3);
                h.update_u64(*count as u64);
            }
            ObsKind::Custom { label, value } => {
                h.update_u64(4);
                h.update(label.as_bytes());
                h.update_u64(value.to_bits());
            }
        }
    }
}

/// One case's fingerprint: `run`'s observations, committed transactions
/// and view changes, then every replica's commit log from the
/// simulator reference runner.
fn fingerprint(config: &ExperimentConfig) -> u64 {
    let mut h = stratus_repro::crypto::Hasher::new();
    let result = run_experiment(config);
    absorb_observations(&mut h, &result.observations);
    h.update_u64(result.committed_txs);
    h.update_u64(result.view_changes);
    let logs = stratus_repro::replica::sim_commit_logs(config, Some(60), 3_000_000);
    h.update_u64(logs.len() as u64);
    for log in &logs {
        h.update_u64(log.len() as u64);
        for tx in log {
            for word in tx.0 .0 {
                h.update_u64(word);
            }
        }
    }
    h.finalize().short()
}

/// Golden fingerprints of every Table II protocol at n = 4 (plus S-HS at
/// k = 2), on the `quick` configuration.  The replay tests above only
/// compare a run with itself; these values pin what the runs *are*, so a
/// refactor of the runners that changes behaviour fails here.
///
/// The values may change only in a change that declares a behaviour
/// change (and says why in its description).  On a mismatch the test
/// prints the full table of actual values.
#[test]
fn golden_fingerprints_are_unchanged() {
    const GOLDEN: &[(&str, usize, u64)] = &[
        ("N-HS", 1, 0xef8e0c01f2ec1e15),
        ("N-PBFT", 1, 0xc8cb7cb864daed0f),
        ("SMP-HS", 1, 0x433a4998ce8472cc),
        ("SMP-HS-G", 1, 0x689e55b54a78f332),
        ("S-HS", 1, 0x63eec3aec23aa891),
        ("S-PBFT", 1, 0x1503b2a7bc0637c3),
        ("S-SL", 1, 0x2386897c6af36d68),
        ("Narwhal", 1, 0x8c54c84f1c832d33),
        ("MirBFT", 1, 0x598a63457b1e750c),
        ("D-HS", 1, 0x17c8b234eaa913ed),
        ("D-HS-F", 1, 0xb3d73d9f5401eedd),
        ("S-HS", 2, 0x04c7fba28f84bd86),
    ];
    let mut cases: Vec<(Protocol, usize)> = Protocol::all().into_iter().map(|p| (p, 1)).collect();
    cases.push((Protocol::StratusHotStuff, 2));
    let actual: Vec<(&str, usize, u64)> = cases
        .into_iter()
        .map(|(p, k)| {
            let config = quick(p, 4, 2_000.0).with_shards(k);
            (p.label(), k, fingerprint(&config))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(label, k, fp)| format!("        ({label:?}, {k}, 0x{fp:016x}),\n"))
        .collect();
    assert_eq!(
        actual, GOLDEN,
        "golden fingerprints changed; actual:\n{table}"
    );
}

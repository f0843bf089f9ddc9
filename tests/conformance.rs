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

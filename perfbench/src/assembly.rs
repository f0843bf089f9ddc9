//! Builds S-HS replicas from the public constructors, the way
//! `smp_replica::run` and `sim_commit_logs` do, each wrapped in
//! [`Timed`].

use crate::probe::Timed;
use smp_consensus::HotStuffEngine;
use smp_replica::{Behavior, ExperimentConfig, Replica};
use smp_types::{ReplicaId, SystemConfig};
use std::time::Instant;
use stratus::{DlbConfig, StratusConfig, StratusMempool};

pub type ShsReplica = Replica<HotStuffEngine, StratusMempool>;
pub type Node = Timed<ShsReplica>;
pub type Msg = smp_replica::ReplicaMsg<stratus::StratusMsg>;

/// Byzantine senders take the highest ids, as in `ExperimentConfig`.
pub fn behavior(config: &ExperimentConfig, i: usize) -> Behavior {
    if i >= config.n - config.num_byzantine {
        Behavior::ByzantineSender {
            extra: config.byzantine_extra,
        }
    } else {
        Behavior::Honest
    }
}

fn stratus_config(config: &ExperimentConfig, sys: &SystemConfig) -> StratusConfig {
    let dlb = if config.dlb_enabled {
        DlbConfig::default().with_d(config.dlb_d)
    } else {
        DlbConfig::disabled()
    };
    let mut st = StratusConfig::default().with_dlb(dlb);
    st.pab_quorum_override = Some(config.pab_quorum.unwrap_or(sys.f + 1));
    st
}

/// Replica `i` of `config`'s S-HS deployment, commit log on.
pub fn replica(config: &ExperimentConfig, sys: &SystemConfig, i: usize) -> ShsReplica {
    let id = ReplicaId(i as u32);
    let rates = config.workload.rates(config.n);
    let mut r = Replica::new(
        sys,
        id,
        HotStuffEngine::new(sys, id),
        StratusMempool::new(sys, stratus_config(config, sys), id),
        behavior(config, i),
        rates[i],
        true,
        i == 0,
    );
    r.enable_commit_log();
    r
}

/// All replicas, wrapped; replica 0 is the observer.
pub fn nodes(config: &ExperimentConfig, trace: bool, origin: Instant) -> Vec<Node> {
    let sys = config.system();
    (0..config.n)
        .map(|i| Timed::new(replica(config, &sys, i), i == 0, trace, origin))
        .collect()
}

/// Indices of the honest replicas.
pub fn honest(config: &ExperimentConfig) -> Vec<usize> {
    (0..config.n)
        .filter(|i| behavior(config, *i) == Behavior::Honest)
        .collect()
}

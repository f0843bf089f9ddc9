//! Running a replica under the real-socket runtime (`smp-net`).
//!
//! The same [`Replica`] state machines that [`experiment::run`]
//! (crate::experiment::run) drives inside the simulator run here over
//! real TCP: this module supplies the [`smp_net::WireMsg`] impl for
//! [`ReplicaMsg`] (framing via [`wire::codec`](crate::wire::codec)), the
//! per-protocol dispatch that assembles *one* replica for *this*
//! process, and a simulator reference runner producing the commit log an
//! `smp-net` cluster must reproduce byte-for-byte.

use crate::experiment::ExperimentConfig;
use crate::protocols::Protocol;
use crate::replica::Replica;
use crate::wire::codec::{self, WireCodec};
use crate::wire::{MempoolWire, ReplicaMsg};
use simnet::{Node, Simulation, Telemetry};
use smp_consensus::{ConsensusEngine, HotStuffEngine, MirBftEngine, PbftEngine, StreamletEngine};
use smp_mempool::{DagMempool, GossipSmp, Mempool, NarwhalMempool, NativeMempool, SimpleSmp};
use smp_net::{spawn_admin, AdminState, ClusterSpec, NetRuntime, WireError, WireMsg};
use smp_shard::ShardedMempool;
use smp_telemetry::{FlightSampler, DEFAULT_WINDOW_CAPACITY};
use smp_types::{DagMode, ReplicaId, SystemConfig, TxId};
use std::io;
use std::net::SocketAddr;
use stratus::StratusMempool;

impl<MM> WireMsg for ReplicaMsg<MM>
where
    MM: MempoolWire + WireCodec + Send + 'static,
{
    const HEADER_BYTES: usize = codec::FRAME_HEADER_BYTES;

    fn encode(&self) -> Vec<u8> {
        codec::encode_frame(self)
    }

    fn body_len(header: &[u8]) -> Result<usize, WireError> {
        codec::decode_header(header)
            .map(|h| h.body_len)
            .map_err(|e| WireError::new(e.taxonomy(), e.to_string()))
    }

    fn decode(header: &[u8], body: &[u8]) -> Result<Self, WireError> {
        let h = codec::decode_header(header)
            .map_err(|e| WireError::new(e.taxonomy(), e.to_string()))?;
        codec::decode_body(body, h.priority)
            .map_err(|e| WireError::new(e.taxonomy(), e.to_string()))
    }
}

/// Options for a socket-runtime run.
#[derive(Clone, Debug)]
pub struct NetRunOptions {
    /// Cap on client transactions offered per replica (finite workloads
    /// make cross-runtime commit logs comparable).
    pub tx_limit: Option<u64>,
    /// Wall-clock run duration in microseconds.
    pub horizon_us: u64,
    /// Attach a live telemetry sink (wall-clock timestamps).
    pub telemetry: bool,
    /// Serve a line-oriented admin endpoint (`HEALTH`/`METRICS`/`SERIES`/
    /// `TRACE`) at this address for the duration of the run.  Implies a
    /// live telemetry sink.
    pub admin_addr: Option<SocketAddr>,
    /// Run a background flight-recorder sampler on this wall-clock
    /// cadence (µs), retaining recent metrics windows.  Implies a live
    /// telemetry sink.
    pub flight_cadence_us: Option<u64>,
    /// Start in crash-recovery mode: the replica boots as a passive
    /// sync observer, replays the committed sequence from its peers via
    /// the `Sync` wire family, and never runs the engine or workload.
    pub recover: bool,
}

impl Default for NetRunOptions {
    fn default() -> Self {
        NetRunOptions {
            tx_limit: None,
            horizon_us: 1_000_000,
            telemetry: false,
            admin_addr: None,
            flight_cadence_us: None,
            recover: false,
        }
    }
}

/// What one replica process measured during a socket-runtime run.
#[derive(Clone, Debug)]
pub struct NetRunSummary {
    /// Committed inline transaction ids, in commit order.
    pub commit_log: Vec<TxId>,
    /// Transactions committed (from the observation log).
    pub committed_txs: u64,
    /// Client transactions this replica offered.
    pub client_txs: u64,
    /// View changes observed.
    pub view_changes: u64,
    /// Frames received from peers.
    pub frames_in: u64,
    /// Frames sent to peers.
    pub frames_out: u64,
    /// Bytes received from peers.
    pub bytes_in: u64,
    /// Bytes sent to peers.
    pub bytes_out: u64,
    /// Wall-clock duration, microseconds.
    pub wall_us: u64,
    /// Connection/codec failures seen during the run.
    pub peer_errors: Vec<String>,
    /// Recoverable frame-body decode failures (connection survived).
    pub frame_errors: Vec<String>,
    /// The run's telemetry sink (disabled unless requested).
    pub telemetry: Telemetry,
    /// The telemetry epoch as µs since the Unix epoch (None when the
    /// sink is disabled) — the cross-process trace-alignment anchor.
    pub epoch_unix_us: Option<u64>,
    /// The flight recorder's exported series (None when no sampler ran).
    pub flight_series: Option<smp_metrics::JsonValue>,
}

/// Visitor over the concrete (engine, mempool) types of a protocol.
trait ProtocolVisitor {
    type Out;
    fn visit<E, M, FE, FM>(self, make_engine: FE, make_mempool: FM) -> Self::Out
    where
        E: ConsensusEngine,
        M: Mempool + Send + 'static,
        M::Msg: MempoolWire + WireCodec + Send + 'static,
        FE: Fn(&SystemConfig, ReplicaId) -> E,
        FM: Fn(&SystemConfig, ReplicaId) -> M,
        Replica<E, M>: Node<Msg = ReplicaMsg<M::Msg>>;
}

/// Applies the sharding wrap (if configured) and hands the final stack
/// to the visitor — the same composition [`crate::experiment::run`] uses.
fn visit_backend<V, E, M, FE, FM>(
    config: &ExperimentConfig,
    v: V,
    make_engine: FE,
    make_mempool: FM,
) -> V::Out
where
    V: ProtocolVisitor,
    E: ConsensusEngine,
    M: Mempool + Send + 'static,
    M::Msg: MempoolWire + WireCodec + Send + 'static,
    FE: Fn(&SystemConfig, ReplicaId) -> E,
    FM: Fn(&SystemConfig, ReplicaId) -> M,
    Replica<E, M>: Node<Msg = ReplicaMsg<M::Msg>>,
    Replica<E, ShardedMempool<M>>: Node<Msg = ReplicaMsg<smp_shard::ShardedMsg<M::Msg>>>,
{
    if config.shards > 1 {
        let k = config.shards;
        v.visit(make_engine, move |s: &SystemConfig, i| {
            ShardedMempool::new(s, k, i.0 as u64, |_, shard_sys| make_mempool(shard_sys, i))
        })
    } else {
        v.visit(make_engine, make_mempool)
    }
}

/// Resolves the protocol matrix to concrete types and runs the visitor.
fn dispatch<V: ProtocolVisitor>(config: &ExperimentConfig, sys: &SystemConfig, v: V) -> V::Out {
    match config.protocol {
        Protocol::NativeHotStuff => {
            visit_backend(config, v, HotStuffEngine::new, NativeMempool::new)
        }
        Protocol::NativePbft => visit_backend(config, v, PbftEngine::new, NativeMempool::new),
        Protocol::SmpHotStuff => visit_backend(config, v, HotStuffEngine::new, SimpleSmp::new),
        Protocol::SmpHotStuffGossip => {
            visit_backend(config, v, HotStuffEngine::new, GossipSmp::new)
        }
        Protocol::StratusHotStuff => {
            let st = config.stratus_config(sys);
            visit_backend(
                config,
                v,
                HotStuffEngine::new,
                move |s: &SystemConfig, i| StratusMempool::new(s, st, i),
            )
        }
        Protocol::StratusPbft => {
            let st = config.stratus_config(sys);
            visit_backend(config, v, PbftEngine::new, move |s: &SystemConfig, i| {
                StratusMempool::new(s, st, i)
            })
        }
        Protocol::StratusStreamlet => {
            let st = config.stratus_config(sys);
            visit_backend(
                config,
                v,
                StreamletEngine::new,
                move |s: &SystemConfig, i| StratusMempool::new(s, st, i),
            )
        }
        Protocol::Narwhal => visit_backend(config, v, HotStuffEngine::new, NarwhalMempool::new),
        Protocol::MirBft => visit_backend(config, v, MirBftEngine::new, NativeMempool::new),
        Protocol::DagHotStuff => visit_backend(config, v, HotStuffEngine::new, DagMempool::new),
        Protocol::DagHotStuffFast => {
            visit_backend(config, v, HotStuffEngine::new, |s: &SystemConfig, i| {
                DagMempool::with_mode(s, i, DagMode::FastPath)
            })
        }
    }
}

struct NetVisitor<'a> {
    config: &'a ExperimentConfig,
    sys: &'a SystemConfig,
    me: ReplicaId,
    addrs: Vec<SocketAddr>,
    opts: &'a NetRunOptions,
}

impl ProtocolVisitor for NetVisitor<'_> {
    type Out = io::Result<NetRunSummary>;

    fn visit<E, M, FE, FM>(self, make_engine: FE, make_mempool: FM) -> Self::Out
    where
        E: ConsensusEngine,
        M: Mempool + Send + 'static,
        M::Msg: MempoolWire + WireCodec + Send + 'static,
        FE: Fn(&SystemConfig, ReplicaId) -> E,
        FM: Fn(&SystemConfig, ReplicaId) -> M,
        Replica<E, M>: Node<Msg = ReplicaMsg<M::Msg>>,
    {
        let config = self.config;
        let sys = self.sys;
        // No simulated clock exists under the socket runtime, so the
        // sink runs in wall-clock-only mode: spans self-stamp from the
        // process epoch.  An admin endpoint or flight sampler needs a
        // live sink to observe.
        let want_telemetry = self.opts.telemetry
            || self.opts.admin_addr.is_some()
            || self.opts.flight_cadence_us.is_some();
        let telemetry = if want_telemetry {
            Telemetry::wall_clock()
        } else {
            Telemetry::disabled()
        };
        let i = self.me.index();
        let rates = config.workload.rates(config.n);
        let node_telemetry = telemetry
            .with_prefix(&format!("replica.{i}"))
            .with_track(i as u32);
        let mut mempool = make_mempool(sys, self.me);
        mempool.set_telemetry(node_telemetry.clone());
        let mut replica = Replica::new(
            sys,
            self.me,
            make_engine(sys, self.me),
            mempool,
            config.behavior_for(i),
            rates[i],
            config.protocol.is_stratus(),
            i == 0,
        );
        replica.enable_commit_log();
        if let Some(limit) = self.opts.tx_limit {
            replica.limit_client_txs(limit);
        }
        if self.opts.recover {
            replica.start_recovery();
        }
        let spec = ClusterSpec::new(self.me, self.addrs, config.seed);
        let runtime = NetRuntime::new(replica, spec, node_telemetry.clone());
        let stats = runtime.stats();

        // Observers: both publish the runtime's lock-free counters into
        // the registry before reading it, and neither touches protocol
        // state — instrumentation on/off leaves commit logs identical.
        let sampler = self.opts.flight_cadence_us.map(|cadence_us| {
            let stats = std::sync::Arc::clone(&stats);
            let publish_to = node_telemetry.clone();
            FlightSampler::spawn(
                telemetry.clone(),
                std::time::Duration::from_micros(cadence_us),
                DEFAULT_WINDOW_CAPACITY,
                Some(Box::new(move || stats.publish(&publish_to))),
            )
        });
        let admin = match self.opts.admin_addr {
            Some(addr) => {
                let net = std::sync::Arc::clone(&stats);
                let stats = std::sync::Arc::clone(&stats);
                let publish_to = node_telemetry.clone();
                Some(spawn_admin(
                    addr,
                    AdminState {
                        replica: self.me.0,
                        telemetry: telemetry.clone(),
                        recorder: sampler.as_ref().map(FlightSampler::recorder),
                        refresh: Some(std::sync::Arc::new(move || stats.publish(&publish_to))),
                        net: Some(net),
                    },
                )?)
            }
            None => None,
        };

        let report = runtime.run(self.opts.horizon_us)?;

        let flight_series = sampler.map(|s| {
            let recorder = s.stop();
            let json = recorder.lock().expect("flight recorder poisoned").to_json();
            json
        });
        drop(admin);

        let committed = report.observations.committed_txs(Some(self.me));
        let node = report.node;
        Ok(NetRunSummary {
            commit_log: node.commit_log().unwrap_or(&[]).to_vec(),
            committed_txs: committed,
            client_txs: node.metrics().client_txs,
            view_changes: node.metrics().view_changes,
            frames_in: report.frames_in,
            frames_out: report.frames_out,
            bytes_in: report.bytes_in,
            bytes_out: report.bytes_out,
            wall_us: report.wall_us,
            peer_errors: report.peer_errors,
            frame_errors: report.frame_errors,
            epoch_unix_us: telemetry.epoch_unix_us(),
            flight_series,
            telemetry,
        })
    }
}

/// Runs replica `me` of `config`'s deployment over real sockets.
/// `addrs[i]` is the listen address of replica `i`; the call blocks for
/// `opts.horizon_us` wall-clock microseconds of measurement (plus
/// cluster formation).
pub fn run_replica_over_net(
    config: &ExperimentConfig,
    me: ReplicaId,
    addrs: Vec<SocketAddr>,
    opts: &NetRunOptions,
) -> io::Result<NetRunSummary> {
    assert_eq!(addrs.len(), config.n, "need one listen address per replica");
    let sys = config.system();
    dispatch(
        config,
        &sys,
        NetVisitor {
            config,
            sys: &sys,
            me,
            addrs,
            opts,
        },
    )
}

struct SimVisitor<'a> {
    config: &'a ExperimentConfig,
    sys: &'a SystemConfig,
    tx_limit: Option<u64>,
    horizon_us: u64,
    faults: simnet::FaultSchedule,
}

impl ProtocolVisitor for SimVisitor<'_> {
    type Out = Vec<Vec<TxId>>;

    fn visit<E, M, FE, FM>(self, make_engine: FE, make_mempool: FM) -> Self::Out
    where
        E: ConsensusEngine,
        M: Mempool + Send + 'static,
        M::Msg: MempoolWire + WireCodec + Send + 'static,
        FE: Fn(&SystemConfig, ReplicaId) -> E,
        FM: Fn(&SystemConfig, ReplicaId) -> M,
        Replica<E, M>: Node<Msg = ReplicaMsg<M::Msg>>,
    {
        let config = self.config;
        let sys = self.sys;
        let rates = config.workload.rates(config.n);
        let nodes: Vec<Replica<E, M>> = (0..config.n)
            .map(|i| {
                let id = ReplicaId(i as u32);
                let mut replica = Replica::new(
                    sys,
                    id,
                    make_engine(sys, id),
                    make_mempool(sys, id),
                    config.behavior_for(i),
                    rates[i],
                    config.protocol.is_stratus(),
                    i == 0,
                );
                replica.enable_commit_log();
                if let Some(limit) = self.tx_limit {
                    replica.limit_client_txs(limit);
                }
                replica
            })
            .collect();
        let mut net = simnet::NetConfig::from_preset(config.network);
        net.fault_windows = config.fault_windows.clone();
        let mut sim = Simulation::new(nodes, net, config.seed).with_faults(self.faults);
        sim.run_until(self.horizon_us);
        (0..config.n)
            .map(|i| sim.node(i).commit_log().unwrap_or(&[]).to_vec())
            .collect()
    }
}

/// Reference run: executes `config` inside the simulator with commit
/// logging on and returns every replica's committed-transaction-id
/// sequence.  An `smp-net` cluster of the same configuration and seed
/// must commit byte-identical sequences.
pub fn sim_commit_logs(
    config: &ExperimentConfig,
    tx_limit: Option<u64>,
    horizon_us: u64,
) -> Vec<Vec<TxId>> {
    sim_commit_logs_with_faults(config, tx_limit, horizon_us, simnet::FaultSchedule::new())
}

/// Like [`sim_commit_logs`], with a scripted [`simnet::FaultSchedule`]
/// applied: crash/restart, partitions, and burst drop/delay replay
/// deterministically against the same configuration and seed.  An empty
/// schedule is byte-identical to [`sim_commit_logs`].
pub fn sim_commit_logs_with_faults(
    config: &ExperimentConfig,
    tx_limit: Option<u64>,
    horizon_us: u64,
    faults: simnet::FaultSchedule,
) -> Vec<Vec<TxId>> {
    let sys = config.system();
    dispatch(
        config,
        &sys,
        SimVisitor {
            config,
            sys: &sys,
            tx_limit,
            horizon_us,
            faults,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_types::MICROS_PER_SEC;
    use smp_workload::LoadDistribution;

    fn single_source(n: usize) -> ExperimentConfig {
        ExperimentConfig::new(Protocol::NativeHotStuff, n, 2_000.0)
            .with_distribution(LoadDistribution::SingleReplica(0))
            .with_batch_size(16 * 1024)
    }

    #[test]
    fn sim_reference_commits_every_offered_tx_on_every_replica() {
        let config = single_source(4);
        let logs = sim_commit_logs(&config, Some(100), 3 * MICROS_PER_SEC);
        assert_eq!(logs.len(), 4);
        assert_eq!(logs[0].len(), 100, "all offered txs commit");
        for i in 1..4 {
            assert_eq!(logs[i], logs[0], "replica {i} commit log diverges");
        }
    }

    #[test]
    fn tx_limit_caps_the_offered_load() {
        let config = single_source(4);
        let capped = sim_commit_logs(&config, Some(25), 3 * MICROS_PER_SEC);
        assert_eq!(capped[0].len(), 25);
    }
}

//! One `smp-net` cluster run: n replicas over loopback TCP, each driven
//! by its own `NetRuntime` on its own thread, all inside this process.

use crate::account::{self, Observed, Outcome};
use crate::assembly::{self, Node};
use crate::procfs;
use crate::workloads::Workload;
use simnet::Telemetry;
use smp_net::{ClusterSpec, NetRuntime, NetStats};
use smp_types::{ReplicaId, SimTime};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

pub struct SockRun {
    pub nodes: Vec<Node>,
    pub stats: Vec<Arc<NetStats>>,
    pub outcome: Outcome,
    /// Spawn to the last replica passing the hello barrier, seconds.
    pub setup_s: f64,
    /// Process CPU seconds over the whole cluster run.
    pub cpu_s: f64,
    pub frames_out: u64,
    pub bytes_out: u64,
}

/// Loopback addresses that were free a moment ago.
fn free_addrs(n: usize) -> io::Result<Vec<SocketAddr>> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    listeners.iter().map(|l| l.local_addr()).collect()
}

/// Runs `w` at `rate` for a `window` after its warm-up, then drains.
pub fn run(
    w: &Workload,
    rate: f64,
    seed: u64,
    window: SimTime,
    trace: bool,
) -> io::Result<SockRun> {
    let (w0, w1) = (w.warmup, w.warmup + window);
    run_until(w, rate, seed, (w0, w1), w1 + w.drain, trace)
}

/// Forms the cluster and stops it right away; returns the formation
/// time in seconds.
pub fn form_only(w: &Workload, seed: u64) -> io::Result<f64> {
    const HORIZON_US: SimTime = 1_000;
    run_until(w, w.nominal_tps, seed, (0, HORIZON_US), HORIZON_US, false).map(|r| r.setup_s)
}

fn run_until(
    w: &Workload,
    rate: f64,
    seed: u64,
    (w0, w1): (SimTime, SimTime),
    horizon: SimTime,
    trace: bool,
) -> io::Result<SockRun> {
    let config = w.config(rate, seed);
    let n = config.n;
    let addrs = free_addrs(n)?;
    let cpu0 = procfs::cpu_seconds();
    let spawned = Instant::now();
    let mut handles = Vec::new();
    let mut stats = Vec::new();
    for (i, node) in assembly::nodes(&config, trace, spawned)
        .into_iter()
        .enumerate()
    {
        let spec = ClusterSpec::new(ReplicaId(i as u32), addrs.clone(), seed);
        let runtime = NetRuntime::new(node, spec, Telemetry::disabled());
        stats.push(runtime.stats());
        handles.push(std::thread::spawn(move || runtime.run(horizon)));
    }
    let mut reports = Vec::new();
    let mut first_err = None;
    for h in handles {
        match h.join() {
            Ok(Ok(r)) => reports.push(r),
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => first_err = first_err.or(Some(io::Error::other("replica thread panicked"))),
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    let cpu_s = procfs::cpu_seconds() - cpu0;
    let frames_out = reports.iter().map(|r| r.frames_out).sum();
    let bytes_out = reports.iter().map(|r| r.bytes_out).sum();
    let nodes: Vec<Node> = reports.into_iter().map(|r| r.node).collect();

    let started: Vec<Instant> = nodes
        .iter()
        .map(|n| n.rec.started.expect("every runtime starts its node"))
        .collect();
    let setup_s = started
        .iter()
        .map(|s| s.duration_since(spawned).as_secs_f64())
        .fold(0.0, f64::max);
    // Each runtime's clock starts at its own hello barrier; map every
    // creator's clock onto the observer's.
    let clock_offset = started.iter().map(|s| signed_us(*s, started[0])).collect();
    let honest = assembly::honest(&config);
    let outcome = account::account(&Observed {
        logs: honest
            .iter()
            .map(|&i| crate::probe::CommitLog::commit_log(nodes[i].inner()))
            .collect(),
        commit_times: &nodes[0].rec.commit_times,
        recorders: nodes.iter().map(|n| &n.rec).collect(),
        clock_offset,
        rates: config.workload.rates(n),
        window: (w0, w1),
        run_end: horizon,
    });
    Ok(SockRun {
        nodes,
        stats,
        outcome,
        setup_s,
        cpu_s,
        frames_out,
        bytes_out,
    })
}

fn signed_us(a: Instant, b: Instant) -> i64 {
    if a >= b {
        a.duration_since(b).as_micros() as i64
    } else {
        -(b.duration_since(a).as_micros() as i64)
    }
}

/// Highest per-peer queue watermark and total enqueue stalls.
pub fn queue_stats(stats: &[Arc<NetStats>], n: usize) -> (u64, u64) {
    let mut hwm = 0;
    let mut stalls = 0;
    for s in stats {
        for i in 0..n {
            if let Some(p) = s.peer(i) {
                hwm = hwm.max(p.queue_hwm.load(Ordering::Relaxed));
                stalls += p.enqueue_stalls.load(Ordering::Relaxed);
            }
        }
    }
    (hwm, stalls)
}

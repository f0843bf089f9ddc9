//! `Timed<N>`: a pass-through wrapper around a [`simnet::Node`].
//!
//! It delegates every handler to the wrapped replica and, on the side,
//! records what the benchmark needs from the outside: when each
//! commit-log entry appeared at the observer, which transactions each
//! microblock carried (and when they were generated), which proposals
//! were empty, and — when tracing is on — one span per handler call plus
//! a sample of messages for the wire replay.  It never alters a message, a timer or an RNG draw, so
//! commit logs are byte-identical with or without it.

use simnet::{Node, NodeCtx, SimMessage, TimerTag};
use smp_consensus::{ConsensusEngine, ConsensusMsg};
use smp_mempool::Mempool;
use smp_replica::{MempoolWire, Replica, ReplicaMsg, ReplicaPayload};
use smp_types::{BlockId, Microblock, ReplicaId, SimTime, TxId};
use std::collections::HashMap;
use std::time::Instant;
use stratus::StratusMsg;

/// Messages the observer keeps per kind for the wire replay.
const SAMPLES_PER_KIND: usize = 256;

/// The span `kind` recorded for a timer firing.
pub const TIMER_KIND: &str = "timer";

/// Generation times of one microblock's transactions, in the creator's
/// clock, run-length encoded (a 5 ms tick creates many txs at once).
#[derive(Clone, Debug)]
pub struct MbTxs {
    pub creator: ReplicaId,
    pub runs: Vec<(SimTime, u32)>,
}

impl MbTxs {
    fn of(mb: &Microblock) -> Self {
        let mut runs: Vec<(SimTime, u32)> = Vec::new();
        for tx in mb.txs.iter() {
            match runs.last_mut() {
                Some((t, c)) if *t == tx.created_at => *c += 1,
                _ => runs.push((tx.created_at, 1)),
            }
        }
        MbTxs {
            creator: mb.creator,
            runs,
        }
    }
}

/// One handler call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub node: u32,
    pub kind: &'static str,
    /// Runtime clock (simulated or wall µs) at the call.
    pub at: SimTime,
    /// Wall-clock nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The sender of the delivered message (`u32::MAX` for timers).
    pub cause: u32,
}

/// Per-kind call counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindStats {
    pub calls: u64,
    pub busy_ns: u64,
}

/// What the wrapper learns about messages it sees.
pub trait Inspect: Sized {
    fn inspect(&self, rec: &mut Recorder);
}

impl Inspect for ReplicaMsg<StratusMsg> {
    fn inspect(&self, rec: &mut Recorder) {
        match &self.payload {
            ReplicaPayload::Consensus(ConsensusMsg::Propose(p)) => {
                rec.proposals.insert(p.id, p.payload.is_empty());
            }
            ReplicaPayload::Mempool(StratusMsg::PabMsg(mb) | StratusMsg::LbForward(mb)) => {
                rec.note_microblock(mb)
            }
            ReplicaPayload::Mempool(StratusMsg::PabResponse { mbs }) => {
                mbs.iter().for_each(|mb| rec.note_microblock(mb))
            }
            _ => {}
        }
    }
}

/// Read access to the wrapped replica's commit log.
pub trait CommitLog {
    fn commit_log(&self) -> &[TxId];
}

impl<E, M> CommitLog for Replica<E, M>
where
    E: ConsensusEngine,
    M: Mempool,
    M::Msg: MempoolWire,
{
    fn commit_log(&self) -> &[TxId] {
        Replica::commit_log(self).unwrap_or(&[])
    }
}

/// Everything one wrapper records.
#[derive(Default)]
pub struct Recorder {
    /// Wall instant of `on_start` (the runtime's clock origin).
    pub started: Option<Instant>,
    /// Runtime clock at which each commit-log entry appeared (observer
    /// only).
    pub commit_times: Vec<SimTime>,
    /// Microblocks seen, first sighting only.
    pub microblocks: HashMap<TxId, MbTxs>,
    /// Proposals seen, and whether each was empty.
    pub proposals: HashMap<BlockId, bool>,
    /// Handler calls by message kind, with busy time when tracing.
    pub kinds: HashMap<&'static str, KindStats>,
    /// Spans (tracing on only).
    pub spans: Vec<Span>,
}

impl Recorder {
    fn note_microblock(&mut self, mb: &Microblock) {
        self.microblocks
            .entry(TxId(mb.id.0))
            .or_insert_with(|| MbTxs::of(mb));
    }

    /// Wall-clock nanoseconds spent inside the wrapped handlers.
    pub fn busy_ns(&self) -> u64 {
        self.kinds.values().map(|k| k.busy_ns).sum()
    }

    /// Handler calls made.
    pub fn calls(&self) -> u64 {
        self.kinds.values().map(|k| k.calls).sum()
    }
}

/// The wrapper.
pub struct Timed<N: Node> {
    inner: N,
    observer: bool,
    trace: bool,
    origin: Instant,
    pub rec: Recorder,
    /// Sampled messages for the wire replay (traced observer only).
    pub samples: HashMap<&'static str, Vec<N::Msg>>,
}

impl<N> Timed<N>
where
    N: Node + CommitLog,
    N::Msg: Inspect,
{
    /// Wraps `inner`.  `observer` stamps commit times; `trace` keeps
    /// spans and message samples.  Spans share `origin` so several
    /// wrappers' spans line up.
    pub fn new(inner: N, observer: bool, trace: bool, origin: Instant) -> Self {
        Timed {
            inner,
            observer,
            trace,
            origin,
            rec: Recorder::default(),
            samples: HashMap::new(),
        }
    }

    pub fn inner(&self) -> &N {
        &self.inner
    }

    fn around(
        &mut self,
        now: SimTime,
        kind: &'static str,
        cause: u32,
        node: u32,
        call: impl FnOnce(&mut N),
    ) {
        let before = self.inner.commit_log().len();
        if self.trace {
            let t0 = Instant::now();
            call(&mut self.inner);
            let t1 = Instant::now();
            let k = self.rec.kinds.entry(kind).or_default();
            k.calls += 1;
            k.busy_ns += t1.duration_since(t0).as_nanos() as u64;
            self.rec.spans.push(Span {
                node,
                kind,
                at: now,
                start_ns: t0.duration_since(self.origin).as_nanos() as u64,
                end_ns: t1.duration_since(self.origin).as_nanos() as u64,
                cause,
            });
        } else {
            call(&mut self.inner);
            self.rec.kinds.entry(kind).or_default().calls += 1;
        }
        if self.observer {
            let after = self.inner.commit_log().len();
            self.rec
                .commit_times
                .extend(std::iter::repeat_n(now, after.saturating_sub(before)));
        }
    }
}

impl<N> Node for Timed<N>
where
    N: Node + CommitLog,
    N::Msg: Inspect,
{
    type Msg = N::Msg;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>) {
        self.rec.started = Some(Instant::now());
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>, from: ReplicaId, msg: Self::Msg) {
        let kind = msg.kind();
        msg.inspect(&mut self.rec);
        if self.trace && self.observer {
            let kept = self.samples.entry(kind).or_default();
            if kept.len() < SAMPLES_PER_KIND {
                kept.push(msg.clone());
            }
        }
        let (now, node) = (ctx.now(), ctx.id().0);
        self.around(now, kind, from.0, node, |n| n.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>, tag: TimerTag) {
        let (now, node) = (ctx.now(), ctx.id().0);
        self.around(now, TIMER_KIND, u32::MAX, node, |n| n.on_timer(ctx, tag));
    }
}

//! Per-layer metrics of a traced run.

use crate::probe::{KindStats, Recorder, TIMER_KIND};
use smp_crypto::{CostModel, Digest, Hasher, KeyPair, Signature};
use smp_replica::{decode_frame, encode_frame, ReplicaMsg};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use stratus::StratusMsg;

/// Message kinds with a consensus, PAB or fetch role.
const WIRE_KINDS: &[&str] = &[
    "proposal",
    "vote",
    "microblock",
    "ack",
    "proof",
    "fetch-req",
    "fetch-resp",
];

/// An ordered list of (name, value, unit).
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Handler counters summed over every replica.
pub fn merged_kinds<'a>(
    recs: impl Iterator<Item = &'a Recorder>,
) -> HashMap<&'static str, KindStats> {
    let mut out: HashMap<&'static str, KindStats> = HashMap::new();
    for rec in recs {
        for (k, s) in &rec.kinds {
            let e = out.entry(k).or_default();
            e.calls += s.calls;
            e.busy_ns += s.busy_ns;
        }
    }
    out
}

/// `<prefix>.{calls,busy_ms,ns_per_call}` for one message kind.
fn handler_metrics(
    m: &mut Metrics,
    kinds: &HashMap<&'static str, KindStats>,
    kind: &str,
    prefix: &str,
    busy: bool,
) {
    let s = kinds.get(kind).copied().unwrap_or_default();
    m.put(format!("{prefix}.calls"), s.calls as f64, "count");
    if busy {
        m.put(format!("{prefix}.busy_ms"), s.busy_ns as f64 / 1e6, "ms");
    }
    m.put(
        format!("{prefix}.ns_per_call"),
        ratio(s.busy_ns as f64, s.calls as f64),
        "ns",
    );
}

/// The handler-derived layers shared by both runtimes.
pub fn handler_layers(m: &mut Metrics, kinds: &HashMap<&'static str, KindStats>) {
    handler_metrics(m, kinds, "proposal", "consensus.proposal", true);
    handler_metrics(m, kinds, "vote", "consensus.vote", true);
    handler_metrics(m, kinds, "microblock", "stratus.pab.microblock", true);
    handler_metrics(m, kinds, "ack", "stratus.pab.ack", true);
    handler_metrics(m, kinds, "proof", "stratus.pab.proof", true);
    handler_metrics(m, kinds, "fetch-req", "stratus.fetch.req", false);
    handler_metrics(m, kinds, "fetch-resp", "stratus.fetch.resp", false);
    let lb = kinds.get("lb-control").copied().unwrap_or_default();
    m.put("stratus.dlb.lb_control.calls", lb.calls as f64, "count");
    let t = kinds.get(TIMER_KIND).copied().unwrap_or_default();
    m.put("replica.on_timer.calls", t.calls as f64, "count");
    m.put("replica.on_timer.busy_ms", t.busy_ns as f64 / 1e6, "ms");
}

/// Re-encodes and decodes sampled messages; returns `false` if any
/// frame fails to round-trip byte-for-byte.
pub fn wire_replay(
    m: &mut Metrics,
    samples: &HashMap<&'static str, Vec<ReplicaMsg<StratusMsg>>>,
) -> bool {
    let mut ok = true;
    for kind in WIRE_KINDS {
        let msgs = samples.get(kind).map_or(&[][..], Vec::as_slice);
        let (mut enc_ns, mut dec_ns, mut bytes) = (0u128, 0u128, 0usize);
        for msg in msgs {
            let t0 = Instant::now();
            let frame = black_box(encode_frame(msg));
            let t1 = Instant::now();
            let decoded = decode_frame::<StratusMsg>(&frame);
            let t2 = Instant::now();
            enc_ns += (t1 - t0).as_nanos();
            dec_ns += (t2 - t1).as_nanos();
            bytes += frame.len();
            match decoded {
                Ok((back, used)) if used == frame.len() && encode_frame(&back) == frame => {}
                _ => {
                    eprintln!("wire round trip failed for a {kind} frame");
                    ok = false;
                }
            }
        }
        let k = msgs.len() as f64;
        m.put(
            format!("wire.encode_ns_per_frame.{kind}"),
            ratio(enc_ns as f64, k),
            "ns",
        );
        m.put(
            format!("wire.decode_ns_per_frame.{kind}"),
            ratio(dec_ns as f64, k),
            "ns",
        );
        m.put(
            format!("wire.bytes_per_frame.{kind}"),
            ratio(bytes as f64, k),
            "B",
        );
    }
    ok
}

/// Times the crypto primitives next to their `CostModel` constants;
/// returns `false` if a fresh signature fails to verify.
pub fn crypto(m: &mut Metrics) -> bool {
    const ROUNDS: u32 = 20_000;
    let block = vec![0xa5u8; 1024];
    let t = Instant::now();
    for i in 0..ROUNDS {
        let mut h = Hasher::new();
        h.update_u64(i as u64);
        h.update(&block);
        black_box(h.finalize());
    }
    let hash_ns = t.elapsed().as_nanos() as f64 / ROUNDS as f64;
    let keys = KeyPair::derive(7, 1);
    let digests: Vec<Digest> = (0..ROUNDS as u64).map(Digest::of_u64).collect();
    let t = Instant::now();
    let sigs: Vec<Signature> = digests
        .iter()
        .map(|d| black_box(Signature::sign(&keys.secret, d)))
        .collect();
    let sign_ns = t.elapsed().as_nanos() as f64 / ROUNDS as f64;
    let t = Instant::now();
    let valid = sigs
        .iter()
        .zip(&digests)
        .filter(|(s, d)| black_box(s.verify(&keys.public, d)))
        .count();
    let verify_ns = t.elapsed().as_nanos() as f64 / ROUNDS as f64;
    let model = CostModel::DEFAULT;
    m.put("crypto.hash_ns_per_kb", hash_ns, "ns");
    m.put(
        "crypto.hash_vs_model",
        hash_ns / (model.hash_per_kb_us * 1e3),
        "ratio",
    );
    m.put("crypto.sign_ns", sign_ns, "ns");
    m.put(
        "crypto.sign_vs_model",
        sign_ns / (model.sign_us * 1e3),
        "ratio",
    );
    m.put("crypto.verify_ns", verify_ns, "ns");
    m.put(
        "crypto.verify_vs_model",
        verify_ns / (model.verify_us * 1e3),
        "ratio",
    );
    valid == ROUNDS as usize
}

//! Turns commit logs and what the wrappers saw into operations,
//! failures, goodput and latency samples.

use crate::oracle::{self, Verdict};
use crate::probe::{MbTxs, Recorder};
use smp_types::{SimTime, TxId, MICROS_PER_SEC};
use std::collections::{HashMap, HashSet};

/// The workload tick of `smp_replica::Replica` (5 ms).
const TICK_US: SimTime = 5_000;

/// Everything one run produced, in the observer's clock.
pub struct Observed<'a> {
    /// Honest replicas' commit logs; `logs[0]` is the observer.
    pub logs: Vec<&'a [TxId]>,
    /// Observer clock when each observer log entry appeared.
    pub commit_times: &'a [SimTime],
    /// Every replica's recorder (for microblock contents).
    pub recorders: Vec<&'a Recorder>,
    /// Per creator: µs to add to its clock to get the observer's.
    pub clock_offset: Vec<i64>,
    /// Per-replica offered rate (tx/s).
    pub rates: Vec<f64>,
    /// Measurement window `[w0, w1)` and the end of the run.
    pub window: (SimTime, SimTime),
    pub run_end: SimTime,
}

/// Failed operations split by cause.
#[derive(Clone, Copy, Debug, Default)]
pub struct Failures {
    pub duplicate: u64,
    pub gap: u64,
    pub divergent: u64,
    /// Sealed but not committed on any honest replica by run end.
    pub uncommitted: u64,
    /// Due but never seen in a microblock (generator shortfall or
    /// still unbatched at run end).
    pub unsealed: u64,
}

/// The accounting of one run.
pub struct Outcome {
    /// Transactions due under the nominal rate in the window.
    pub due: u64,
    /// Due transactions committed exactly once in agreement.
    pub agreed: u64,
    /// Window transactions committed at least once at the observer.
    pub observer_committed: u64,
    pub failures: Failures,
    /// (latency µs, transactions) of the window's transactions committed
    /// at the observer, each counted once at its first commit.
    pub latencies: Vec<(u64, u64)>,
    /// Sealed window transactions the observer had not committed by run
    /// end (they are in `failed`, not in `latencies`).
    pub missing_at_observer: u64,
    /// Honest commit logs checked, and those the oracle failed as a
    /// whole (`Verdict::log_failed`).
    pub logs: u64,
    pub logs_failed: u64,
    pub verdict: Verdict,
    pub window_secs: f64,
}

impl Outcome {
    /// Pools `other` (another run of the same workload) into `self`.
    pub fn pool(&mut self, other: Outcome) {
        self.due += other.due;
        self.agreed += other.agreed;
        self.observer_committed += other.observer_committed;
        let (f, g) = (&mut self.failures, other.failures);
        f.duplicate += g.duplicate;
        f.gap += g.gap;
        f.divergent += g.divergent;
        f.uncommitted += g.uncommitted;
        f.unsealed += g.unsealed;
        self.latencies.extend(other.latencies);
        self.latencies.sort_unstable();
        self.missing_at_observer += other.missing_at_observer;
        self.logs += other.logs;
        self.logs_failed += other.logs_failed;
        self.window_secs += other.window_secs;
        let (v, w) = (&mut self.verdict, other.verdict);
        v.observer_entries += w.observer_entries;
        v.observer_repeats += w.observer_repeats;
    }

    /// The figures a ladder rung needs, without the oracle's id sets.
    pub fn clone_summary(&self) -> Outcome {
        Outcome {
            due: self.due,
            agreed: self.agreed,
            observer_committed: self.observer_committed,
            failures: self.failures,
            latencies: self.latencies.clone(),
            missing_at_observer: self.missing_at_observer,
            logs: self.logs,
            logs_failed: self.logs_failed,
            verdict: Verdict::default(),
            window_secs: self.window_secs,
        }
    }

    pub fn failed(&self) -> u64 {
        self.due - self.agreed
    }
    pub fn goodput_ktps(&self) -> f64 {
        self.agreed as f64 / self.window_secs / 1e3
    }
    pub fn observer_ktps(&self) -> f64 {
        self.observer_committed as f64 / self.window_secs / 1e3
    }
    pub fn latency_samples(&self) -> u64 {
        self.latencies.iter().map(|(_, c)| c).sum()
    }
}

/// Transactions the tick generator owes replica-rate `rate` for ticks in
/// `[w0, w1)`: the same carry arithmetic as `smp_workload::TxFactory`.
pub fn due_in_window(rate: f64, w0: SimTime, w1: SimTime) -> u64 {
    let mut carry = 0.0;
    let mut due = 0;
    let mut t = TICK_US;
    while t < w1 {
        let expected = rate * TICK_US as f64 / 1e6 + carry;
        let count = expected.floor();
        carry = expected - count;
        if t >= w0 {
            due += count as u64;
        }
        t += TICK_US;
    }
    due
}

/// Weighted percentile over (value, weight) pairs sorted by value.
pub fn percentile(sorted: &[(u64, u64)], q: f64) -> f64 {
    let total: u64 = sorted.iter().map(|(_, c)| c).sum();
    if total == 0 {
        return f64::NAN;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut acc = 0;
    for (v, c) in sorted {
        acc += c;
        if acc >= rank {
            return *v as f64;
        }
    }
    sorted.last().map_or(f64::NAN, |(v, _)| *v as f64)
}

pub fn account(o: &Observed<'_>) -> Outcome {
    let (w0, w1) = o.window;
    let verdict = oracle::check(&o.logs);
    let mut microblocks: HashMap<TxId, &MbTxs> = HashMap::new();
    for rec in &o.recorders {
        for (id, mb) in &rec.microblocks {
            microblocks.entry(*id).or_insert(mb);
        }
    }
    let in_observer_clock = |mb: &MbTxs, t: SimTime| -> SimTime {
        (t as i64 + o.clock_offset[mb.creator.index()]).max(0) as SimTime
    };
    // First commit time of each id at the observer.
    let mut first_commit: HashMap<TxId, SimTime> = HashMap::new();
    for (id, t) in o.logs[0].iter().zip(o.commit_times) {
        first_commit.entry(*id).or_insert(*t);
    }
    let committed_anywhere: HashSet<TxId> = o.logs.iter().flat_map(|l| l.iter().copied()).collect();

    let mut f = Failures::default();
    let mut agreed = 0u64;
    let mut observer_committed = 0u64;
    let mut seen = 0u64;
    let mut latencies: Vec<(u64, u64)> = Vec::new();
    let mut missing: Vec<(u64, u64)> = Vec::new();
    for (id, mb) in &microblocks {
        let mut in_window = 0u64;
        for &(t, c) in &mb.runs {
            let t = in_observer_clock(mb, t);
            if t < w0 || t >= w1 {
                continue;
            }
            in_window += c as u64;
            match first_commit.get(id) {
                Some(at) => latencies.push((at.saturating_sub(t), c as u64)),
                None => missing.push((o.run_end.saturating_sub(t), c as u64)),
            }
        }
        if in_window == 0 {
            continue;
        }
        seen += in_window;
        if first_commit.contains_key(id) {
            observer_committed += in_window;
        }
        if verdict.agreed.contains(id) {
            agreed += in_window;
        } else if verdict.duplicate.contains(id) {
            f.duplicate += in_window;
        } else if verdict.gap.contains(id) {
            f.gap += in_window;
        } else if verdict.divergent.contains(id) {
            f.divergent += in_window;
        } else if !committed_anywhere.contains(id) {
            f.uncommitted += in_window;
        }
    }
    let due: u64 = o.rates.iter().map(|r| due_in_window(*r, w0, w1)).sum();
    // Clock skew between socket replicas can shift a tick across the
    // window edge; operations are the due ones.
    let agreed = agreed.min(due);
    let unsealed = due.saturating_sub(seen);
    f.unsealed = unsealed;
    let missing_at_observer = missing.iter().map(|(_, c)| c).sum();
    if latencies.is_empty() {
        // Nothing committed: the percentiles are those of the ages at
        // run end, all past the limit.
        latencies = missing;
    }
    latencies.sort_unstable();
    Outcome {
        due,
        agreed,
        observer_committed,
        failures: f,
        latencies,
        missing_at_observer,
        logs: verdict.log_failed.len() as u64,
        logs_failed: verdict.log_failed.iter().filter(|f| **f).count() as u64,
        verdict,
        window_secs: (w1 - w0) as f64 / MICROS_PER_SEC as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_matches_the_nominal_rate() {
        assert_eq!(due_in_window(1_000.0, 0, 1_000_000), 995);
        assert_eq!(due_in_window(1_000.0, 1_000_000, 3_000_000), 2_000);
    }

    #[test]
    fn weighted_percentiles() {
        let v = vec![(1, 98), (10, 1), (100, 1)];
        assert_eq!(percentile(&v, 0.5), 1.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }
}

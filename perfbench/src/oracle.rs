//! The commit-log oracle.
//!
//! Checks every honest replica's commit log (microblock ids for S-HS)
//! for the SMR invariants and classifies each committed entry instead of
//! aborting, so a defect shows up as a share of failed operations:
//!
//! * **duplicate** — the id appears more than once in some honest log;
//! * **gap** — the id is in some honest log but missing from another;
//! * **divergent** — among entries that pass the two checks above, the
//!   id sits at a different position on some replica than on replica 0;
//! * **agreed** — none of the above: committed exactly once, at the
//!   same position of the filtered log, on every honest replica.
//!
//! It also judges each log as a whole: a log fails when it repeats an id
//! or differs from replica 0's log inside their common prefix.

use smp_types::TxId;
use std::collections::{HashMap, HashSet};

/// What the oracle found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Ids committed exactly once, in agreement.
    pub agreed: HashSet<TxId>,
    pub duplicate: HashSet<TxId>,
    pub gap: HashSet<TxId>,
    pub divergent: HashSet<TxId>,
    /// Per honest replica: the first raw index where its log differs
    /// from replica 0's (`None` when one is a prefix of the other).
    pub first_divergence: Vec<Option<usize>>,
    /// Per honest replica: its log repeats an id or has a first
    /// divergence.
    pub log_failed: Vec<bool>,
    /// Observer log entries that repeat an earlier entry.
    pub observer_repeats: usize,
    pub observer_entries: usize,
}

/// Classifies the ids in `logs` (honest replicas only; `logs[0]` is the
/// observer).
pub fn check(logs: &[&[TxId]]) -> Verdict {
    let mut v = Verdict::default();
    let Some(l0) = logs.first() else {
        return v;
    };
    let mut seen_in = HashMap::<TxId, usize>::new();
    let mut repeats = Vec::with_capacity(logs.len());
    for log in logs {
        let mut counts = HashMap::<TxId, u32>::with_capacity(log.len());
        for id in log.iter() {
            *counts.entry(*id).or_default() += 1;
        }
        repeats.push(counts.len() < log.len());
        for (id, c) in counts {
            if c > 1 {
                v.duplicate.insert(id);
            }
            *seen_in.entry(id).or_default() += 1;
        }
    }
    for (id, replicas) in &seen_in {
        if *replicas < logs.len() && !v.duplicate.contains(id) {
            v.gap.insert(*id);
        }
    }
    let clean = |log: &[TxId]| -> Vec<TxId> {
        log.iter()
            .filter(|id| !v.duplicate.contains(id) && !v.gap.contains(id))
            .copied()
            .collect()
    };
    let f0 = clean(l0);
    let pos0: HashMap<TxId, usize> = f0.iter().enumerate().map(|(i, id)| (*id, i)).collect();
    for log in &logs[1..] {
        for (i, id) in clean(log).iter().enumerate() {
            if pos0.get(id) != Some(&i) {
                v.divergent.insert(*id);
            }
        }
    }
    v.agreed = f0
        .into_iter()
        .filter(|id| !v.divergent.contains(id))
        .collect();
    v.first_divergence = logs
        .iter()
        .map(|log| {
            let m = log.len().min(l0.len());
            (0..m).find(|&k| log[k] != l0[k])
        })
        .collect();
    v.log_failed = repeats
        .iter()
        .zip(&v.first_divergence)
        .map(|(r, d)| *r || d.is_some())
        .collect();
    v.observer_entries = l0.len();
    v.observer_repeats = l0.len() - l0.iter().collect::<HashSet<_>>().len();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u64]) -> Vec<TxId> {
        xs.iter()
            .map(|x| TxId(smp_crypto::Digest::of_u64(*x)))
            .collect()
    }

    #[test]
    fn identical_logs_agree_everywhere() {
        let a = ids(&[1, 2, 3]);
        let v = check(&[&a, &a.clone()]);
        assert_eq!(v.agreed.len(), 3);
        assert!(v.duplicate.is_empty() && v.gap.is_empty() && v.divergent.is_empty());
        assert_eq!(v.first_divergence, vec![None, None]);
        assert_eq!(v.log_failed, vec![false, false]);
    }

    #[test]
    fn each_violation_fails_only_its_own_entries() {
        let a = ids(&[1, 2, 3, 4, 5, 6]);
        // Replica 1 repeats 2, misses 4 and swaps 5 and 6.
        let b = ids(&[1, 2, 2, 3, 6, 5]);
        let v = check(&[&a, &b]);
        assert_eq!(v.duplicate, ids(&[2]).into_iter().collect());
        assert_eq!(v.gap, ids(&[4]).into_iter().collect());
        assert_eq!(v.divergent, ids(&[5, 6]).into_iter().collect());
        assert_eq!(v.agreed, ids(&[1, 3]).into_iter().collect());
        assert_eq!(v.first_divergence, vec![None, Some(2)]);
        assert_eq!(v.log_failed, vec![false, true]);
    }

    #[test]
    fn a_shorter_log_that_is_a_prefix_passes() {
        let a = ids(&[1, 2, 3]);
        let b = ids(&[1, 2]);
        let c = ids(&[1, 2, 2]);
        let v = check(&[&a, &b, &c]);
        assert_eq!(v.log_failed, vec![false, false, true]);
    }

    #[test]
    fn observer_repeats_are_counted() {
        let a = ids(&[1, 2, 1]);
        let v = check(&[&a]);
        assert_eq!(v.observer_repeats, 1);
        assert_eq!(v.log_failed, vec![true]);
        assert_eq!(v.duplicate, ids(&[1]).into_iter().collect());
        assert_eq!(v.agreed, ids(&[2]).into_iter().collect());
    }
}

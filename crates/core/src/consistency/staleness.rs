//! Staleness accounting for lazy replication: which reads observed a
//! value that was already overwritten, in real time, when the read began?
//!
//! The paper motivates lazy techniques with response time and mobile
//! clients but notes that "since copies are allowed to diverge,
//! inconsistencies might occur" (Section 4.2). This oracle quantifies
//! that: a committed read is *stale* if, at its invocation, some write of
//! a different value to the same item had already completed and no
//! overlapping write could explain the observed value.

use std::collections::HashMap;

use repl_db::{Key, Value};
use repl_sim::SimTime;
use repl_workload::OpTemplate;

use crate::client::OpRecord;

/// A detected stale read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleRead {
    /// The reading client.
    pub client: u32,
    /// The item.
    pub key: Key,
    /// What the read observed.
    pub observed: Value,
    /// The freshest value that had been committed before the read began.
    pub freshest: Value,
    /// When the read was invoked.
    pub at: SimTime,
}

/// Counts stale reads among the given client records (single-operation
/// reads only; conservative: a read overlapping a write of its observed
/// value is never counted stale).
pub fn count_stale_reads(records: &[(u32, OpRecord)]) -> Vec<StaleRead> {
    // Collect committed writes per key: (invoke, response, value).
    let mut writes: HashMap<Key, Vec<(SimTime, SimTime, Value)>> = HashMap::new();
    for (_, rec) in records {
        if !rec.committed() {
            continue;
        }
        let Some(responded) = rec.responded else {
            continue;
        };
        for op in rec.txn.ops.iter() {
            if let OpTemplate::Write(k, v) = *op {
                writes
                    .entry(k)
                    .or_default()
                    .push((rec.invoked, responded, v));
            }
        }
    }
    let mut stale = Vec::new();
    for (client, rec) in records {
        if rec.txn.ops.len() != 1 || !rec.committed() {
            continue;
        }
        let OpTemplate::Read(key) = rec.txn.ops[0] else {
            continue;
        };
        let Some(responded) = rec.responded else {
            continue;
        };
        let observed = rec
            .response
            .as_ref()
            .and_then(|r| r.reads.first().map(|&(_, v)| v))
            .unwrap_or(Value(0));
        let Some(key_writes) = writes.get(&key) else {
            continue; // never written; reads of the initial value are fresh
        };
        // Writes completed strictly before the read began.
        let completed: Vec<&(SimTime, SimTime, Value)> = key_writes
            .iter()
            .filter(|(_, wr, _)| *wr < rec.invoked)
            .collect();
        let Some(latest) = completed.iter().max_by_key(|(_, wr, _)| *wr) else {
            continue; // nothing committed before: anything observed is fresh
        };
        // A completed write is *possibly latest* if no other completed
        // write started strictly after it finished: concurrent completed
        // writes may linearize in either order, so any of them is fresh.
        let possibly_latest =
            |w: &(SimTime, SimTime, Value)| !completed.iter().any(|w2| w2.0 > w.1);
        let fresh = completed
            .iter()
            .any(|w| w.2 == observed && possibly_latest(w));
        // A write overlapping the read interval also explains the value.
        let overlapping = key_writes
            .iter()
            .any(|(wi, wr, v)| *v == observed && *wi <= responded && *wr >= rec.invoked);
        if !fresh && !overlapping {
            stale.push(StaleRead {
                client: *client,
                key,
                observed,
                freshest: latest.2,
                at: rec.invoked,
            });
        }
    }
    stale
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_workload::TxnTemplate;

    fn rec(
        txn: Vec<OpTemplate>,
        invoked: u64,
        responded: u64,
        reads: Vec<(Key, Value)>,
    ) -> OpRecord {
        OpRecord {
            op: crate::OpId(0),
            txn: TxnTemplate { ops: txn.into() },
            invoked: SimTime::from_ticks(invoked),
            responded: Some(SimTime::from_ticks(responded)),
            response: Some(crate::Response {
                op: crate::OpId(0),
                committed: true,
                reads,
            }),
            retries: 0,
        }
    }

    #[test]
    fn fresh_read_is_not_stale() {
        let records = vec![
            (
                0,
                rec(vec![OpTemplate::Write(Key(0), Value(5))], 0, 10, vec![]),
            ),
            (
                1,
                rec(
                    vec![OpTemplate::Read(Key(0))],
                    20,
                    30,
                    vec![(Key(0), Value(5))],
                ),
            ),
        ];
        assert!(count_stale_reads(&records).is_empty());
    }

    #[test]
    fn old_value_after_completed_write_is_stale() {
        let records = vec![
            (
                0,
                rec(vec![OpTemplate::Write(Key(0), Value(5))], 0, 10, vec![]),
            ),
            (
                1,
                rec(
                    vec![OpTemplate::Read(Key(0))],
                    20,
                    30,
                    vec![(Key(0), Value(0))],
                ),
            ),
        ];
        let stale = count_stale_reads(&records);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].observed, Value(0));
        assert_eq!(stale[0].freshest, Value(5));
    }

    #[test]
    fn read_before_any_write_is_fresh() {
        let records = vec![
            (
                1,
                rec(
                    vec![OpTemplate::Read(Key(0))],
                    0,
                    5,
                    vec![(Key(0), Value(0))],
                ),
            ),
            (
                0,
                rec(vec![OpTemplate::Write(Key(0), Value(5))], 10, 20, vec![]),
            ),
        ];
        assert!(count_stale_reads(&records).is_empty());
    }

    #[test]
    fn overlapping_write_explains_observation() {
        // Write of 7 overlaps the read; observing 7 is fresh even though
        // the latest *completed* write was 5.
        let records = vec![
            (
                0,
                rec(vec![OpTemplate::Write(Key(0), Value(5))], 0, 10, vec![]),
            ),
            (
                0,
                rec(vec![OpTemplate::Write(Key(0), Value(7))], 20, 60, vec![]),
            ),
            (
                1,
                rec(
                    vec![OpTemplate::Read(Key(0))],
                    30,
                    40,
                    vec![(Key(0), Value(7))],
                ),
            ),
        ];
        assert!(count_stale_reads(&records).is_empty());
    }

    #[test]
    fn uncommitted_and_multiop_records_are_ignored() {
        let mut aborted = rec(
            vec![OpTemplate::Read(Key(0))],
            20,
            30,
            vec![(Key(0), Value(0))],
        );
        aborted.response.as_mut().expect("present").committed = false;
        let records = vec![
            (
                0,
                rec(vec![OpTemplate::Write(Key(0), Value(5))], 0, 10, vec![]),
            ),
            (1, aborted),
            (
                2,
                rec(
                    vec![OpTemplate::Read(Key(0)), OpTemplate::Read(Key(1))],
                    20,
                    30,
                    vec![(Key(0), Value(0)), (Key(1), Value(0))],
                ),
            ),
        ];
        assert!(count_stale_reads(&records).is_empty());
    }
}

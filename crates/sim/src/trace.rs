//! Run traces: a chronological record of everything observable in a run.
//!
//! The trace is the raw material for regenerating the paper's figures:
//! protocol implementations mark the five functional phases with
//! [`TraceEvent::Mark`] records, and the harness reconstructs the phase
//! diagrams (Figs. 2–4, 7–14) from them.

use crate::ids::NodeId;
use crate::time::SimTime;

/// One observable event in a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message left `node` towards `to`.
    MsgSent {
        /// Destination node.
        to: NodeId,
        /// Approximate payload size.
        bytes: usize,
    },
    /// A message from `from` was handed to `node`'s actor.
    MsgDelivered {
        /// Originating node.
        from: NodeId,
        /// Approximate payload size.
        bytes: usize,
    },
    /// A message was lost (network loss, partition, or dead destination).
    MsgDropped {
        /// Intended destination.
        to: NodeId,
    },
    /// The node crashed.
    Crashed,
    /// The node recovered from a crash.
    Recovered,
    /// The node's local storage volume was lost (disaster fault): its
    /// WAL and versioned store are gone, and the node is down until a
    /// scheduled recovery restores it from a durable tier.
    VolumeLost,
    /// A dormant node spawned mid-run (elastic membership: a brand-new
    /// site booting to start its online join).
    Spawned,
    /// A planned decommission (drain) fired at the node. The node stays
    /// up; the record marks when it began leaving the group.
    Drained,
    /// A scheduled network fault was applied. Global faults (partitions,
    /// heals) are recorded against node 0; link faults against the link's
    /// source node.
    NetFault {
        /// Fault kind: `"partition"`, `"heal"`, `"degrade"` (a cut link
        /// too) or `"restore"`.
        kind: &'static str,
    },
    /// An application-level marker. Replication protocols use `tag` for the
    /// functional-model phase name (`"RE"`, `"SC"`, `"EX"`, `"AC"`, `"END"`)
    /// and `a` for the operation id; `b` is free-form per protocol.
    Mark {
        /// Marker kind, e.g. a phase name.
        tag: &'static str,
        /// First payload word (operation id by convention).
        a: u64,
        /// Second payload word (protocol-specific).
        b: u64,
    },
}

/// A trace record: when, where, what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time of the event.
    pub time: SimTime,
    /// The node at which the event happened.
    pub node: NodeId,
    /// The event itself.
    pub event: TraceEvent,
}

/// An append-only chronological log of [`TraceRecord`]s.
///
/// # Examples
///
/// ```
/// use repl_sim::{TraceLog, TraceEvent, NodeId, SimTime};
///
/// let mut log = TraceLog::new();
/// log.push(SimTime::ZERO, NodeId::new(0), TraceEvent::Mark { tag: "RE", a: 1, b: 0 });
/// assert_eq!(log.len(), 1);
/// assert_eq!(log.marks("RE").count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    records: Vec<TraceRecord>,
    enabled: bool,
}

impl TraceLog {
    /// Creates an empty, enabled trace log.
    pub fn new() -> Self {
        TraceLog {
            records: Vec::new(),
            enabled: true,
        }
    }

    /// Creates an enabled trace log with room for `capacity` records, so
    /// steady-state recording never reallocates mid-run.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceLog {
            records: Vec::with_capacity(capacity),
            enabled: true,
        }
    }

    /// Enables or disables recording. Benchmarks disable tracing to keep
    /// the measurement free of allocation noise.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Returns true if recording is enabled.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends a record (no-op when disabled).
    #[inline]
    pub fn push(&mut self, time: SimTime, node: NodeId, event: TraceEvent) {
        if self.enabled {
            self.records.push(TraceRecord { time, node, event });
        }
    }

    /// Appends a record without checking [`is_enabled`](Self::is_enabled).
    ///
    /// Hot paths guard on `is_enabled()` themselves so a disabled log
    /// costs one predictable branch and the event is never even built.
    #[inline]
    pub fn record(&mut self, time: SimTime, node: NodeId, event: TraceEvent) {
        self.records.push(TraceRecord { time, node, event });
    }

    /// Records currently allocatable without reallocation.
    pub fn capacity(&self) -> usize {
        self.records.capacity()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns true if the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over all records in chronological order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Iterates over the [`TraceEvent::Mark`] records with the given tag,
    /// yielding `(record, a, b)`.
    pub fn marks<'a>(
        &'a self,
        tag: &'static str,
    ) -> impl Iterator<Item = (&'a TraceRecord, u64, u64)> + 'a {
        self.records.iter().filter_map(move |r| match r.event {
            TraceEvent::Mark { tag: t, a, b } if t == tag => Some((r, a, b)),
            _ => None,
        })
    }

    /// Clears all records.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// A 64-bit FNV-1a digest of the full log: every record's time, node
    /// and event, in order. Two runs with the same seed must produce the
    /// same hash — the determinism oracle compares these across serial
    /// and parallel execution.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv1a::default();
        let mut mix = |v: u64| h.mix(v);
        for r in &self.records {
            mix(r.time.ticks());
            mix(r.node.raw() as u64);
            match &r.event {
                TraceEvent::MsgSent { to, bytes } => {
                    mix(1);
                    mix(to.raw() as u64);
                    mix(*bytes as u64);
                }
                TraceEvent::MsgDelivered { from, bytes } => {
                    mix(2);
                    mix(from.raw() as u64);
                    mix(*bytes as u64);
                }
                TraceEvent::MsgDropped { to } => {
                    mix(3);
                    mix(to.raw() as u64);
                }
                TraceEvent::Crashed => mix(4),
                TraceEvent::Recovered => mix(5),
                TraceEvent::VolumeLost => mix(8),
                TraceEvent::Spawned => mix(9),
                TraceEvent::Drained => mix(10),
                TraceEvent::NetFault { kind } => {
                    mix(6);
                    for b in kind.bytes() {
                        mix(b as u64);
                    }
                }
                TraceEvent::Mark { tag, a, b } => {
                    mix(7);
                    for byte in tag.bytes() {
                        mix(byte as u64);
                    }
                    mix(*a);
                    mix(*b);
                }
            }
        }
        h.finish()
    }
}

impl<'a> IntoIterator for &'a TraceLog {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

/// The 64-bit FNV-1a mixer behind every trace hash, run digest and
/// histogram fingerprint; a word is mixed as its little-endian bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `v` into the hash.
    pub fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The hash of everything mixed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_filter_marks() {
        let mut log = TraceLog::new();
        log.push(
            SimTime::from_ticks(1),
            NodeId::new(0),
            TraceEvent::Mark {
                tag: "RE",
                a: 7,
                b: 0,
            },
        );
        log.push(
            SimTime::from_ticks(2),
            NodeId::new(1),
            TraceEvent::Mark {
                tag: "EX",
                a: 7,
                b: 0,
            },
        );
        log.push(
            SimTime::from_ticks(3),
            NodeId::new(1),
            TraceEvent::MsgSent {
                to: NodeId::new(0),
                bytes: 10,
            },
        );
        assert_eq!(log.len(), 3);
        let re: Vec<_> = log.marks("RE").collect();
        assert_eq!(re.len(), 1);
        assert_eq!(re[0].1, 7);
        assert_eq!(log.marks("EX").count(), 1);
        assert_eq!(log.marks("AC").count(), 0);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::new();
        log.set_enabled(false);
        assert!(!log.is_enabled());
        log.push(SimTime::ZERO, NodeId::new(0), TraceEvent::Crashed);
        assert!(log.is_empty());
    }

    #[test]
    fn disabled_log_allocates_no_memory() {
        let mut log = TraceLog::new();
        log.set_enabled(false);
        for i in 0..1000 {
            log.push(SimTime::from_ticks(i), NodeId::new(0), TraceEvent::Crashed);
        }
        assert_eq!(log.capacity(), 0, "disabled runs must not buy trace memory");
    }

    #[test]
    fn with_capacity_presizes_the_record_buffer() {
        let mut log = TraceLog::with_capacity(256);
        let cap = log.capacity();
        assert!(cap >= 256);
        for i in 0..256 {
            log.push(
                SimTime::from_ticks(i),
                NodeId::new(0),
                TraceEvent::Recovered,
            );
        }
        assert_eq!(log.capacity(), cap, "pre-sized pushes must not reallocate");
        assert_eq!(log.len(), 256);
    }

    #[test]
    fn iteration_is_chronological_insertion_order() {
        let mut log = TraceLog::new();
        for i in 0..5 {
            log.push(SimTime::from_ticks(i), NodeId::new(0), TraceEvent::Crashed);
        }
        let times: Vec<u64> = log.iter().map(|r| r.time.ticks()).collect();
        assert_eq!(times, vec![0, 1, 2, 3, 4]);
        let times2: Vec<u64> = (&log).into_iter().map(|r| r.time.ticks()).collect();
        assert_eq!(times, times2);
    }

    #[test]
    fn hash_distinguishes_logs_and_is_stable() {
        let mut a = TraceLog::new();
        let mut b = TraceLog::new();
        assert_eq!(a.hash(), b.hash(), "empty logs hash alike");
        for log in [&mut a, &mut b] {
            log.push(
                SimTime::from_ticks(5),
                NodeId::new(1),
                TraceEvent::MsgSent {
                    to: NodeId::new(2),
                    bytes: 64,
                },
            );
        }
        assert_eq!(a.hash(), b.hash(), "identical logs hash alike");
        b.push(SimTime::from_ticks(6), NodeId::new(1), TraceEvent::Crashed);
        assert_ne!(a.hash(), b.hash(), "extra record changes the hash");
        let mut c = TraceLog::new();
        c.push(
            SimTime::from_ticks(5),
            NodeId::new(1),
            TraceEvent::MsgDropped { to: NodeId::new(2) },
        );
        assert_ne!(a.hash(), c.hash(), "different event kinds hash apart");
    }

    #[test]
    fn clear_empties_log() {
        let mut log = TraceLog::new();
        log.push(SimTime::ZERO, NodeId::new(0), TraceEvent::Recovered);
        log.clear();
        assert!(log.is_empty());
    }
}

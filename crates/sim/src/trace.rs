//! Run traces: a running hash of everything observable in a run, and the
//! records read back after it.
//!
//! Every record — send, delivery, fault, phase mark — is folded into the
//! log's FNV-1a hash as it is recorded; the determinism oracle compares
//! those hashes. Only the [`TraceEvent::Mark`] records, from which the
//! harness reconstructs the phase diagrams (Figs. 2–4, 7–14), and the
//! fault records are kept: a traced run's memory grows with its marks,
//! not with its messages.

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

impl TraceEvent {
    /// Folds the event's kind and fields into `h`.
    #[inline]
    fn fold(&self, h: &mut Fnv1a) {
        match self {
            TraceEvent::MsgSent { to, bytes } => {
                h.mix(1);
                h.mix(to.raw() as u64);
                h.mix(*bytes as u64);
            }
            TraceEvent::MsgDelivered { from, bytes } => {
                h.mix(2);
                h.mix(from.raw() as u64);
                h.mix(*bytes as u64);
            }
            TraceEvent::MsgDropped { to } => {
                h.mix(3);
                h.mix(to.raw() as u64);
            }
            TraceEvent::Crashed => h.mix(4),
            TraceEvent::Recovered => h.mix(5),
            TraceEvent::VolumeLost => h.mix(8),
            TraceEvent::Spawned => h.mix(9),
            TraceEvent::Drained => h.mix(10),
            TraceEvent::NetFault { kind } => {
                h.mix(6);
                for b in kind.bytes() {
                    h.mix(b as u64);
                }
            }
            TraceEvent::Mark { tag, a, b } => {
                h.mix(7);
                for byte in tag.bytes() {
                    h.mix(byte as u64);
                }
                h.mix(*a);
                h.mix(*b);
            }
        }
    }
}

/// A run's trace: the hash of every record, in order, and the marks and
/// fault records themselves.
///
/// # Examples
///
/// ```
/// use repl_sim::{TraceLog, TraceEvent, NodeId, SimTime};
///
/// let mut log = TraceLog::new();
/// log.push(SimTime::ZERO, NodeId::new(0), TraceEvent::Mark { tag: "RE", a: 1, b: 0 });
/// log.push(SimTime::ZERO, NodeId::new(0), TraceEvent::MsgSent { to: NodeId::new(1), bytes: 8 });
/// assert_eq!(log.len(), 1, "a send is hashed, not kept");
/// assert_eq!(log.marks("RE").count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    records: Vec<TraceRecord>,
    running: Fnv1a,
    enabled: bool,
}

impl TraceLog {
    /// Creates an empty, enabled trace log.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an enabled trace log with room for `capacity` marks and
    /// fault records, so steady-state recording never reallocates mid-run.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceLog {
            records: Vec::with_capacity(capacity),
            running: Fnv1a::default(),
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

    /// Records an event (no-op when disabled).
    #[inline]
    pub fn push(&mut self, time: SimTime, node: NodeId, event: TraceEvent) {
        if self.enabled {
            self.record(time, node, event);
        }
    }

    /// Records an event without checking [`is_enabled`](Self::is_enabled):
    /// hashes it, and keeps it if it is a mark or a fault record.
    ///
    /// Hot paths guard on `is_enabled()` themselves so a disabled log
    /// costs one predictable branch and the event is never even built.
    #[inline]
    pub fn record(&mut self, time: SimTime, node: NodeId, event: TraceEvent) {
        self.running.mix(time.ticks());
        self.running.mix(node.raw() as u64);
        event.fold(&mut self.running);
        // Marks and fault records are read after a run; messages by nothing.
        if !matches!(
            event,
            TraceEvent::MsgSent { .. } | TraceEvent::MsgDelivered { .. }
        ) {
            self.records.push(TraceRecord { time, node, event });
        }
    }

    /// Kept records allocatable without reallocation.
    pub fn capacity(&self) -> usize {
        self.records.capacity()
    }

    /// Number of kept records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns true if the log keeps no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the kept records in chronological order.
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

    /// Clears all records and resets the hash to the empty log's.
    pub fn clear(&mut self) {
        self.records.clear();
        self.running = Fnv1a::default();
    }

    /// A 64-bit FNV-1a digest of every record so far, kept or not: each
    /// one's time, node and event, in order. Two runs with the same seed
    /// must produce the same hash — the determinism oracle compares these
    /// across serial and parallel execution.
    pub fn hash(&self) -> u64 {
        self.running.finish()
    }
}

impl<'a> IntoIterator for &'a TraceLog {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// `ZERO_RUN[k]` is `FNV_PRIME^k`: mixing `k` zero bytes multiplies the
/// hash by it, since `h ^ 0 == h`.
const ZERO_RUN: [u64; 9] = {
    let mut t = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        t[k] = t[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    t
};

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
    /// Folds `v` into the hash: its significant low bytes one at a time,
    /// then its zero high bytes in one multiply.
    #[inline]
    pub fn mix(&mut self, mut v: u64) {
        let significant = (71 - v.leading_zeros()) / 8;
        let mut h = self.0;
        for _ in 0..significant {
            h = (h ^ (v & 0xff)).wrapping_mul(FNV_PRIME);
            v >>= 8;
        }
        self.0 = h.wrapping_mul(ZERO_RUN[(8 - significant) as usize]);
    }

    /// The hash of everything mixed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a as specified: every byte of `v`, one at a time.
    fn mix_bytewise(h: u64, v: u64) -> u64 {
        v.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
    }

    /// The digest as a walk over a whole transcript, with the byte-wise
    /// mixer: what the running hash must equal.
    fn reference_hash(records: &[TraceRecord]) -> u64 {
        let mut h = Fnv1a::default().finish();
        let mut mix = |v: u64| h = mix_bytewise(h, v);
        for r in records {
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
        h
    }

    /// One record of each of the eleven event kinds, with wide and zero
    /// fields.
    fn every_kind() -> Vec<TraceRecord> {
        let n = NodeId::new;
        let events = [
            TraceEvent::MsgSent {
                to: n(2),
                bytes: 64,
            },
            TraceEvent::MsgDelivered {
                from: n(1),
                bytes: 1 << 20,
            },
            TraceEvent::MsgDropped { to: n(300) },
            TraceEvent::Crashed,
            TraceEvent::Recovered,
            TraceEvent::VolumeLost,
            TraceEvent::Spawned,
            TraceEvent::Drained,
            TraceEvent::NetFault { kind: "partition" },
            TraceEvent::Mark {
                tag: "END",
                a: u64::MAX,
                b: 0,
            },
            TraceEvent::Mark {
                tag: "SC",
                a: 7,
                b: 1 << 56,
            },
        ];
        events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TraceRecord {
                time: SimTime::from_ticks(1_000_003 * i as u64),
                node: n(i as u32 * 37),
                event,
            })
            .collect()
    }

    fn log_of(records: &[TraceRecord]) -> TraceLog {
        let mut log = TraceLog::new();
        for r in records {
            log.push(r.time, r.node, r.event.clone());
        }
        log
    }

    proptest::proptest! {
        #[test]
        fn mix_equals_the_bytewise_fold(v in proptest::prelude::any::<u64>(), h in proptest::prelude::any::<u64>()) {
            let mut fast = Fnv1a(h);
            fast.mix(v);
            proptest::prop_assert_eq!(fast.finish(), mix_bytewise(h, v));
        }
    }

    #[test]
    fn mix_equals_the_bytewise_fold_on_edge_words() {
        let words = [
            0,
            1,
            0xff,
            0x100,
            u64::MAX,
            1 << 56,
            1 << 63,
            0x00ff_0000_0000_00ff,
            0x0100_0000_0000_0001,
            0x1200_3400_0056_0078,
            0x0000_00ab_0000_cd00,
        ];
        for h in [Fnv1a::default().finish(), 0, u64::MAX] {
            for v in words {
                let mut fast = Fnv1a(h);
                fast.mix(v);
                assert_eq!(fast.finish(), mix_bytewise(h, v), "h {h:#x}, v {v:#x}");
            }
        }
    }

    #[test]
    fn running_hash_equals_a_walk_over_the_whole_transcript() {
        let records = every_kind();
        let log = log_of(&records);
        assert_eq!(log.hash(), reference_hash(&records));
        assert_eq!(TraceLog::new().hash(), reference_hash(&[]));
    }

    #[test]
    fn sends_and_deliveries_are_hashed_and_not_kept() {
        let records = every_kind();
        let log = log_of(&records);
        assert_eq!(log.len(), records.len() - 2);
        let kept: Vec<_> = records.iter().skip(2).cloned().collect();
        assert_eq!(log.iter().cloned().collect::<Vec<_>>(), kept);
        assert_ne!(log.hash(), log_of(&kept).hash());
    }

    #[test]
    fn a_message_field_changes_the_hash() {
        let base = every_kind();
        let hash = log_of(&base).hash();
        let altered = |i: usize, f: &dyn Fn(&mut TraceRecord)| {
            let mut records = base.clone();
            f(&mut records[i]);
            log_of(&records).hash()
        };
        let peer = |r: &mut TraceRecord| match &mut r.event {
            TraceEvent::MsgSent { to: p, .. } | TraceEvent::MsgDelivered { from: p, .. } => {
                *p = NodeId::new(p.raw() + 1)
            }
            _ => unreachable!(),
        };
        let bytes = |r: &mut TraceRecord| match &mut r.event {
            TraceEvent::MsgSent { bytes, .. } | TraceEvent::MsgDelivered { bytes, .. } => {
                *bytes += 1
            }
            _ => unreachable!(),
        };
        let time = |r: &mut TraceRecord| r.time = SimTime::from_ticks(r.time.ticks() + 1);
        for i in [0, 1] {
            assert_ne!(altered(i, &peer), hash, "record {i}: peer");
            assert_ne!(altered(i, &bytes), hash, "record {i}: bytes");
            assert_ne!(altered(i, &time), hash, "record {i}: time");
        }
    }

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
        let marks_only = log.hash();
        log.push(
            SimTime::from_ticks(3),
            NodeId::new(1),
            TraceEvent::MsgSent {
                to: NodeId::new(0),
                bytes: 10,
            },
        );
        // The send is in the hash; only the marks are kept.
        assert_ne!(log.hash(), marks_only);
        assert_eq!(log.len(), 2);
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
        assert_eq!(log.hash(), TraceLog::new().hash(), "folded a record");
    }

    #[test]
    fn disabled_log_allocates_no_memory() {
        let mut log = TraceLog::new();
        log.set_enabled(false);
        for r in every_kind().into_iter().cycle().take(1000) {
            log.push(r.time, r.node, r.event);
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
        log.push(
            SimTime::ZERO,
            NodeId::new(0),
            TraceEvent::MsgDelivered {
                from: NodeId::new(1),
                bytes: 8,
            },
        );
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.hash(), TraceLog::new().hash(), "clear keeps the hash");
        let records = every_kind();
        for r in &records {
            log.push(r.time, r.node, r.event.clone());
        }
        assert_eq!(log.hash(), reference_hash(&records));
    }
}

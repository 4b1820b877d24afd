//! The five-phase functional model (paper Section 2.2, Figure 1).
//!
//! Every replication protocol is described as a sequence of five generic
//! phases. Protocol implementations in this crate *mark* each phase in the
//! simulator trace as they pass through it; the figure generators then
//! reconstruct the paper's phase diagrams (Figures 2–4, 7–14) from actual
//! executions instead of transcribing them.

use std::fmt;

use repl_sim::{SimTime, TraceEvent, TraceLog};

use crate::op::OpId;

/// One of the five phases of the functional model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Request: the client submits an operation (RE).
    Request,
    /// Server coordination: replicas order the operation (SC).
    ServerCoordination,
    /// Execution: the operation is performed (EX).
    Execution,
    /// Agreement coordination: replicas agree on the result (AC).
    AgreementCoordination,
    /// Response: the outcome reaches the client (END).
    Response,
}

impl Phase {
    /// All phases, in canonical order.
    pub const ALL: [Phase; 5] = [
        Phase::Request,
        Phase::ServerCoordination,
        Phase::Execution,
        Phase::AgreementCoordination,
        Phase::Response,
    ];

    /// The paper's abbreviation for the phase.
    pub fn tag(self) -> &'static str {
        match self {
            Phase::Request => "RE",
            Phase::ServerCoordination => "SC",
            Phase::Execution => "EX",
            Phase::AgreementCoordination => "AC",
            Phase::Response => "END",
        }
    }

    /// Parses the paper's abbreviation.
    pub fn from_tag(tag: &str) -> Option<Phase> {
        Some(match tag {
            "RE" => Phase::Request,
            "SC" => Phase::ServerCoordination,
            "EX" => Phase::Execution,
            "AC" => Phase::AgreementCoordination,
            "END" => Phase::Response,
            _ => return None,
        })
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A phase marker extracted from a run trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseMark {
    /// When the phase was entered.
    pub time: SimTime,
    /// The operation it belongs to.
    pub op: OpId,
    /// The phase.
    pub phase: Phase,
}

/// The phase skeleton of a protocol: the order in which an operation
/// passes through the phases, with repeats collapsed to one entry each
/// unless they alternate (multi-operation loops keep their structure).
///
/// # Examples
///
/// ```
/// use repl_core::{PhaseSkeleton, Phase};
///
/// let s = PhaseSkeleton::new(vec![
///     Phase::Request,
///     Phase::ServerCoordination,
///     Phase::Execution,
///     Phase::Response,
/// ]);
/// assert_eq!(s.to_string(), "RE SC EX END");
/// assert!(!s.has_loop());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PhaseSkeleton {
    phases: Vec<Phase>,
}

impl PhaseSkeleton {
    /// Builds a skeleton from an already-collapsed phase sequence.
    pub fn new(phases: Vec<Phase>) -> Self {
        PhaseSkeleton { phases }
    }

    /// The phases in order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Collapses a raw, chronologically ordered phase stream: adjacent
    /// duplicates merge (several replicas marking EX is still one EX
    /// phase), non-adjacent repeats are kept (the Section 5 loops).
    pub fn from_stream(stream: &[Phase]) -> Self {
        let mut phases: Vec<Phase> = Vec::new();
        for &p in stream {
            if phases.last() != Some(&p) {
                phases.push(p);
            }
        }
        PhaseSkeleton { phases }
    }

    /// True if the operation's response precedes its agreement
    /// coordination — the definition of a *lazy* technique (Section 4.5).
    pub fn responds_before_agreement(&self) -> bool {
        let end = self.phases.iter().position(|&p| p == Phase::Response);
        let ac = self
            .phases
            .iter()
            .position(|&p| p == Phase::AgreementCoordination);
        match (end, ac) {
            (Some(e), Some(a)) => e < a,
            _ => false,
        }
    }

    /// True if any phase appears more than once (the multi-operation
    /// transaction loops of Section 5).
    pub fn has_loop(&self) -> bool {
        for (i, p) in self.phases.iter().enumerate() {
            if self.phases[i + 1..].contains(p) {
                return true;
            }
        }
        false
    }

    /// True if there is a synchronisation phase (SC or AC) before the
    /// response — the paper's Figure 15 condition for strong consistency.
    pub fn synchronises_before_response(&self) -> bool {
        for &p in &self.phases {
            match p {
                Phase::Response => return false,
                Phase::ServerCoordination | Phase::AgreementCoordination => return true,
                _ => {}
            }
        }
        false
    }
}

impl fmt::Display for PhaseSkeleton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for p in &self.phases {
            if !first {
                f.write_str(" ")?;
            }
            first = false;
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// All phase markers of a run, grouped per operation.
#[derive(Debug, Clone, Default)]
pub struct PhaseTrace {
    marks: Vec<PhaseMark>,
}

impl PhaseTrace {
    /// Extracts the phase markers from a simulator trace.
    pub fn from_trace(trace: &TraceLog) -> Self {
        let mut marks = Vec::with_capacity(trace.len());
        for rec in trace.iter() {
            if let TraceEvent::Mark { tag, a, .. } = rec.event {
                if let Some(phase) = Phase::from_tag(tag) {
                    marks.push(PhaseMark {
                        time: rec.time,
                        op: OpId(a),
                        phase,
                    });
                }
            }
        }
        PhaseTrace { marks }
    }

    /// All marks, chronologically.
    pub fn marks(&self) -> &[PhaseMark] {
        &self.marks
    }

    /// The ids of all operations that appear in the trace, ascending.
    pub fn ops(&self) -> Vec<OpId> {
        let mut v: Vec<OpId> = self.marks.iter().map(|m| m.op).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The collapsed phase skeleton of one operation.
    pub fn skeleton_of(&self, op: OpId) -> PhaseSkeleton {
        let stream: Vec<Phase> = self
            .marks
            .iter()
            .filter(|m| m.op == op)
            .map(|m| m.phase)
            .collect();
        PhaseSkeleton::from_stream(&stream)
    }

    /// The distinct skeletons across all operations, with occurrence
    /// counts, most frequent first (the protocol's canonical skeleton is
    /// the first entry).
    pub fn skeletons(&self) -> Vec<(PhaseSkeleton, usize)> {
        use std::collections::HashMap;
        let mut counts: HashMap<PhaseSkeleton, usize> = HashMap::new();
        for op in self.ops() {
            *counts.entry(self.skeleton_of(op)).or_insert(0) += 1;
        }
        let mut v: Vec<(PhaseSkeleton, usize)> = counts.into_iter().collect();
        v.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| a.0.to_string().cmp(&b.0.to_string()))
        });
        v
    }

    /// The most frequent skeleton, if any operation completed.
    pub fn canonical(&self) -> Option<PhaseSkeleton> {
        self.skeletons().into_iter().next().map(|(s, _)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_sim::NodeId;

    #[test]
    fn tags_roundtrip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_tag(p.tag()), Some(p));
        }
        assert_eq!(Phase::from_tag("XX"), None);
    }

    #[test]
    fn skeleton_collapses_adjacent_repeats_only() {
        use Phase::*;
        let s = PhaseSkeleton::from_stream(&[
            Request,
            ServerCoordination,
            Execution,
            Execution,
            Execution,
            AgreementCoordination,
            Execution, // loop back
            AgreementCoordination,
            Response,
        ]);
        assert_eq!(s.to_string(), "RE SC EX AC EX AC END");
        assert!(s.has_loop());
    }

    #[test]
    fn lazy_detection() {
        use Phase::*;
        let eager = PhaseSkeleton::new(vec![Request, Execution, AgreementCoordination, Response]);
        assert!(!eager.responds_before_agreement());
        let lazy = PhaseSkeleton::new(vec![Request, Execution, Response, AgreementCoordination]);
        assert!(lazy.responds_before_agreement());
        assert!(!lazy.synchronises_before_response());
        assert!(eager.synchronises_before_response());
    }

    #[test]
    fn trace_extraction_groups_by_op() {
        let mut log = TraceLog::new();
        let n = NodeId::new(0);
        log.push(
            SimTime::from_ticks(1),
            n,
            TraceEvent::Mark {
                tag: "RE",
                a: 1,
                b: 0,
            },
        );
        log.push(
            SimTime::from_ticks(2),
            n,
            TraceEvent::Mark {
                tag: "RE",
                a: 2,
                b: 0,
            },
        );
        log.push(
            SimTime::from_ticks(3),
            n,
            TraceEvent::Mark {
                tag: "EX",
                a: 1,
                b: 0,
            },
        );
        log.push(
            SimTime::from_ticks(4),
            n,
            TraceEvent::Mark {
                tag: "END",
                a: 1,
                b: 0,
            },
        );
        log.push(
            SimTime::from_ticks(5),
            n,
            TraceEvent::Mark {
                tag: "other",
                a: 1,
                b: 0,
            },
        );
        let pt = PhaseTrace::from_trace(&log);
        assert_eq!(pt.ops(), vec![OpId(1), OpId(2)]);
        assert_eq!(pt.skeleton_of(OpId(1)).to_string(), "RE EX END");
        assert_eq!(pt.skeleton_of(OpId(2)).to_string(), "RE");
        let canonical = pt.canonical().expect("ops present");
        assert_eq!(
            canonical.phases().len(),
            3.min(canonical.phases().len()).max(1)
        );
    }

    #[test]
    fn skeleton_counts_rank_most_frequent_first() {
        let mut log = TraceLog::new();
        let n = NodeId::new(0);
        for op in 0..3u64 {
            log.push(
                SimTime::from_ticks(op),
                n,
                TraceEvent::Mark {
                    tag: "RE",
                    a: op,
                    b: 0,
                },
            );
            log.push(
                SimTime::from_ticks(op + 10),
                n,
                TraceEvent::Mark {
                    tag: "END",
                    a: op,
                    b: 0,
                },
            );
        }
        log.push(
            SimTime::from_ticks(50),
            n,
            TraceEvent::Mark {
                tag: "RE",
                a: 9,
                b: 0,
            },
        );
        let pt = PhaseTrace::from_trace(&log);
        let sk = pt.skeletons();
        assert_eq!(sk[0].1, 3);
        assert_eq!(sk[0].0.to_string(), "RE END");
        assert_eq!(sk[1].1, 1);
    }
}

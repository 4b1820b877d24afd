//! Two-phase commit: the Agreement Coordination mechanism of the paper's
//! eager database techniques (Sections 4.3–4.4).
//!
//! Pure state machines — the replication protocols embed them in their
//! actors and carry the [`TpcMsg`]s inside their own wire types. Generic
//! over the participant id so they are usable both inside the simulator
//! (`NodeId`) and in plain unit tests (`u32`).

/// 2PC wire messages for one transaction (the transaction id is carried by
/// the embedding protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpcMsg {
    /// Coordinator → participant: request to prepare.
    Prepare,
    /// Participant → coordinator: ready to commit.
    VoteYes,
    /// Participant → coordinator: must abort.
    VoteNo,
    /// Coordinator → participant: global commit.
    GlobalCommit,
    /// Coordinator → participant: global abort.
    GlobalAbort,
}

/// The atomic-commitment outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpcDecision {
    /// All participants voted yes.
    Commit,
    /// Some participant voted no (or the coordinator aborted unilaterally).
    Abort,
}

/// Coordinator state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpcCoordState {
    /// Collecting votes.
    Voting,
    /// Decision reached.
    Decided(TpcDecision),
}

/// The coordinator side of 2PC for a single transaction.
///
/// # Examples
///
/// ```
/// use repl_db::{TpcCoordinator, TpcDecision};
///
/// let mut c = TpcCoordinator::new(vec![1u32, 2]);
/// assert_eq!(c.start(), vec![1, 2]); // send Prepare to both
/// assert_eq!(c.on_vote(1, true), None);
/// assert_eq!(c.on_vote(2, true), Some(TpcDecision::Commit));
/// ```
#[derive(Debug, Clone)]
pub struct TpcCoordinator<P> {
    /// Each participant with whether it voted yes, in the caller's
    /// order: `start` and `participants` echo it, so message emission is
    /// deterministic. A vote is recorded in place — one allocation per
    /// transaction, none per vote.
    votes: Vec<(P, bool)>,
    /// How many `votes` entries are yes.
    yes: usize,
    state: TpcCoordState,
}

impl<P: Copy + Eq> TpcCoordinator<P> {
    /// Creates a coordinator awaiting votes from `participants`, in their
    /// iteration order (a `Vec` works as well as an iterator).
    ///
    /// An empty participant set decides `Commit` immediately on `start`
    /// (the coordinator is the only site).
    pub fn new(participants: impl IntoIterator<Item = P>) -> Self {
        TpcCoordinator {
            votes: participants.into_iter().map(|p| (p, false)).collect(),
            yes: 0,
            state: TpcCoordState::Voting,
        }
    }

    /// Begins the protocol; returns the participants to send `Prepare` to,
    /// as an owned list so the caller can record votes while it sends.
    ///
    /// The replication protocols do not call it: they send `Prepare`
    /// over the cohort they built the coordinator from and commit an
    /// empty cohort themselves. Callers that drive the coordinator on its
    /// own, such as the `benchmark/` package's 2PC layer, do.
    pub fn start(&mut self) -> Vec<P> {
        if self.votes.is_empty() {
            self.state = TpcCoordState::Decided(TpcDecision::Commit);
        }
        self.participants().collect()
    }

    /// Records a vote. Returns the decision the moment it is reached
    /// (`Commit` after the last yes, `Abort` on the first no), `None`
    /// otherwise. Votes after the decision are ignored.
    pub fn on_vote(&mut self, from: P, yes: bool) -> Option<TpcDecision> {
        if self.state != TpcCoordState::Voting {
            return None;
        }
        let voted = self.votes.iter_mut().find(|(p, _)| *p == from)?;
        if !yes {
            self.state = TpcCoordState::Decided(TpcDecision::Abort);
            return Some(TpcDecision::Abort);
        }
        if !voted.1 {
            voted.1 = true;
            self.yes += 1;
        }
        if self.yes == self.votes.len() {
            self.state = TpcCoordState::Decided(TpcDecision::Commit);
            return Some(TpcDecision::Commit);
        }
        None
    }

    /// Aborts unilaterally (participant crash detected during voting).
    /// Returns `Some(Abort)` if this changed the state.
    pub fn abort(&mut self) -> Option<TpcDecision> {
        if self.state == TpcCoordState::Voting {
            self.state = TpcCoordState::Decided(TpcDecision::Abort);
            Some(TpcDecision::Abort)
        } else {
            None
        }
    }

    /// Current state.
    pub fn state(&self) -> TpcCoordState {
        self.state
    }

    /// The decision, if reached.
    pub fn decision(&self) -> Option<TpcDecision> {
        match self.state {
            TpcCoordState::Decided(d) => Some(d),
            TpcCoordState::Voting => None,
        }
    }

    /// The participant set, in the caller's order.
    pub fn participants(&self) -> impl Iterator<Item = P> + '_ {
        self.votes.iter().map(|&(p, _)| p)
    }

    /// Participants that have not voted yes yet.
    pub fn missing(&self) -> Vec<P>
    where
        P: Ord,
    {
        let mut v: Vec<P> = self
            .votes
            .iter()
            .filter(|(_, voted)| !voted)
            .map(|&(p, _)| p)
            .collect();
        v.sort();
        v
    }
}

/// Participant state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpcPartState {
    /// Not yet prepared.
    Working,
    /// Voted yes; blocked awaiting the decision (the classic 2PC window).
    Prepared,
    /// Learned the decision.
    Decided(TpcDecision),
}

/// The participant side of 2PC for a single transaction.
///
/// # Examples
///
/// ```
/// use repl_db::{TpcParticipant, TpcMsg, TpcDecision, TpcPartState};
///
/// let mut p = TpcParticipant::new();
/// assert_eq!(p.on_prepare(true), TpcMsg::VoteYes);
/// assert_eq!(p.state(), TpcPartState::Prepared);
/// p.on_decision(TpcDecision::Commit);
/// assert_eq!(p.state(), TpcPartState::Decided(TpcDecision::Commit));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct TpcParticipant {
    state: TpcPartStateInner,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum TpcPartStateInner {
    #[default]
    Working,
    Prepared,
    Decided(TpcDecision),
}

impl TpcParticipant {
    /// Creates a participant in the working state.
    pub fn new() -> Self {
        TpcParticipant::default()
    }

    /// Handles `Prepare`: votes yes if the local transaction can commit.
    pub fn on_prepare(&mut self, can_commit: bool) -> TpcMsg {
        match self.state {
            TpcPartStateInner::Working => {
                if can_commit {
                    self.state = TpcPartStateInner::Prepared;
                    TpcMsg::VoteYes
                } else {
                    self.state = TpcPartStateInner::Decided(TpcDecision::Abort);
                    TpcMsg::VoteNo
                }
            }
            TpcPartStateInner::Prepared => TpcMsg::VoteYes, // duplicate Prepare
            TpcPartStateInner::Decided(TpcDecision::Abort) => TpcMsg::VoteNo,
            TpcPartStateInner::Decided(TpcDecision::Commit) => TpcMsg::VoteYes,
        }
    }

    /// Records the global decision.
    pub fn on_decision(&mut self, d: TpcDecision) {
        self.state = TpcPartStateInner::Decided(d);
    }

    /// Current state.
    pub fn state(&self) -> TpcPartState {
        match self.state {
            TpcPartStateInner::Working => TpcPartState::Working,
            TpcPartStateInner::Prepared => TpcPartState::Prepared,
            TpcPartStateInner::Decided(d) => TpcPartState::Decided(d),
        }
    }

    /// True while blocked in the prepared window.
    pub fn is_blocked(&self) -> bool {
        self.state == TpcPartStateInner::Prepared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unanimous_yes_commits() {
        let mut c = TpcCoordinator::new(vec![1u32, 2, 3]);
        assert_eq!(c.start().len(), 3);
        assert_eq!(c.on_vote(1, true), None);
        assert_eq!(c.on_vote(2, true), None);
        assert_eq!(c.on_vote(3, true), Some(TpcDecision::Commit));
        assert_eq!(c.decision(), Some(TpcDecision::Commit));
    }

    #[test]
    fn first_no_aborts_immediately() {
        let mut c = TpcCoordinator::new(vec![1u32, 2, 3]);
        c.start();
        assert_eq!(c.on_vote(1, true), None);
        assert_eq!(c.on_vote(2, false), Some(TpcDecision::Abort));
        // Late yes is ignored.
        assert_eq!(c.on_vote(3, true), None);
        assert_eq!(c.decision(), Some(TpcDecision::Abort));
    }

    #[test]
    fn votes_from_strangers_are_ignored() {
        let mut c = TpcCoordinator::new(vec![1u32]);
        c.start();
        assert_eq!(c.on_vote(99, true), None);
        assert_eq!(c.on_vote(1, true), Some(TpcDecision::Commit));
    }

    #[test]
    fn duplicate_votes_do_not_double_count() {
        let mut c = TpcCoordinator::new(vec![1u32, 2]);
        c.start();
        assert_eq!(c.on_vote(1, true), None);
        assert_eq!(c.on_vote(1, true), None);
        assert_eq!(c.missing(), vec![2]);
        assert_eq!(c.on_vote(2, true), Some(TpcDecision::Commit));
    }

    #[test]
    fn votes_after_commit_are_ignored() {
        // A sharded delegate may receive straggler votes after the
        // decision fan-out; they must not flip or re-announce it.
        let mut c = TpcCoordinator::new(vec![1u32, 2]);
        c.start();
        assert_eq!(c.on_vote(1, true), None);
        assert_eq!(c.on_vote(2, true), Some(TpcDecision::Commit));
        assert_eq!(c.on_vote(1, true), None);
        assert_eq!(c.on_vote(2, false), None);
        assert_eq!(c.decision(), Some(TpcDecision::Commit));
    }

    #[test]
    fn missing_is_sorted_regardless_of_vote_order() {
        // The shard router builds cohorts group-major; recovery probes
        // of the laggards must come out in one canonical order however
        // the votes happened to arrive.
        let mut c = TpcCoordinator::new(vec![7u32, 3, 9, 1, 5]);
        c.start();
        assert_eq!(c.missing(), vec![1, 3, 5, 7, 9]);
        assert_eq!(c.on_vote(9, true), None);
        assert_eq!(c.on_vote(3, true), None);
        assert_eq!(c.missing(), vec![1, 5, 7]);
    }

    #[test]
    fn cohort_order_is_echoed_by_start() {
        // Prepare fan-out order is the caller's cohort order — the
        // simulator's trace hash depends on it.
        let mut c = TpcCoordinator::new(vec![4u32, 2, 8]);
        assert_eq!(c.start(), vec![4, 2, 8]);
        assert_eq!(c.participants().collect::<Vec<_>>(), vec![4, 2, 8]);
    }

    #[test]
    fn a_coordinator_built_from_an_iterator_echoes_cohort_order() {
        let mut c = TpcCoordinator::new([6u32, 1, 4].into_iter().filter(|&p| p != 1));
        assert_eq!(c.start(), vec![6, 4]);
        assert_eq!(c.participants().collect::<Vec<_>>(), vec![6, 4]);
        assert_eq!(c.on_vote(4, true), None);
        assert_eq!(c.on_vote(6, true), Some(TpcDecision::Commit));
    }

    #[test]
    fn empty_participant_set_commits_on_start() {
        let mut c: TpcCoordinator<u32> = TpcCoordinator::new(vec![]);
        assert!(c.start().is_empty());
        assert_eq!(c.decision(), Some(TpcDecision::Commit));
    }

    #[test]
    fn unilateral_abort_only_while_voting() {
        let mut c = TpcCoordinator::new(vec![1u32]);
        c.start();
        assert_eq!(c.abort(), Some(TpcDecision::Abort));
        assert_eq!(c.abort(), None);
    }

    #[test]
    fn participant_blocks_in_prepared_window() {
        let mut p = TpcParticipant::new();
        assert!(!p.is_blocked());
        assert_eq!(p.on_prepare(true), TpcMsg::VoteYes);
        assert!(p.is_blocked());
        p.on_decision(TpcDecision::Abort);
        assert!(!p.is_blocked());
        assert_eq!(p.state(), TpcPartState::Decided(TpcDecision::Abort));
    }

    #[test]
    fn participant_no_vote_self_aborts() {
        let mut p = TpcParticipant::new();
        assert_eq!(p.on_prepare(false), TpcMsg::VoteNo);
        assert_eq!(p.state(), TpcPartState::Decided(TpcDecision::Abort));
        // Duplicate prepare re-answers consistently.
        assert_eq!(p.on_prepare(true), TpcMsg::VoteNo);
    }
}

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
/// let cohort = c.into_cohort(); // the list, for the next coordinator
/// assert_eq!(cohort.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TpcCoordinator<P> {
    /// The participants: the caller's list, taken by value and handed
    /// back by [`into_cohort`](TpcCoordinator::into_cohort), so a
    /// coordinator built from a recycled list allocates nothing. Each
    /// yes voter is swapped into the prefix `cohort[..yes]`; until the
    /// first yes the list is in the caller's order.
    cohort: Vec<P>,
    /// How many participants voted yes: the length of the yes-prefix.
    yes: usize,
    /// The outcome once reached; votes are collected until then.
    decided: Option<TpcDecision>,
}

impl<P: Copy + Eq> TpcCoordinator<P> {
    /// Creates a coordinator awaiting votes from `participants`.
    ///
    /// An empty participant set decides `Commit` immediately on `start`
    /// (the coordinator is the only site).
    pub fn new(participants: Vec<P>) -> Self {
        TpcCoordinator {
            cohort: participants,
            yes: 0,
            decided: None,
        }
    }

    /// Begins the protocol; returns the participants to send `Prepare` to,
    /// in the caller's order, as an owned list so the caller can record
    /// votes while it sends.
    ///
    /// The replication protocols do not call it: they send `Prepare`
    /// over the cohort before they hand it to the coordinator and commit
    /// an empty cohort themselves. Callers that drive the coordinator on
    /// its own, such as the `benchmark/` package's 2PC layer, do.
    pub fn start(&mut self) -> Vec<P> {
        if self.cohort.is_empty() {
            self.decided = Some(TpcDecision::Commit);
        }
        self.cohort.clone()
    }

    /// Records a vote. Returns the decision the moment it is reached
    /// (`Commit` after the last yes, `Abort` on the first no), `None`
    /// otherwise. Votes after the decision are ignored.
    pub fn on_vote(&mut self, from: P, yes: bool) -> Option<TpcDecision> {
        if self.decided.is_some() {
            return None;
        }
        let at = self.cohort.iter().position(|&p| p == from)?;
        if !yes {
            self.decided = Some(TpcDecision::Abort);
            return self.decided;
        }
        if at >= self.yes {
            self.cohort.swap(at, self.yes);
            self.yes += 1;
        }
        if self.yes == self.cohort.len() {
            self.decided = Some(TpcDecision::Commit);
            return self.decided;
        }
        None
    }

    /// Aborts unilaterally (participant crash detected during voting).
    /// Returns `Some(Abort)` if this changed the state.
    pub fn abort(&mut self) -> Option<TpcDecision> {
        if self.decided.is_some() {
            return None;
        }
        self.decided = Some(TpcDecision::Abort);
        self.decided
    }

    /// The decision, if reached.
    pub fn decision(&self) -> Option<TpcDecision> {
        self.decided
    }

    /// Ends the coordinator and hands its participant list back for the
    /// caller to reuse: in the caller's order until the first yes vote,
    /// yes voters first after it.
    pub fn into_cohort(self) -> Vec<P> {
        self.cohort
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
    fn votes_in_any_order_commit_once_all_are_in() {
        // The shard router builds cohorts group-major and votes arrive
        // in any order: yes voters move to the front of the list, in
        // vote order, and a repeated yes from inside that prefix counts
        // once.
        let mut c = TpcCoordinator::new(vec![7u32, 3, 9, 1, 5]);
        c.start();
        assert_eq!(c.on_vote(9, true), None);
        assert_eq!(c.on_vote(3, true), None);
        assert_eq!(c.on_vote(9, true), None);
        assert_eq!(c.on_vote(5, true), None);
        assert_eq!(c.on_vote(1, true), None);
        assert_eq!(c.on_vote(7, true), Some(TpcDecision::Commit));
        assert_eq!(
            c.into_cohort(),
            vec![9, 3, 5, 1, 7],
            "yes voters in vote order"
        );
    }

    #[test]
    fn a_no_from_a_yes_voter_still_aborts() {
        let mut c = TpcCoordinator::new(vec![1u32, 2]);
        c.start();
        assert_eq!(c.on_vote(1, true), None);
        assert_eq!(c.on_vote(1, false), Some(TpcDecision::Abort));
    }

    #[test]
    fn a_handed_back_cohort_list_starts_the_next_coordinator() {
        let mut c = TpcCoordinator::new(vec![4u32, 2, 8]);
        c.start();
        assert_eq!(c.on_vote(8, true), None);
        let mut cohort = c.into_cohort();
        cohort.clear();
        cohort.extend([5, 6]);
        let mut c = TpcCoordinator::new(cohort);
        assert_eq!(c.start(), vec![5, 6]);
        assert_eq!(c.on_vote(6, true), None);
        assert_eq!(c.on_vote(5, true), Some(TpcDecision::Commit));
    }

    #[test]
    fn cohort_order_is_echoed_by_start() {
        // Prepare fan-out order is the caller's cohort order — the
        // simulator's trace hash depends on it.
        let mut c = TpcCoordinator::new(vec![4u32, 2, 8]);
        assert_eq!(c.start(), vec![4, 2, 8]);
        assert_eq!(c.into_cohort(), vec![4, 2, 8]);
    }

    #[test]
    fn a_coordinator_built_from_an_iterator_echoes_cohort_order() {
        let mut c = TpcCoordinator::new([6u32, 1, 4].into_iter().filter(|&p| p != 1).collect());
        assert_eq!(c.start(), vec![6, 4]);
        assert_eq!(c.on_vote(4, true), None);
        assert_eq!(c.on_vote(6, true), Some(TpcDecision::Commit));
        assert_eq!(c.into_cohort(), vec![4, 6]);
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

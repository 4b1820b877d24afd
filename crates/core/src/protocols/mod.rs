//! The ten replication techniques of the paper, each as a simulated
//! protocol over the `repl-sim`/`repl-gcs`/`repl-db` substrates.
//!
//! | module | technique | paper |
//! |---|---|---|
//! | [`active`] | active replication | §3.2, Fig. 2 |
//! | [`passive`] | passive replication (primary-backup, VSCAST) | §3.3, Fig. 3 |
//! | [`semi_active`] | semi-active replication | §3.4, Fig. 4 |
//! | [`semi_passive`] | semi-passive replication | §3.5 |
//! | [`eager_primary`] | eager primary copy (+ §5.2 transactions) | §4.3, Figs. 7/12 |
//! | [`eager_ue_lock`] | eager update everywhere, distributed locking (+ §5.4.1) | §4.4.1, Figs. 8/13 |
//! | [`eager_ue_abcast`] | eager update everywhere, ABCAST | §4.4.2, Fig. 9 |
//! | [`lazy_primary`] | lazy primary copy | §4.5, Fig. 10 |
//! | [`lazy_ue`] | lazy update everywhere + reconciliation | §4.6, Fig. 11 |
//! | [`certification`] | certification-based replication | §5.4.2, Fig. 14 |
//!
//! Every server is the one lifecycle shell ([`replica`]) around a
//! technique. [`active`], [`eager_ue_abcast`] and [`certification`] —
//! whose Server Coordination is a single ABCAST — are flows hosted by
//! [`stream`], which owns their endpoint, relay dedup and stream
//! lifecycle.

pub mod active;
pub mod certification;
pub mod common;
pub mod eager_primary;
pub mod eager_ue_abcast;
pub mod eager_ue_lock;
pub mod lazy_primary;
pub mod lazy_ue;
pub mod passive;
pub mod replica;
pub mod semi_active;
pub mod semi_passive;
pub mod stream;

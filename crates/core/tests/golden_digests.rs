//! Golden digests: the refactoring oracle, pinned.
//!
//! `RunReport::digest()` covers every client-visible result, latency
//! sample, message/byte/timer/event counter and store fingerprint of a
//! run; `trace_hash` covers every simulator event in order. The other
//! equivalence suites compare two runs of the *same* build (arena vs
//! inline, serial vs parallel, batched vs not); this one compares the
//! build against values recorded at PR 13, so a change that moves an RNG
//! draw, an event sequence number, a wire size or a reply — in every
//! build alike — fails `cargo test` instead of passing unnoticed.
//!
//! A protocol change that is *meant* to move simulated behaviour
//! re-records the table: the failure message prints it in source form.

use repl_core::protocols::common::AbcastImpl;
use repl_core::{try_run, Arrival, DurabilityConfig, RunConfig, Technique};
use repl_gcs::BatchConfig;
use repl_sim::{NodeId, SimDuration, SimTime};
use repl_workload::{ArrivalDist, FaultPlan, MembershipPlan, WorkloadSpec};

/// `(cell, digest, trace_hash)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64)] = &[
    ("p1/Active/seed=11", 0x704eec45dceb1f1c, 0x37da9284ce3dc92e),
    ("p1/Active/seed=8675309", 0xfb763ead40a1f987, 0x99f6a3caa2580b93),
    ("p1/Passive/seed=11", 0x47d3ffb9693de183, 0x7f7bef35a0c56699),
    ("p1/Passive/seed=8675309", 0xa976d3d809960ee8, 0x31cb16d2f93ed047),
    ("p1/Semi-Active/seed=11", 0x6ada1c57fa9511eb, 0xa8a12cf60e225598),
    ("p1/Semi-Active/seed=8675309", 0xa87a57fb7df47cf2, 0xa55c7c84085ef463),
    ("p1/Semi-Passive/seed=11", 0x3981f7dba129d6c3, 0x9d5c08c68c720f46),
    ("p1/Semi-Passive/seed=8675309", 0xc434ade01030f307, 0xfd9addc0feaa2fe5),
    ("p1/Eager Primary Copy/seed=11", 0xa3e93bfc9f4ed59c, 0xd4be1844a74094f7),
    ("p1/Eager Primary Copy/seed=8675309", 0x2a503f0c08e4b1a2, 0x10ece1ee97ab6e91),
    ("p1/Eager UE (Distributed Locking)/seed=11", 0x18f6f7fe78b4ed6c, 0x75c13defc84ab66e),
    ("p1/Eager UE (Distributed Locking)/seed=8675309", 0x3d7dd36a43417c1f, 0x8aa94f3d9004b24b),
    ("p1/Eager UE (ABCAST)/seed=11", 0xb09634d25489f409, 0x7c43710eeabf1d6c),
    ("p1/Eager UE (ABCAST)/seed=8675309", 0xfe4706a8321e9d77, 0x88afedf1bf36fa72),
    ("p1/Lazy Primary Copy/seed=11", 0x65199f5a9c6fde18, 0x0346f753830c50a6),
    ("p1/Lazy Primary Copy/seed=8675309", 0xf8e60baba94f0a01, 0x15d121cf605a4185),
    ("p1/Lazy Update Everywhere/seed=11", 0xc793e810b66ee9be, 0x8fc926a5579ef9c8),
    ("p1/Lazy Update Everywhere/seed=8675309", 0xf08d2190593d76ed, 0x9898aad37e620820),
    ("p1/Certification Based/seed=11", 0x45d3731bfe69ad88, 0x47b2f2df0a6a0e75),
    ("p1/Certification Based/seed=8675309", 0xc7c966c1a7c85e93, 0x39e5b1c4de48cfe4),
    ("consensus/Active", 0xdbdce6c190c6fa75, 0x6ee76a1a3d09936c),
    ("consensus/Semi-Active", 0xf3eb630969e26be0, 0x43b94a9734dc7b6f),
    ("consensus/Eager UE (ABCAST)", 0x9ba4654ae368b8f9, 0xebeba9b6fb2764a1),
    ("consensus/Certification Based", 0xc2d6910693faa295, 0xd082dd19a5f3bb8b),
    ("batched/Active/seq/w=250", 0xd5a7df2f4a63de4d, 0x7eca89f786e46f52),
    ("batched/Certification/cons/w=1000", 0x950b0c9a4e61dde9, 0xbbadb69cbfc0ec52),
    ("batched/EagerPrimary/w=250", 0x974318d5c2a024f4, 0x1d23ceddc623fca8),
    ("outage/Active", 0x1dbfd3108e70a335, 0xd9e453b561cde2f5),
    ("disaster/Active", 0x7ca5440db649b73f, 0x32ea7320aa62c158),
    ("elastic/Active", 0x05035b28e0c58baf, 0xebfaab8f3897f4b0),
    ("outage/Passive", 0x260d3a7d8bd79061, 0x1e5a539fb3d10514),
    ("disaster/Passive", 0x4203186bfed23423, 0x9ec208382fe31cf3),
    ("elastic/Passive", 0x79912542de84a9f8, 0x7d76016a3619de70),
    ("outage/Semi-Active", 0x260550d4261cae30, 0x97242a4ee16fbd9e),
    ("disaster/Semi-Active", 0x40cd063d9bc4751b, 0xc3291d11042a6e14),
    ("elastic/Semi-Active", 0x43067d561c4a4e6a, 0x04e0493c2fb4807a),
    ("outage/Semi-Passive", 0x8d2945b11e72f6e2, 0x7a9aa7a114305103),
    ("disaster/Semi-Passive", 0x0984e0712f3b1cd6, 0xb37d8197b4268b89),
    ("elastic/Semi-Passive", 0x69091eb47bdc9fdf, 0x51dc8be716ee1d3c),
    ("outage/Eager Primary Copy", 0x20f0242b9976bfa1, 0xd682babe0ff3affb),
    ("disaster/Eager Primary Copy", 0x8d7d88ec4a3d99a1, 0x4e96a029865052bc),
    ("elastic/Eager Primary Copy", 0x6f67d76241f1a407, 0xd6e5cf266286d582),
    ("outage/Eager UE (Distributed Locking)", 0x21aea9b92eee5184, 0x803a1954ad224958),
    ("disaster/Eager UE (Distributed Locking)", 0x2d72d5e26b6e06d3, 0xfe39932cdfb58878),
    ("elastic/Eager UE (Distributed Locking)", 0x5e28c4c5433f73ee, 0xb9f2ae8763f9442c),
    ("outage/Eager UE (ABCAST)", 0x6a71caf0deb221ff, 0x7b4ebf6fe1e05044),
    ("disaster/Eager UE (ABCAST)", 0xd221b4616e2d0a64, 0xb8d6da1c063f4878),
    ("elastic/Eager UE (ABCAST)", 0x0879f2e64a3af5df, 0xe94fb74346afc376),
    ("outage/Lazy Primary Copy", 0xf42d33d6c8c791f7, 0xdd30f38d9c9368bd),
    ("disaster/Lazy Primary Copy", 0x129fd1fe6c8666da, 0x2ed2afd5bb3a0469),
    ("elastic/Lazy Primary Copy", 0xbc252089f4fc98ca, 0x7ab394c7928d8c3a),
    ("outage/Lazy Update Everywhere", 0x2220a7d0384f671d, 0x886e88196c988da2),
    ("disaster/Lazy Update Everywhere", 0x9a9c7ff1d9b0a7c7, 0xf67e2ecf821e3bae),
    ("elastic/Lazy Update Everywhere", 0x5c40cafe937fac58, 0x297ba0e4fcb9ad8c),
    ("outage/Certification Based", 0xd55eca85115227d2, 0xe0390457cd6fa262),
    ("disaster/Certification Based", 0xd8352b94cf835fa7, 0x811631fc3ab1e5e1),
    ("elastic/Certification Based", 0xdb993b93438aec8f, 0x83a52f8d116cac30),
    ("outage/Active/consensus/coordinator", 0x52b5c4fd74e6f165, 0x446e52044b0edd7f),
    ("shard4/Active/x=20%", 0x621085459269c181, 0xbcb7e26fd963d25a),
    ("shard4/Eager UE (ABCAST)/x=20%", 0xfbf139760a857f23, 0xe2bd53b8b9df1a09),
    ("shard4/Eager UE (Distributed Locking)/x=20%", 0x8f23be7f32e26762, 0x56a84e271b8130d4),
    ("shard4/Passive/x=0%", 0x8b04d3fe40a3347e, 0xad54569de18f4895),
    ("shard4/Certification Based/x=0%", 0xa462a3c1de302fdc, 0xbe7f8ede14b63f9c),
    ("open/Active", 0xccafdb97933e0e2a, 0xdcf5fb7724be5cf4),
    ("open/Certification Based", 0xe460785e84c5ec82, 0x5028f575862a8600),
];

fn update_workload(txns: u32) -> WorkloadSpec {
    WorkloadSpec::default()
        .with_items(128)
        .with_read_ratio(0.0)
        .with_txns_per_client(txns)
}

/// The P1 cell of the determinism suite.
fn p1(technique: Technique, seed: u64) -> RunConfig {
    RunConfig::new(technique)
        .with_servers(3)
        .with_clients(2)
        .with_seed(seed)
        .with_workload(update_workload(6))
}

/// The P9/P12/P15 fault cell: paced clients, tight retry.
fn paced(technique: Technique, clients: u32, txns: u32, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::new(technique)
        .with_servers(3)
        .with_clients(clients)
        .with_seed(seed)
        .with_retry_after(SimDuration::from_ticks(4_000))
        .with_workload(
            WorkloadSpec::default()
                .with_items(64)
                .with_read_ratio(0.0)
                .with_txns_per_client(txns)
                .with_think_time(SimDuration::from_ticks(3_000)),
        );
    if technique.info().propagation == repl_core::Propagation::Lazy {
        cfg = cfg.with_propagation_delay(SimDuration::from_ticks(1_000));
    }
    cfg
}

fn sharded(technique: Technique, cross_ratio: f64) -> RunConfig {
    RunConfig::new(technique)
        .with_clients(8)
        .with_seed(59)
        .with_workload(
            WorkloadSpec::default()
                .with_items(256)
                .with_read_ratio(0.0)
                .with_ops_per_txn(2)
                .with_txns_per_client(8)
                .with_think_time(SimDuration::ZERO)
                .with_shards(4)
                .with_cross_shard_ratio(cross_ratio),
        )
}

fn cells() -> Vec<(String, RunConfig)> {
    let mut cells = Vec::new();
    for technique in Technique::ALL {
        for seed in [11u64, 8_675_309] {
            cells.push((
                format!("p1/{}/seed={seed}", technique.name()),
                p1(technique, seed),
            ));
        }
    }
    // Consensus-based ABCAST under the techniques that order through it.
    for technique in [
        Technique::Active,
        Technique::SemiActive,
        Technique::EagerUpdateEverywhereAbcast,
        Technique::Certification,
    ] {
        cells.push((
            format!("consensus/{}", technique.name()),
            p1(technique, 11).with_abcast(AbcastImpl::Consensus),
        ));
    }
    let batched = |technique, which, window| {
        RunConfig::new(technique)
            .with_servers(3)
            .with_clients(4)
            .with_seed(157)
            .with_abcast(which)
            .with_batching(BatchConfig::window(window))
            .with_workload(update_workload(8))
    };
    cells.push((
        "batched/Active/seq/w=250".into(),
        batched(Technique::Active, AbcastImpl::Sequencer, 250),
    ));
    cells.push((
        "batched/Certification/cons/w=1000".into(),
        batched(Technique::Certification, AbcastImpl::Consensus, 1_000),
    ));
    cells.push((
        "batched/EagerPrimary/w=250".into(),
        RunConfig::new(Technique::EagerPrimary)
            .with_servers(3)
            .with_clients(4)
            .with_seed(157)
            .with_batching(BatchConfig::window(250))
            .with_workload(update_workload(8)),
    ));
    let outage = FaultPlan::new().outage_at(
        SimTime::from_ticks(5_000),
        NodeId::new(2),
        SimDuration::from_ticks(15_000),
    );
    let disaster = FaultPlan::new().disaster_at(
        SimTime::from_ticks(5_000),
        NodeId::new(2),
        SimDuration::from_ticks(15_000),
    );
    let mut elastic = MembershipPlan::new();
    for (i, at) in [6_000u64, 12_000, 18_000, 24_000].into_iter().enumerate() {
        elastic = elastic.join_at(SimTime::from_ticks(at), NodeId::new(3 + i as u32));
    }
    for (i, at) in [45_000u64, 50_000, 55_000, 60_000].into_iter().enumerate() {
        elastic = elastic.drain_at(SimTime::from_ticks(at), NodeId::new(3 + i as u32));
    }
    for technique in Technique::ALL {
        cells.push((
            format!("outage/{}", technique.name()),
            paced(technique, 3, 15, 163).with_faults(outage.clone()),
        ));
        cells.push((
            format!("disaster/{}", technique.name()),
            paced(technique, 3, 15, 167)
                .with_durability(DurabilityConfig::with_upload_lag(2_000))
                .with_faults(disaster.clone()),
        ));
        cells.push((
            format!("elastic/{}", technique.name()),
            paced(technique, 4, 25, 173).with_membership(elastic.clone()),
        ));
    }
    cells.push((
        "outage/Active/consensus/coordinator".into(),
        paced(Technique::Active, 3, 15, 163)
            .with_abcast(AbcastImpl::Consensus)
            .with_faults(FaultPlan::new().outage_at(
                SimTime::from_ticks(5_000),
                NodeId::new(0),
                SimDuration::from_ticks(15_000),
            )),
    ));
    // Four groups, cross-shard traffic: genuine multicast for the ABCAST
    // techniques, union-cohort 2PC for distributed locking.
    for technique in [
        Technique::Active,
        Technique::EagerUpdateEverywhereAbcast,
        Technique::EagerUpdateEverywhereLocking,
    ] {
        cells.push((
            format!("shard4/{}/x=20%", technique.name()),
            sharded(technique, 0.20),
        ));
    }
    for technique in [Technique::Passive, Technique::Certification] {
        cells.push((
            format!("shard4/{}/x=0%", technique.name()),
            sharded(technique, 0.0),
        ));
    }
    for technique in [Technique::Active, Technique::Certification] {
        cells.push((
            format!("open/{}", technique.name()),
            RunConfig::new(technique)
                .with_servers(3)
                .with_clients(64)
                .with_seed(23)
                .with_arrival(Arrival::OpenAggregated {
                    mean: 2_000,
                    dist: ArrivalDist::Poisson,
                })
                .with_workload(update_workload(4)),
        ));
    }
    cells
}

#[test]
fn digests_and_traces_match_the_recorded_values() {
    let actual: Vec<(String, u64, u64)> = cells()
        .into_iter()
        .map(|(label, cfg)| {
            let report = try_run(&cfg.with_trace(true))
                .unwrap_or_else(|e| panic!("cell `{label}` was refused: {e}"));
            assert!(report.ops_completed > 0, "cell `{label}` did no work");
            assert_ne!(report.trace_hash, 0, "cell `{label}` produced no trace");
            (label, report.digest(), report.trace_hash)
        })
        .collect();
    let same = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(GOLDEN)
            .all(|(a, g)| (a.0.as_str(), a.1, a.2) == *g);
    if !same {
        let moved: Vec<&str> = actual
            .iter()
            .filter(|a| !GOLDEN.contains(&(a.0.as_str(), a.1, a.2)))
            .map(|a| a.0.as_str())
            .collect();
        let mut table = String::new();
        for (label, digest, trace) in &actual {
            table.push_str(&format!(
                "    (\"{label}\", 0x{digest:016x}, 0x{trace:016x}),\n"
            ));
        }
        panic!(
            "{} of {} cells moved: {moved:?}\nthe table this build produces:\n{table}",
            moved.len(),
            actual.len()
        );
    }
}

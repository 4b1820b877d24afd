//! Golden digests: the refactoring oracle, pinned.
//!
//! `RunReport::digest()` covers every client-visible result, latency
//! sample, message/byte/timer/event counter and store fingerprint of a
//! run; `trace_hash` covers every simulator event in order. The other
//! equivalence suites compare two runs of the *same* build (arena vs
//! inline, serial vs parallel, batched vs not); this one compares the
//! build against values recorded at PR 21, so a change that moves an RNG
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
    ("p1/Passive/seed=11", 0xf29100079e8346e7, 0xe2558bc95055dc31),
    ("p1/Passive/seed=8675309", 0xaeb55b3e90fdbb8f, 0xf0ff708dee65ec97),
    ("p1/Semi-Active/seed=11", 0x6ada1c57fa9511eb, 0xa8a12cf60e225598),
    ("p1/Semi-Active/seed=8675309", 0xa87a57fb7df47cf2, 0xa55c7c84085ef463),
    ("p1/Semi-Passive/seed=11", 0x87da4b006c16ab6a, 0x15ef95f8b07ed075),
    ("p1/Semi-Passive/seed=8675309", 0xb6f173160a5a9033, 0x5b67ee2ed75d5ee8),
    ("p1/Eager Primary Copy/seed=11", 0xa3e93bfc9f4ed59c, 0xd4be1844a74094f7),
    ("p1/Eager Primary Copy/seed=8675309", 0x2a503f0c08e4b1a2, 0x10ece1ee97ab6e91),
    ("p1/Eager UE (Distributed Locking)/seed=11", 0x18f6f7fe78b4ed6c, 0x75c13defc84ab66e),
    ("p1/Eager UE (Distributed Locking)/seed=8675309", 0x3d7dd36a43417c1f, 0x8aa94f3d9004b24b),
    ("p1/Eager UE (ABCAST)/seed=11", 0xc45ff987911a8350, 0xa87184ffee8ba8c6),
    ("p1/Eager UE (ABCAST)/seed=8675309", 0x53da1d0c0cabc924, 0x5bccce91f0ab0bc5),
    ("p1/Lazy Primary Copy/seed=11", 0x65199f5a9c6fde18, 0x0346f753830c50a6),
    ("p1/Lazy Primary Copy/seed=8675309", 0xf8e60baba94f0a01, 0x15d121cf605a4185),
    ("p1/Lazy Update Everywhere/seed=11", 0xc793e810b66ee9be, 0x8fc926a5579ef9c8),
    ("p1/Lazy Update Everywhere/seed=8675309", 0xf08d2190593d76ed, 0x9898aad37e620820),
    ("p1/Certification Based/seed=11", 0x7fbffa78d5066569, 0x655c3e9656be416f),
    ("p1/Certification Based/seed=8675309", 0xf6f5705c60926838, 0xf909245dcc69c95f),
    ("consensus/Active", 0x7e40a5499b8b58e4, 0xdf779834b285445c),
    ("consensus/Semi-Active", 0xa690eca9f80c2b73, 0x528680163320b267),
    ("consensus/Eager UE (ABCAST)", 0xec85a024e4659cc1, 0xd67f9b17158b00ed),
    ("consensus/Certification Based", 0x38044560c9cda0fb, 0xcc40b507d329aebf),
    ("batched/Active/seq/w=250", 0xa9cfd31fedf0b54f, 0xebc195e4aeb8b648),
    ("batched/Certification/cons/w=1000", 0xb94246372c3785f6, 0x820302c84505831a),
    ("batched/EagerPrimary/w=250", 0x974318d5c2a024f4, 0x1d23ceddc623fca8),
    ("outage/Active", 0x19aaa02a3d3a7117, 0x0c39f0b921412624),
    ("disaster/Active", 0x30afe2b7311e90cd, 0xf416352edffce55b),
    ("elastic/Active", 0x310debcccf91906d, 0x0f485d923312c61d),
    ("outage/Passive", 0x6f42436048d48a16, 0xbd386fb5e88dad50),
    ("disaster/Passive", 0x89c4791258d45b85, 0x65d620fd83eeccb5),
    ("elastic/Passive", 0x1dcfc3cf5af94a87, 0x3dcbd67d473115a1),
    ("outage/Semi-Active", 0x951652dc7a7fea4d, 0xcae686c49d5e510e),
    ("disaster/Semi-Active", 0xedfeb4f5216a432b, 0x37825eb91a82f6e4),
    ("elastic/Semi-Active", 0x02369cf61c90f2f6, 0x941ca9217bd46e9a),
    ("outage/Semi-Passive", 0x520b95ce5ef819aa, 0x3e0bbee4f62872b1),
    ("disaster/Semi-Passive", 0xcc5aa13e566efbe1, 0x0e6437f47f2a6780),
    ("elastic/Semi-Passive", 0xe45eda4fe4c6a116, 0x0345af2ed35b92f7),
    ("outage/Eager Primary Copy", 0x93cd444577349c03, 0xd682babe0ff3affb),
    ("disaster/Eager Primary Copy", 0xdcf6e85b5cd9ff8f, 0x4e96a029865052bc),
    ("elastic/Eager Primary Copy", 0x0c57deb7d83ae3fe, 0x3d14ba303b145167),
    ("outage/Eager UE (Distributed Locking)", 0x0507e0a93d03af1c, 0x4ed1ced157237fca),
    ("disaster/Eager UE (Distributed Locking)", 0x8f1e1a9cf04a7540, 0xbd6a7afcd4555378),
    ("elastic/Eager UE (Distributed Locking)", 0x1776e7c445fe8d4d, 0x03739dab671e906d),
    ("outage/Eager UE (ABCAST)", 0xca0ae777918ca23e, 0x49df8101f7b02456),
    ("disaster/Eager UE (ABCAST)", 0x1b3ab2a11a26c823, 0xf5fc4953d9327931),
    ("elastic/Eager UE (ABCAST)", 0x2797fc6606cf43e7, 0x9caae00008037976),
    ("outage/Lazy Primary Copy", 0xf12aa04939bdf49d, 0xab01b2484e982bb1),
    ("disaster/Lazy Primary Copy", 0x436b93d0a52506b8, 0x61294ad8c3e730bc),
    ("elastic/Lazy Primary Copy", 0x4a77f82527e3713d, 0x098efaf9bff88c5e),
    ("outage/Lazy Update Everywhere", 0xd7c39e3844eaf882, 0x1f8ec951ac2b824f),
    ("disaster/Lazy Update Everywhere", 0xc832fa1fc1dc2f72, 0x4d0e3592fffdfc09),
    ("elastic/Lazy Update Everywhere", 0x02052b8c7d3892ed, 0x5bea257d40be81bc),
    ("outage/Certification Based", 0x03cf23698fd70f12, 0x2f4d94e9568d27b7),
    ("disaster/Certification Based", 0x0c2b4c2ee98fdbad, 0xf04ce0548736b393),
    ("elastic/Certification Based", 0x51d643ba6f8d8bce, 0xc2246a9fcabbf06b),
    ("outage/Active/consensus/coordinator", 0xe5d6deeb333bcee8, 0xfefc4033f737d0df),
    ("shard4/Active/x=20%", 0x621085459269c181, 0xbcb7e26fd963d25a),
    ("shard4/Eager UE (ABCAST)/x=20%", 0xfbf139760a857f23, 0xe2bd53b8b9df1a09),
    ("shard4/Eager UE (Distributed Locking)/x=20%", 0x8f23be7f32e26762, 0x56a84e271b8130d4),
    ("shard4/Passive/x=0%", 0xd7e02a5f235a076a, 0x8c9a9d3a11254b15),
    ("shard4/Certification Based/x=0%", 0xa462a3c1de302fdc, 0xbe7f8ede14b63f9c),
    ("open/Active", 0xdf2a1f098847a005, 0x26d774c013f39c7b),
    ("open/Certification Based", 0xe7598dfe11585843, 0xc32f78d4f4d1ca25),
    ("shard4/outage/ret=1/Passive", 0x27e0071f55515541, 0x2e735227a64d0121),
    ("shard4/outage/ret=1/Semi-Passive", 0x9a035056edcbd971, 0xde8fe5c92865c2b3),
    ("shard4/outage/ret=1/Eager Primary Copy", 0x3cfa97ac9f70608f, 0x5dbeb4307654f50a),
    ("shard4/outage/ret=1/Lazy Primary Copy", 0x8dcbd42bb6de7b89, 0xae4b0eaedb930daa),
    ("shard4/outage/ret=1/Eager UE (Distributed Locking)", 0xffb44cd910cbe2e3, 0xc9486f1a7c11685c),
    ("shard4/disaster/Passive", 0x6a8e2615a7c4d391, 0xc97c250b98f3c4a1),
    ("shard4/disaster/Certification Based", 0x2ffe4e4ec493c802, 0x28e1306993222f84),
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

/// Label prefix of the sharded outage cells, which must keep exercising
/// the snapshot path.
const SHARD_OUTAGE: &str = "shard4/outage/ret=1/";

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
    // Sharded recovery: a group-1 backup misses part of its shard's
    // stream and catches up by state transfer. A retention of one entry
    // forces the log-keeping techniques onto the snapshot path too, so
    // every cell ships the logical store a group member holds. These
    // cells were recorded while every server still held the whole
    // keyspace: they pin that a shard-scoped store transfers and
    // fingerprints exactly what the full store did.
    let shard_outage = FaultPlan::new().outage_at(
        SimTime::from_ticks(1_000),
        NodeId::new(5),
        SimDuration::from_ticks(3_000),
    );
    for technique in [
        Technique::Passive,
        Technique::SemiPassive,
        Technique::EagerPrimary,
        Technique::LazyPrimary,
        Technique::EagerUpdateEverywhereLocking,
    ] {
        let mut cfg = sharded(technique, 0.0).with_faults(shard_outage.clone());
        // Passive and distributed locking keep no redo log to retain.
        if !matches!(
            technique,
            Technique::Passive | Technique::EagerUpdateEverywhereLocking
        ) {
            cfg = cfg.with_log_retention(Some(1));
        }
        cells.push((format!("{SHARD_OUTAGE}{}", technique.name()), cfg));
    }
    let shard_disaster = FaultPlan::new().disaster_at(
        SimTime::from_ticks(1_000),
        NodeId::new(5),
        SimDuration::from_ticks(3_000),
    );
    for technique in [Technique::Passive, Technique::Certification] {
        cells.push((
            format!("shard4/disaster/{}", technique.name()),
            sharded(technique, 0.0)
                .with_durability(DurabilityConfig::with_upload_lag(2_000))
                .with_faults(shard_disaster.clone()),
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
            if label.starts_with(SHARD_OUTAGE) {
                let snapshots: u64 = report
                    .availability
                    .recoveries
                    .iter()
                    .map(|r| r.snapshot_transfers)
                    .sum();
                assert!(snapshots > 0, "cell `{label}` shipped no snapshot");
            }
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

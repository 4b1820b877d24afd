//! Client retry accounting.
//!
//! A fault-free closed-loop run answers every operation long before
//! `retry_after`, so no client should ever re-submit. Today they do:
//! `submit_next` arms a retry timer per operation and never cancels it,
//! and when the timer fires a *later* operation is in flight, so that
//! operation is re-sent and the timer re-arms — stale timers never die
//! and retries grow with run length. Cancelling on completion moves
//! simulated latencies in both directions (the stale timers act as hedged
//! requests), so the fix needs its own change with a re-recorded
//! baseline; see ROADMAP.md. This test pins the intended behaviour until
//! then.

use repl_core::{run, RunConfig, Technique};
use repl_sim::SimDuration;
use repl_workload::WorkloadSpec;

#[test]
#[ignore = "stale retry timers, see ROADMAP"]
fn fault_free_closed_loop_never_retries() {
    let report = run(&RunConfig::new(Technique::Active)
        .with_servers(3)
        .with_clients(4)
        .with_seed(7)
        .with_workload(
            WorkloadSpec::default()
                .with_items(128)
                .with_read_ratio(0.0)
                .with_txns_per_client(200)
                .with_think_time(SimDuration::ZERO),
        ));
    assert_eq!(report.ops_completed, 800);
    assert_eq!(report.ops_unanswered, 0);
    assert_eq!(
        report.client_retries, 0,
        "no fault, no loss, every reply inside retry_after: nothing to retry"
    );
}

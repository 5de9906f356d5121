//! End-to-end behavior of the out-of-band congestion-control plane on
//! the congested-fabric (incast) scenario: fairness and queue control
//! under DCTCP, measurable algorithm contrast, deterministic batched
//! reporting, and the batching invariants themselves.

use flextoe_bench::cc::{run_cc_one, CcScale, ECN_K};
use flextoe_bench::driver::execute;
use flextoe_ccp::{FoldProg, FoldSpec};
use flextoe_control::CcAlgo;
use flextoe_sim::{Duration, Time};

fn two_flow_scale() -> CcScale {
    CcScale {
        senders: 2,
        duration: Time::from_ms(12),
        warmup: Time::from_ms(2),
        window: Duration::from_ms(1),
    }
}

/// Two DCTCP flows through the ECN-marking switch converge to fair share
/// and hold the bottleneck queue near the marking threshold K.
#[test]
fn two_dctcp_flows_converge_fair_and_hold_queue_near_k() {
    let r = run_cc_one(21, CcAlgo::Dctcp, FoldSpec::Builtin, two_flow_scale());
    assert!(
        r["jain"].num() >= 0.95,
        "fair share: Jain {}",
        r["jain"].num()
    );
    assert!(
        r["convergence_ms"].num() > 0.0,
        "windowed fairness must converge (got {})",
        r["convergence_ms"].num()
    );
    // queue rides near K: well below the WRED band (64 KB), well above
    // empty — DCTCP's signature on this fabric
    let k_kb = ECN_K as f64 / 1024.0;
    assert!(
        r["avg_queue_kb"].num() > k_kb / 4.0 && r["avg_queue_kb"].num() < k_kb * 2.5,
        "avg queue {} KB should sit near K = {} KB",
        r["avg_queue_kb"].num(),
        k_kb
    );
    assert!(r["ecn_marked"].num() > 0.0, "the switch marked CE");
    assert!(
        r["goodput_gbps"].num() > 3.0,
        "bottleneck utilized: {}",
        r["goodput_gbps"].num()
    );
}

/// CUBIC (loss-based) and DCTCP (mark-based) must behave measurably
/// differently on the same seed: CUBIC ignores marks and rides the queue
/// into the WRED band, DCTCP holds it near K.
#[test]
fn cubic_vs_dctcp_differ_measurably_on_same_seed() {
    let scale = two_flow_scale();
    let dctcp = run_cc_one(33, CcAlgo::Dctcp, FoldSpec::Builtin, scale);
    let cubic = run_cc_one(33, CcAlgo::Cubic, FoldSpec::Builtin, scale);
    assert!(
        cubic["avg_queue_kb"].num() > dctcp["avg_queue_kb"].num() * 1.3,
        "cubic queue {} KB !>> dctcp queue {} KB",
        cubic["avg_queue_kb"].num(),
        dctcp["avg_queue_kb"].num()
    );
    assert!(
        cubic["ecn_marked"].num() > dctcp["ecn_marked"].num(),
        "a higher queue collects more marks: {} vs {}",
        cubic["ecn_marked"].num(),
        dctcp["ecn_marked"].num()
    );
}

/// Same seed ⇒ byte-identical `BENCH_cc.json` metrics, including the
/// batched report path and the eBPF-fold run.
#[test]
fn report_batching_is_deterministic() {
    let a = execute::<CcScale>(7, true, Some(1), 1).body;
    let b = execute::<CcScale>(7, true, Some(1), 1).body;
    assert_eq!(a, b, "same seed must reproduce identical metrics");
    // sanity on shape: all five sweep entries present
    assert_eq!(a.matches("\"algo\"").count(), 5);
    for name in ["dctcp", "timely", "cubic", "reno"] {
        assert!(
            a.contains(&format!("\"algo\": \"{name}\"")),
            "{name} in sweep"
        );
    }
    assert!(a.contains("\"fold\": \"ebpf\""), "eBPF fold path in sweep");
}

/// Reports reach the control plane as *batched*, out-of-band messages:
/// far fewer batches than folded ACK events, multiple flow reports per
/// batch on average — no per-ACK control-plane event.
#[test]
fn reports_are_batched_not_per_ack() {
    let r = run_cc_one(21, CcAlgo::Dctcp, FoldSpec::Builtin, two_flow_scale());
    assert!(r["report_batches"].num() > 0.0, "reports flowed");
    assert!(
        r["flow_reports"].num() >= r["report_batches"].num(),
        "batches carry reports"
    );
    assert!(
        r["acks_folded"].num() > 10.0 * r["report_batches"].num(),
        "batching: {} folded ACKs produced only {} control-plane messages",
        r["acks_folded"].num(),
        r["report_batches"].num()
    );
}

/// The compiled-eBPF fold path drives the same control loop end-to-end:
/// DCTCP on the VM fold still converges and controls the queue.
#[test]
fn ebpf_fold_path_works_end_to_end() {
    let r = run_cc_one(
        21,
        CcAlgo::Dctcp,
        FoldSpec::Program(FoldProg::builtin()),
        two_flow_scale(),
    );
    assert!(r["jain"].num() >= 0.9, "Jain {}", r["jain"].num());
    assert!(r["report_batches"].num() > 0.0);
    let k_kb = ECN_K as f64 / 1024.0;
    assert!(
        r["avg_queue_kb"].num() < k_kb * 2.5,
        "queue controlled: {} KB",
        r["avg_queue_kb"].num()
    );
}

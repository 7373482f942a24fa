//! Same seed, same size → the same exact counts; and the counts the
//! benchmark's README predicts for each workload.

use dista_perfbench::{run, RunOutcome, RunSpec, WorkloadKind};

fn small(workload: WorkloadKind, seed: u64) -> RunOutcome {
    let spec = RunSpec {
        workload,
        seed,
        ops: 120,
        warmup: 40,
        setups: 1,
        rounds: 2,
        trace: true,
        replay_ops: 8,
    };
    let out = run(&spec);
    assert!(out.correct, "{}: {:?}", workload.name(), out.errors);
    assert_eq!(out.failed, 0);
    out
}

fn value(out: &RunOutcome, name: &str) -> f64 {
    out.end_to_end
        .iter()
        .chain(&out.per_layer)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

const EXACT: [&str; 5] = [
    "net_bytes_per_op",
    "codec.wire_bytes",
    "taintmap.rpc_items",
    "taintmap.batch_frames",
    "obs.flight_events",
];

#[test]
fn exact_counts_repeat_for_the_same_seed() {
    for workload in WorkloadKind::ALL {
        let (a, b) = (small(workload, 7), small(workload, 7));
        for name in EXACT {
            assert_eq!(
                value(&a, name),
                value(&b, name),
                "{} {name} differs between two runs of seed 7",
                workload.name()
            );
        }
    }
}

#[test]
fn taint_map_traffic_matches_the_predictions() {
    for workload in [WorkloadKind::CrossingCleanV2, WorkloadKind::CrossingWarmV1] {
        let out = small(workload, 3);
        assert_eq!(
            value(&out, "taintmap.rpc_items"),
            0.0,
            "{}",
            workload.name()
        );
        assert_eq!(
            value(&out, "taintmap.batch_frames"),
            0.0,
            "{}",
            workload.name()
        );
        assert_eq!(
            value(&out, "taintmap.rpc_bytes"),
            0.0,
            "{}",
            workload.name()
        );
    }
    let fresh = small(WorkloadKind::CrossingFreshV2, 3);
    assert_eq!(value(&fresh, "taintmap.rpc_items"), 8.0);
    assert_eq!(value(&fresh, "taintmap.batch_frames"), 2.0);
    assert!(value(&fresh, "taintmap.rpc_bytes") > 0.0);
}

#[test]
fn clean_traffic_records_nothing_and_the_pipeline_records_events() {
    let clean = small(WorkloadKind::CrossingCleanV2, 5);
    assert_eq!(value(&clean, "obs.flight_events"), 0.0);
    assert_eq!(value(&clean, "ok_op_ratio"), 1.0);
    let pipeline = small(WorkloadKind::PipelineIngest, 5);
    assert!(value(&pipeline, "obs.flight_events") > 0.0);
    assert_eq!(value(&pipeline, "ok_op_ratio"), 1.0);
}

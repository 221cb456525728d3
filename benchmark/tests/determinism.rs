//! Generators are pure functions of the seed: same seed → byte-identical
//! inputs, another seed → other inputs.

use hermes_perf_ledger::workloads::{input_digest, Scale, NAMES};

#[test]
fn same_seed_gives_identical_inputs_and_seed_2_differs_from_seed_1() {
    for w in NAMES {
        let a = input_digest(w, 1, Scale::Smoke).expect("known workload");
        let b = input_digest(w, 1, Scale::Smoke).expect("known workload");
        let c = input_digest(w, 2, Scale::Smoke).expect("known workload");
        assert_eq!(a, b, "{w}: seed 1 twice");
        assert_ne!(a, c, "{w}: seed 2 must differ from seed 1");
    }
}

#[test]
fn smoke_and_full_sizes_are_different_inputs() {
    // Cheap generators only: the full-size varys trace and fleet schedule
    // are covered by the pinned digests of a full run.
    for w in ["batch_resync", "varys_fattree"] {
        assert_ne!(
            input_digest(w, 1, Scale::Smoke),
            input_digest(w, 1, Scale::Full),
            "{w}"
        );
    }
}

#[test]
fn unknown_workload_has_no_inputs() {
    assert_eq!(input_digest("nope", 1, Scale::Smoke), None);
}

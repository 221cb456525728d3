//! Median-of-reps and quartiles ride the workspace's nearest-rank estimator.

use hermes_perf_ledger::ledger::{weighted_percentile, Fastest, KEEP_FASTEST};
use hermes_perf_ledger::summary::{median, percentile, Quartiles};
use hermes_util::stats::{quantile_sorted, sort_samples};

#[test]
fn quartiles_are_nearest_rank_on_five_reps() {
    let q = Quartiles::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
    assert_eq!((q.q1, q.median, q.q3, q.n), (2.0, 3.0, 4.0, 5));
    assert!((q.spread() - 2.0 / 3.0).abs() < 1e-12);
}

#[test]
fn quartiles_agree_with_hermes_util_stats() {
    let reps = [212.0, 281.0, 240.0, 141.0, 260.0, 255.0, 249.0];
    let mut sorted = reps.to_vec();
    sort_samples(&mut sorted);
    let q = Quartiles::of(&reps);
    assert_eq!(q.median, quantile_sorted(&sorted, 0.5));
    assert_eq!(q.q1, quantile_sorted(&sorted, 0.25));
    assert_eq!(q.q3, quantile_sorted(&sorted, 0.75));
    assert_eq!(median(&reps), q.median);
    assert_eq!(percentile(&reps, 1.0), 281.0);
}

#[test]
fn one_stalled_rep_does_not_move_the_median() {
    // The sizing runs saw one 141 ms host-preemption stall: a single
    // outlier repetition must leave the reported value alone.
    let steady = Quartiles::of(&[2.50, 2.52, 2.49, 2.51, 2.50]);
    let stalled = Quartiles::of(&[2.50, 2.52, 2.49, 2.51, 9.00]);
    assert!((steady.median - stalled.median).abs() <= 0.01);
}

#[test]
fn empty_and_exact_metrics_have_no_spread() {
    assert_eq!(Quartiles::of(&[]).n, 0);
    assert!(Quartiles::of(&[]).median.is_nan());
    assert_eq!(Quartiles::of(&[]).spread(), 0.0);
    assert_eq!(Quartiles::of(&[0.0, 0.0, 0.0]).spread(), 0.0);
}

#[test]
fn quartiles_round_trip_through_json() {
    let q = Quartiles::of(&[1.5, 2.5, 3.5]);
    assert_eq!(Quartiles::from_json(&q.to_json()), Some(q));
}

#[test]
fn weighted_percentile_counts_ops_not_calls() {
    // Three calls: two one-op calls at 10 and 20 ns, one 98-op batch at
    // 5 ns per op. By calls the median is 10; by ops it is the batch's 5.
    let sorted = [(5.0, 98), (10.0, 1), (20.0, 1)];
    assert_eq!(weighted_percentile(&sorted, 0.5), 5.0);
    assert_eq!(weighted_percentile(&sorted, 0.99), 10.0);
    assert_eq!(weighted_percentile(&sorted, 1.0), 20.0);
    // With one op per call it is the plain nearest-rank quantile.
    let plain = [(1.0, 1), (2.0, 1), (3.0, 1), (4.0, 1), (5.0, 1)];
    assert_eq!(weighted_percentile(&plain, 0.5), 3.0);
    assert!(weighted_percentile(&[], 0.5).is_nan());
}

#[test]
fn fastest_keeps_each_positions_third_fastest_reading() {
    assert_eq!(KEEP_FASTEST, 3);
    let mut f = Fastest::default();
    // Fewer repetitions than readings kept: the slowest one so far.
    assert!(f.merge(&[10.0, 50.0]));
    assert_eq!(f.readings().collect::<Vec<_>>(), [10.0, 50.0]);
    assert!(f.merge(&[12.0, 40.0]));
    assert_eq!(f.readings().collect::<Vec<_>>(), [12.0, 50.0]);
    // From the third on: the third-fastest, whatever order they came in.
    assert!(f.merge(&[11.0, 45.0]));
    assert_eq!(f.readings().collect::<Vec<_>>(), [12.0, 50.0]);
    assert!(f.merge(&[900.0, 41.0]));
    assert_eq!(f.readings().collect::<Vec<_>>(), [12.0, 45.0]);
    assert!(f.merge(&[9.0, 39.0]));
    assert_eq!(f.readings().collect::<Vec<_>>(), [11.0, 41.0]);
}

#[test]
fn fastest_refuses_a_repetition_of_another_length() {
    let mut f = Fastest::default();
    assert!(f.merge(&[1.0, 2.0, 3.0]));
    assert!(!f.merge(&[1.0, 2.0]));
    assert!(f.merge(&[3.0, 2.0, 1.0]));
    assert_eq!(f.readings().collect::<Vec<_>>(), [3.0, 2.0, 3.0]);
}

#[test]
fn stalls_in_all_but_three_reps_leave_the_reading_alone() {
    // An op that takes 2 us, hit by a neighbour in 7 of 10 repetitions.
    let mut f = Fastest::default();
    for rep in 0..10 {
        let x = if rep % 4 == 1 || rep == 0 {
            2_000.0
        } else {
            9_000.0 + rep as f32
        };
        assert!(f.merge(&[x]));
    }
    assert_eq!(f.readings().next(), Some(2_000.0));
}

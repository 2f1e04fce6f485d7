//! Integration tests of the execution pool's determinism contract: for any
//! replication count, seed and thread count, the parallel runner produces
//! output bit-for-bit identical to the serial runner.

use proptest::prelude::*;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use ss_sim::pool;
use ss_sim::replication::{run_replications, run_replications_parallel};

/// A replication body with enough RNG consumption to expose any stream
/// misalignment: draw a variable number of uniforms keyed off the index.
fn workload(i: usize, rng: &mut ChaCha8Rng) -> f64 {
    let draws = 5 + (i % 7);
    (0..draws).map(|_| rng.gen::<f64>()).sum::<f64>() - i as f64 * 0.25
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pool output order always matches serial order — bitwise, for every
    /// generated (n, seed, threads) combination.
    #[test]
    fn pool_output_order_matches_serial(
        n in 1usize..200,
        seed in 0u64..1_000_000,
        threads in 1usize..12,
    ) {
        let serial = run_replications(n, seed, workload);
        let parallel =
            pool::with_threads(threads, || run_replications_parallel(n, seed, workload));
        prop_assert_eq!(&serial.values, &parallel.values);
        prop_assert_eq!(serial.mean.to_bits(), parallel.mean.to_bits());
        prop_assert_eq!(serial.std_dev.to_bits(), parallel.std_dev.to_bits());
        prop_assert_eq!(serial.ci95.to_bits(), parallel.ci95.to_bits());
    }

    /// `parallel_indexed` is an order-preserving map for arbitrary sizes and
    /// thread counts, including n < threads and heavy oversubscription.
    #[test]
    fn parallel_indexed_matches_serial_map(
        n in 0usize..300,
        threads in 1usize..32,
    ) {
        let out = pool::with_threads(threads, || {
            pool::parallel_indexed(n, |i| (i as f64).sqrt() * 3.5)
        });
        let expected: Vec<f64> = (0..n).map(|i| (i as f64).sqrt() * 3.5).collect();
        prop_assert_eq!(out, expected);
    }
}

#[test]
fn n_smaller_than_thread_count_is_exact() {
    let serial = run_replications(3, 77, workload);
    let parallel = pool::with_threads(16, || run_replications_parallel(3, 77, workload));
    assert_eq!(serial.values, parallel.values);
}

#[test]
fn oversubscription_is_exact() {
    // Far more threads than this machine has cores.
    let serial = run_replications(500, 4242, workload);
    let parallel = pool::with_threads(64, || run_replications_parallel(500, 4242, workload));
    assert_eq!(serial.values, parallel.values);
}

#[test]
fn installed_pools_nest_and_restore() {
    let outer = pool::num_threads();
    let (inner_a, inner_b) = pool::with_threads(2, || {
        let a = pool::num_threads();
        let b = pool::with_threads(5, pool::num_threads);
        (a, b)
    });
    assert_eq!(inner_a, 2);
    assert_eq!(inner_b, 5);
    assert_eq!(pool::num_threads(), outer);
}

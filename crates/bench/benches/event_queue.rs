//! Benchmarks of the discrete-event calendar.  Its only production caller
//! is the service fabric (through `ss_sim::Engine`), which keeps at most a
//! few dozen events pending; these benchmarks measure the calendar at
//! 10^3 to 10^5 pending events.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ss_sim::events::EventQueue;

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &n in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("schedule_then_drain", n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(3);
                let mut q = EventQueue::new();
                for i in 0..n {
                    q.schedule(rng.gen::<f64>() * 1000.0, i);
                }
                let mut last = 0.0;
                while let Some((t, _)) = q.pop() {
                    last = t;
                }
                last
            })
        });
        group.bench_with_input(BenchmarkId::new("hold_model", n), &n, |b, &n| {
            // Classic hold model: steady-state queue of n events, repeatedly
            // pop the earliest and push a replacement.
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(4);
                let mut q = EventQueue::new();
                for i in 0..n {
                    q.schedule(rng.gen::<f64>() * 1000.0, i);
                }
                for i in 0..n {
                    let (t, _) = q.pop().unwrap();
                    q.schedule(t + rng.gen::<f64>(), i);
                }
                q.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);

//! Reproducible random-number streams.
//!
//! Every replication of every experiment draws from its own ChaCha8 stream,
//! derived deterministically from `(master_seed, stream_id)` via SplitMix64
//! mixing.  Two consequences:
//!
//! * results are bit-for-bit reproducible given the master seed recorded in
//!   EXPERIMENTS.md;
//! * parallel replication runners can hand independent streams to worker
//!   threads without any shared mutable state.
//!
//! A stream that serves nothing but exponential draws can be wrapped in an
//! [`ExpStream`], which draws its unit exponentials 32 at a time with the
//! bits of drawing them one at a time.
//!
//! ## Stream-id registry
//!
//! Every id that keys a family of streams, [`GENERATION_STREAM`] through
//! [`PROBE_FAMILY`], is one entry of the `stream_ids!` invocation in this
//! file, so adding an entity to one family never perturbs another's draws.
//! A repeated id fails the build with "two stream ids are equal".  An
//! entry takes only a literal, so every id can be read here.  ss-lint's
//! L004 flags a `const NAME_STREAM: u64` or `const NAME_FAMILY: u64`
//! declared anywhere else.  Pick a fresh value here when a subsystem needs
//! a new family.
//!
//! The check does not cover the raw keys: ss-verify's
//! `substream(scenario_id, rep)` and the replication runners' `stream(i)`
//! pass small integers (a scenario id, a replication index) to the same
//! factories.  Every registered id is at least `0x4641_0001`, far above
//! those keys.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::neg_ln::{neg_ln_batch, BATCH};

/// SplitMix64 step, used to decorrelate (seed, stream) pairs.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A factory of independent, reproducible RNG streams.
#[derive(Debug, Clone, Copy)]
pub struct RngStreams {
    master_seed: u64,
}

impl RngStreams {
    /// Create a factory from a master seed.
    pub fn new(master_seed: u64) -> Self {
        Self { master_seed }
    }

    /// The RNG for stream `stream_id` (e.g. the replication index).
    pub fn stream(&self, stream_id: u64) -> ChaCha8Rng {
        let mixed = splitmix64(self.master_seed ^ splitmix64(stream_id.wrapping_add(0xA5A5_5A5A)));
        ChaCha8Rng::seed_from_u64(mixed)
    }

    /// A sub-stream of a stream, for models that need several independent
    /// generators within one replication (e.g. one per job class, so that
    /// common random numbers can be used across policies).
    pub fn substream(&self, stream_id: u64, sub_id: u64) -> ChaCha8Rng {
        let mixed = splitmix64(
            self.master_seed
                ^ splitmix64(stream_id.wrapping_add(0x0123_4567_89AB_CDEF))
                ^ splitmix64(sub_id.wrapping_mul(0x9E37_79B9).wrapping_add(17)),
        );
        ChaCha8Rng::seed_from_u64(mixed)
    }
}

/// Whether no two of `ids` are equal.
const fn distinct(ids: &[u64]) -> bool {
    let mut i = 0;
    while i < ids.len() {
        let mut j = i + 1;
        while j < ids.len() {
            if ids[i] == ids[j] {
                return false;
            }
            j += 1;
        }
        i += 1;
    }
    true
}

/// Declares each entry as a `pub const` of type `u64` and fails the build
/// when two entries are equal.
macro_rules! stream_ids {
    ($($(#[$doc:meta])* $name:ident = $id:literal;)*) => {
        $($(#[$doc])* pub const $name: u64 = $id;)*
        const _: () = assert!(distinct(&[$($id),*]), "two stream ids are equal");
    };
}

stream_ids! {
    /// Oracle-corpus generation (`"GENE"`): scenario `i` of the ss-verify
    /// corpus draws its parameters from `substream(GENERATION_STREAM, i)`.
    GENERATION_STREAM = 0x4745_4E45;
    /// Fabric replication seeds (`"FABR"`): replication `rep` of scenario
    /// `s` is seeded from `substream(FABRIC_SIM_STREAM, s * 2^16 + rep)`.
    FABRIC_SIM_STREAM = 0x4641_4252;
    /// Fabric arrival gaps, keyed by class.
    ARRIVAL_FAMILY = 0x4641_0001;
    /// Fabric MMPP phase sojourns, keyed by class.
    PHASE_FAMILY = 0x4641_0002;
    /// Fabric service times, keyed by `tier * 2^16 + server`.
    SERVICE_FAMILY = 0x4641_0003;
    /// Fabric weighted load-balancer draws, keyed by tier.
    LB_FAMILY = 0x4641_0004;
    /// Fabric failure/repair cycles, keyed by `tier * 2^16 + server`.
    FAIL_FAMILY = 0x4641_0005;
    /// Fabric retry backoff jitter, keyed by class.
    RETRY_FAMILY = 0x4641_0006;
    /// Fabric slowdown-epoch onsets and durations, keyed by tier.
    SLOWDOWN_FAMILY = 0x4641_0007;
    /// Fabric circuit-breaker open-period jitter, keyed by tier.
    PROBE_FAMILY = 0x4641_0009;
}

/// A stream of unit exponentials `-(1.0 - u).ln()`, one per uniform `u`
/// of the generator it owns, in order, drawn 32 at a time.
///
/// Each draw has the bits of `-(1.0 - rng.gen::<f64>()).ln()` on that
/// generator, so `draw() / rate` has the bits of the inverse-transform
/// draw `-(1.0 - u).ln() / rate` of `ss_distributions::Exponential`: both
/// divide the same operands, and the negation is exact. Drawing ahead
/// changes only how many uniforms the generator has yielded when a run
/// ends, and nothing else reads the generator. A batch of 32 uniforms is
/// 64 words, one ChaCha8 refill.
///
/// A refill takes the 32 logarithms together: on x86-64 Linux with GNU
/// libc, when the CPU has AVX2 and FMA, through a port of glibc's `log`
/// that returns its bits four lanes at a time, and elsewhere through
/// `f64::ln`.
#[derive(Debug, Clone)]
pub struct ExpStream {
    rng: ChaCha8Rng,
    buf: [f64; BATCH],
    /// Next unread draw in `buf`; `BATCH` means "refill needed".
    next: usize,
}

impl ExpStream {
    /// A stream drawing from `rng`.
    pub fn new(rng: ChaCha8Rng) -> Self {
        Self {
            rng,
            buf: [0.0; BATCH],
            next: BATCH,
        }
    }

    /// The next unit exponential (mean 1).
    #[inline]
    pub fn draw(&mut self) -> f64 {
        if self.next == BATCH {
            self.refill();
        }
        let e = self.buf[self.next];
        self.next += 1;
        e
    }

    #[inline(never)]
    fn refill(&mut self) {
        for x in &mut self.buf {
            *x = 1.0 - self.rng.gen::<f64>();
        }
        neg_ln_batch(&mut self.buf);
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible() {
        let f1 = RngStreams::new(123);
        let f2 = RngStreams::new(123);
        let mut a = f1.stream(7);
        let mut b = f2.stream(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_streams_differ() {
        let f = RngStreams::new(99);
        let mut a = f.stream(1);
        let mut b = f.stream(2);
        let same = (0..50).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RngStreams::new(1).stream(0);
        let mut b = RngStreams::new(2).stream(0);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn substreams_are_independent_of_each_other() {
        let f = RngStreams::new(5);
        let mut a = f.substream(0, 0);
        let mut b = f.substream(0, 1);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn distinct_rejects_a_repeat_anywhere() {
        assert!(!distinct(&[1, 1, 2, 3]), "first pair");
        assert!(!distinct(&[1, 2, 3, 3]), "last pair");
        assert!(!distinct(&[1, 2, 3, 1]), "non-adjacent pair");
    }

    #[test]
    fn distinct_accepts_distinct_ids() {
        assert!(distinct(&[]));
        assert!(distinct(&[GENERATION_STREAM]));
        assert!(distinct(&[
            GENERATION_STREAM,
            FABRIC_SIM_STREAM,
            ARRIVAL_FAMILY,
            PHASE_FAMILY,
            SERVICE_FAMILY,
            LB_FAMILY,
            FAIL_FAMILY,
            RETRY_FAMILY,
            SLOWDOWN_FAMILY,
            PROBE_FAMILY,
        ]));
    }

    #[test]
    fn uniformity_smoke_test() {
        // Cheap sanity check that the stream behaves like U(0,1) on average.
        let f = RngStreams::new(2024);
        let mut rng = f.stream(0);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    /// An `ExpStream` yields `-(1.0 - u).ln()` for the uniforms `u` of a
    /// twin generator, bit for bit, across thousands of refills.
    #[test]
    fn exp_stream_matches_the_scalar_draw_bit_for_bit() {
        for seed in [0, 1, 0xFAB0_5EED, u64::MAX] {
            let mut twin = ChaCha8Rng::seed_from_u64(seed);
            let mut stream = ExpStream::new(ChaCha8Rng::seed_from_u64(seed));
            for i in 0..100_000 {
                let want = -(1.0 - twin.gen::<f64>()).ln();
                let got = stream.draw();
                assert_eq!(got.to_bits(), want.to_bits(), "seed {seed}, draw {i}");
            }
        }
    }
}

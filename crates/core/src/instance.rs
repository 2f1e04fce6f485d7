//! Batch-scheduling problem instances: builders and random generators.

use crate::job::Job;
use rand::Rng;
use ss_distributions::{
    dyn_dist, DynDist, Erlang, Exponential, HyperExponential, TwoPoint, Uniform,
};

/// A batch of stochastic jobs to be scheduled on one or more machines
/// (the §1 model family of the survey).
#[derive(Debug, Clone)]
pub struct BatchInstance {
    jobs: Vec<Job>,
}

impl BatchInstance {
    /// Start building an instance job by job.
    pub fn builder() -> BatchInstanceBuilder {
        BatchInstanceBuilder { jobs: Vec::new() }
    }

    /// Create directly from a vector of jobs.
    pub fn from_jobs(jobs: Vec<Job>) -> Self {
        assert!(!jobs.is_empty(), "instance needs at least one job");
        Self { jobs }
    }

    /// The jobs.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if there are no jobs (never the case after construction).
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// Builder for [`BatchInstance`].
#[derive(Debug, Default)]
pub struct BatchInstanceBuilder {
    jobs: Vec<Job>,
}

impl BatchInstanceBuilder {
    /// Add a job with the given weight and processing-time distribution.
    pub fn job(mut self, weight: f64, dist: DynDist) -> Self {
        let id = self.jobs.len();
        self.jobs.push(Job::new(id, weight, dist));
        self
    }

    /// Add an unweighted job (weight 1), for total-flowtime / makespan models.
    pub fn unweighted_job(self, dist: DynDist) -> Self {
        self.job(1.0, dist)
    }

    /// Finalise the instance.
    pub fn build(self) -> BatchInstance {
        BatchInstance::from_jobs(self.jobs)
    }
}

/// Which distribution family a random generator should draw processing-time
/// distributions from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceFamily {
    /// Exponential with mean drawn uniformly from a range.
    Exponential,
    /// Erlang-k, k drawn from 2..=4.
    Erlang,
    /// Two-branch hyperexponential with SCV drawn from [2, 6].
    HyperExponential,
    /// Continuous uniform with random endpoints.
    Uniform,
    /// Two-point distributions (the Coffman–Hofri–Weiss regime).
    TwoPoint,
    /// A mix of all of the above (one family drawn per job).
    Mixed,
}

/// The range the generator draws mean processing times from, uniformly.
const MEANS: std::ops::Range<f64> = 0.5..3.0;
/// The range the generator draws job weights from, uniformly.
const WEIGHTS: std::ops::Range<f64> = 0.5..2.0;

/// Random-instance generator with documented, reproducible parameters.
///
/// Means are drawn uniformly from `[0.5, 3)` and weights from `[0.5, 2)`.
#[derive(Debug, Clone)]
pub struct InstanceGenerator {
    /// Distribution family for processing times.
    pub family: InstanceFamily,
}

impl Default for InstanceGenerator {
    fn default() -> Self {
        Self::with_family(InstanceFamily::Mixed)
    }
}

impl InstanceGenerator {
    /// Generator with a fixed family.
    pub fn with_family(family: InstanceFamily) -> Self {
        Self { family }
    }

    /// Draw one processing-time distribution.
    pub fn sample_dist<R: Rng + ?Sized>(&self, rng: &mut R) -> DynDist {
        let mean = rng.gen_range(MEANS);
        let family = match self.family {
            InstanceFamily::Mixed => match rng.gen_range(0..5u32) {
                0 => InstanceFamily::Exponential,
                1 => InstanceFamily::Erlang,
                2 => InstanceFamily::HyperExponential,
                3 => InstanceFamily::Uniform,
                _ => InstanceFamily::TwoPoint,
            },
            f => f,
        };
        match family {
            InstanceFamily::Exponential => dyn_dist(Exponential::with_mean(mean)),
            InstanceFamily::Erlang => {
                let k = rng.gen_range(2..=4u32);
                dyn_dist(Erlang::with_mean(k, mean))
            }
            InstanceFamily::HyperExponential => {
                let scv = rng.gen_range(2.0..6.0);
                dyn_dist(HyperExponential::with_mean_scv(mean, scv))
            }
            InstanceFamily::Uniform => {
                let half_width = rng.gen_range(0.1..0.9) * mean;
                dyn_dist(Uniform::new(mean - half_width, mean + half_width))
            }
            InstanceFamily::TwoPoint => {
                let p = rng.gen_range(0.5..0.95);
                let low = rng.gen_range(0.05..0.5) * mean;
                // Choose the high point so that the mean is as requested.
                let high = (mean - p * low) / (1.0 - p);
                dyn_dist(TwoPoint::new(p, low, high))
            }
            InstanceFamily::Mixed => unreachable!("resolved above"),
        }
    }

    /// Generate an instance with `n` jobs.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> BatchInstance {
        assert!(n > 0);
        let jobs = (0..n)
            .map(|id| {
                let weight = rng.gen_range(WEIGHTS);
                Job::new(id, weight, self.sample_dist(rng))
            })
            .collect();
        BatchInstance::from_jobs(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn builder_assigns_ids() {
        let inst = BatchInstance::builder()
            .job(1.0, dyn_dist(Exponential::new(1.0)))
            .job(2.0, dyn_dist(Exponential::new(2.0)))
            .unweighted_job(dyn_dist(Exponential::new(3.0)))
            .build();
        assert_eq!(inst.len(), 3);
        assert_eq!(inst.jobs()[0].id, 0);
        assert_eq!(inst.jobs()[2].id, 2);
        assert_eq!(inst.jobs()[2].weight, 1.0);
    }

    #[test]
    fn generator_is_reproducible() {
        let gen = InstanceGenerator::default();
        let mut rng1 = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let mut rng2 = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let a = gen.generate(10, &mut rng1);
        let b = gen.generate(10, &mut rng2);
        for (ja, jb) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(ja.weight, jb.weight);
            assert!((ja.mean_processing() - jb.mean_processing()).abs() < 1e-12);
        }
    }

    #[test]
    fn generator_respects_family_and_ranges() {
        let gen = InstanceGenerator::with_family(InstanceFamily::Exponential);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let inst = gen.generate(50, &mut rng);
        for j in inst.jobs() {
            let mean = j.mean_processing();
            assert!((MEANS.start - 1e-9..=MEANS.end + 1e-9).contains(&mean));
            assert!(WEIGHTS.contains(&j.weight));
            assert_eq!(j.dist.kind(), ss_distributions::DistKind::Exponential);
        }
    }

    #[test]
    fn two_point_generator_hits_requested_mean() {
        let gen = InstanceGenerator::with_family(InstanceFamily::TwoPoint);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(33);
        let inst = gen.generate(20, &mut rng);
        for j in inst.jobs() {
            assert!(j.mean_processing() >= MEANS.start - 1e-9);
            // The constructed high point keeps the mean in range by design.
            assert!(j.mean_processing() <= MEANS.end + 1e-9);
        }
    }
}

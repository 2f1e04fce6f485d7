//! Shared workload builders of the experiment harness and its sweeps.
//! Every builder is deterministic given its arguments (seeds are fixed
//! constants documented in EXPERIMENTS.md).

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ss_bandits::branching::offspring::OffspringDist;
use ss_bandits::branching::BranchingBandit;
use ss_bandits::instances::{maintenance_project, random_project};
use ss_bandits::project::BanditProject;
use ss_bandits::restless::RestlessProject;
use ss_core::instance::{BatchInstance, InstanceFamily, InstanceGenerator};
use ss_core::job::JobClass;
use ss_distributions::{dyn_dist, Erlang, Exponential, HyperExponential};
use ss_queueing::klimov::KlimovNetwork;

/// Master seed used by every experiment (recorded in EXPERIMENTS.md).
pub const MASTER_SEED: u64 = 20260613;

/// The derived master seed for a named workload: what seed-taking sweeps
/// (which fan out their own per-point `RngStreams`) receive for tag `tag`.
pub fn seed_for(tag: u64) -> u64 {
    MASTER_SEED ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A reproducible RNG for a named workload.
pub fn rng_for(tag: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed_for(tag))
}

/// Random batch instance of `n` jobs from the given family.
pub fn batch_instance(n: usize, family: InstanceFamily, tag: u64) -> BatchInstance {
    let mut rng = rng_for(tag);
    InstanceGenerator::with_family(family).generate(n, &mut rng)
}

/// The three-class M/G/1 instance used by E11 (mixed service variability).
pub fn mg1_three_classes(load_scale: f64) -> Vec<JobClass> {
    vec![
        JobClass::new(
            0,
            0.20 * load_scale,
            dyn_dist(Exponential::with_mean(1.0)),
            1.0,
        ),
        JobClass::new(
            1,
            0.25 * load_scale,
            dyn_dist(Erlang::with_mean(3, 0.8)),
            3.0,
        ),
        JobClass::new(
            2,
            0.10 * load_scale,
            dyn_dist(HyperExponential::with_mean_scv(1.5, 4.0)),
            2.0,
        ),
    ]
}

/// The three-class feedback network used by E12.
pub fn klimov_three_class() -> KlimovNetwork {
    KlimovNetwork::new(
        vec![0.25, 0.1, 0.05],
        vec![
            dyn_dist(Exponential::with_mean(0.8)),
            dyn_dist(Exponential::with_mean(0.6)),
            dyn_dist(Exponential::with_mean(1.2)),
        ],
        vec![1.0, 2.0, 4.0],
        vec![
            vec![0.0, 0.6, 0.0],
            vec![0.0, 0.0, 0.3],
            vec![0.0, 0.0, 0.0],
        ],
    )
}

/// The two-class M/M/· base instance used by E13.
pub fn mmm_two_classes() -> Vec<JobClass> {
    vec![
        JobClass::new(0, 0.5, dyn_dist(Exponential::with_mean(1.0)), 1.0),
        JobClass::new(1, 0.4, dyn_dist(Exponential::with_mean(0.6)), 3.0),
    ]
}

/// A random `k`-state bandit project (E7/E8).
pub fn bandit_project(k: usize, tag: u64) -> BanditProject {
    let mut rng = rng_for(tag);
    random_project(k, &mut rng)
}

/// The machine-maintenance restless project used by E10.
pub fn maintenance_restless() -> RestlessProject {
    maintenance_project(5, 0.35, 0.4, 0.95)
}

/// The three-class branching bandit used by E18: class 0 spawns class-1 and
/// class-2 follow-up work, class 1 occasionally spawns class-2 work, class 2
/// is terminal.
pub fn branching_three_class() -> BranchingBandit {
    BranchingBandit::new(
        vec![
            dyn_dist(Exponential::with_mean(1.0)),
            dyn_dist(Exponential::with_mean(0.5)),
            dyn_dist(Exponential::with_mean(1.5)),
        ],
        vec![2.0, 1.0, 3.0],
        vec![
            OffspringDist::new(vec![
                (vec![0, 1, 1], 0.3),
                (vec![0, 1, 0], 0.3),
                (vec![0, 0, 0], 0.4),
            ]),
            OffspringDist::feedback(3, 2, 0.4),
            OffspringDist::none(3),
        ],
    )
}

/// The two-class setup-time instance used by E16 (total load 0.73).
pub fn setup_two_classes() -> Vec<JobClass> {
    vec![
        JobClass::new(0, 0.45, dyn_dist(Exponential::with_mean(1.0)), 1.0),
        JobClass::new(1, 0.35, dyn_dist(Exponential::with_mean(0.8)), 2.0),
    ]
}

/// The cost-asymmetric two-class setup-time instance used by E20 (total
/// load 0.62, holding costs 1 vs 6): the regime where the interrupt
/// threshold of the expensive class matters — never interrupting lets
/// expensive work pile up, interrupting for every job overloads the server
/// with changeovers.
pub fn setup_two_classes_asymmetric() -> Vec<JobClass> {
    vec![
        JobClass::new(0, 0.50, dyn_dist(Exponential::with_mean(1.0)), 1.0),
        JobClass::new(1, 0.15, dyn_dist(Exponential::with_mean(0.8)), 6.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_reproducible() {
        let a = batch_instance(6, InstanceFamily::Exponential, 1);
        let b = batch_instance(6, InstanceFamily::Exponential, 1);
        for (ja, jb) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(ja.weight, jb.weight);
        }
        let c = batch_instance(6, InstanceFamily::Exponential, 2);
        assert!(a
            .jobs()
            .iter()
            .zip(c.jobs())
            .any(|(x, y)| x.weight != y.weight));
    }

    #[test]
    fn standard_instances_are_stable() {
        let classes = mg1_three_classes(1.0);
        let rho: f64 = classes.iter().map(|c| c.load()).sum();
        assert!(rho < 1.0);
        assert!(klimov_three_class().total_load() < 1.0);
    }
}

//! Exact steady-state formulas for the multiclass M/G/1 queue.
//!
//! * [`pollaczek_khinchine_wait`] — the P-K mean waiting time of the FIFO
//!   M/G/1 queue.
//! * [`mg1_nonpreemptive_priority`] — Cobham's formulas for the mean waiting
//!   time of each class under a static nonpreemptive priority order.
//! * [`mg1_preemptive_priority`] — the classical preemptive-resume priority
//!   formulas.
//!
//! These are the exact evaluations behind experiment E11: every static
//! priority order of a small instance can be scored exactly, which both
//! verifies the cµ-rule's optimality and calibrates the simulator in
//! [`crate::mg1`].

use crate::population::holding_cost_rate;
use ss_core::exhaustive::best_order;
use ss_core::job::JobClass;

/// Traffic intensity of a set of classes.
pub fn total_load(classes: &[JobClass]) -> f64 {
    classes.iter().map(|c| c.load()).sum()
}

/// Mean residual-work contribution `W0 = Σ_j λ_j E[S_j^2] / 2`.
pub fn mean_residual_work(classes: &[JobClass]) -> f64 {
    classes
        .iter()
        .map(|c| c.arrival_rate * c.service.second_moment() / 2.0)
        .sum()
}

/// Pollaczek–Khinchine: mean waiting time (excluding service) of the FIFO
/// M/G/1 queue.  Requires total load < 1.
pub fn pollaczek_khinchine_wait(classes: &[JobClass]) -> f64 {
    let rho = total_load(classes);
    assert!(rho < 1.0, "queue is unstable (rho = {rho})");
    mean_residual_work(classes) / (1.0 - rho)
}

/// Per-class steady-state summary from the exact formulas.
#[derive(Debug, Clone)]
pub struct PriorityQueueMeans {
    /// Mean waiting time in queue (excluding service) per class, in the
    /// *original* class order.
    pub wait: Vec<f64>,
    /// Mean number in system per class (Little's law: `λ (W + E[S])`).
    pub number_in_system: Vec<f64>,
    /// Steady-state holding-cost rate `Σ_j c_j E[L_j]`.
    pub holding_cost_rate: f64,
}

/// Cobham's formulas for a **nonpreemptive** static priority order.
///
/// `priority_order[0]` is the highest-priority class (index into `classes`).
pub fn mg1_nonpreemptive_priority(
    classes: &[JobClass],
    priority_order: &[usize],
) -> PriorityQueueMeans {
    assert_eq!(priority_order.len(), classes.len());
    let rho = total_load(classes);
    assert!(rho < 1.0, "queue is unstable (rho = {rho})");
    let w0 = mean_residual_work(classes);

    let mut wait = vec![0.0; classes.len()];
    let mut sigma_prev = 0.0;
    for (rank, &k) in priority_order.iter().enumerate() {
        let sigma_k = sigma_prev + classes[k].load();
        // Cobham: W_k = W0 / ((1 - sigma_{k-1})(1 - sigma_k)).
        wait[k] = w0 / ((1.0 - sigma_prev) * (1.0 - sigma_k));
        sigma_prev = sigma_k;
        let _ = rank;
    }
    let number_in_system: Vec<f64> = classes
        .iter()
        .enumerate()
        .map(|(k, c)| c.arrival_rate * (wait[k] + c.mean_service()))
        .collect();
    let holding_cost_rate =
        holding_cost_rate(classes.iter().map(|c| c.holding_cost), &number_in_system);
    PriorityQueueMeans {
        wait,
        number_in_system,
        holding_cost_rate,
    }
}

/// Classical **preemptive-resume** priority formulas for the M/G/1 queue.
///
/// The mean time in system of a class with priority rank `k` (rank 0
/// highest) is
///
/// ```text
/// T_k = E[S_k] / (1 - σ_{k-1})
///     + Σ_{i <= k} λ_i E[S_i^2] / (2 (1 - σ_{k-1})(1 - σ_k))
/// ```
///
/// where `σ_k` is the load of the classes with rank `<= k`.
pub fn mg1_preemptive_priority(
    classes: &[JobClass],
    priority_order: &[usize],
) -> PriorityQueueMeans {
    assert_eq!(priority_order.len(), classes.len());
    let rho = total_load(classes);
    assert!(rho < 1.0, "queue is unstable (rho = {rho})");

    let mut time_in_system = vec![0.0; classes.len()];
    let mut sigma_prev = 0.0;
    let mut residual_prefix = 0.0;
    for &k in priority_order {
        let sigma_k = sigma_prev + classes[k].load();
        residual_prefix += classes[k].arrival_rate * classes[k].service.second_moment() / 2.0;
        time_in_system[k] = classes[k].mean_service() / (1.0 - sigma_prev)
            + residual_prefix / ((1.0 - sigma_prev) * (1.0 - sigma_k));
        sigma_prev = sigma_k;
    }
    let wait: Vec<f64> = classes
        .iter()
        .enumerate()
        .map(|(k, c)| time_in_system[k] - c.mean_service())
        .collect();
    let number_in_system: Vec<f64> = classes
        .iter()
        .enumerate()
        .map(|(k, c)| c.arrival_rate * time_in_system[k])
        .collect();
    let holding_cost_rate =
        holding_cost_rate(classes.iter().map(|c| c.holding_cost), &number_in_system);
    PriorityQueueMeans {
        wait,
        number_in_system,
        holding_cost_rate,
    }
}

/// Evaluate every static priority order exactly and return
/// `(best_order, best_cost)` for the nonpreemptive model.
/// Limited to 8 classes.
pub fn best_nonpreemptive_order(classes: &[JobClass]) -> (Vec<usize>, f64) {
    assert!(
        classes.len() <= 8,
        "exhaustive order search limited to 8 classes"
    );
    best_order(classes.len(), |order| {
        mg1_nonpreemptive_priority(classes, order).holding_cost_rate
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmu::cmu_order;
    use ss_distributions::{dyn_dist, Deterministic, Exponential};

    fn classes_3() -> Vec<JobClass> {
        vec![
            JobClass::new(0, 0.2, dyn_dist(Exponential::with_mean(1.0)), 1.0),
            JobClass::new(1, 0.3, dyn_dist(Exponential::with_mean(0.5)), 3.0),
            JobClass::new(2, 0.1, dyn_dist(Exponential::with_mean(2.0)), 2.0),
        ]
    }

    #[test]
    fn pollaczek_khinchine_md1_and_mm1() {
        // M/M/1: W = rho / (mu - lambda); M/D/1 waits are half as long.
        let mm1 = vec![JobClass::new(
            0,
            0.5,
            dyn_dist(Exponential::with_mean(1.0)),
            1.0,
        )];
        let w = pollaczek_khinchine_wait(&mm1);
        assert!((w - 1.0).abs() < 1e-12, "M/M/1 wait {w}");
        let md1 = vec![JobClass::new(
            0,
            0.5,
            dyn_dist(Deterministic::new(1.0)),
            1.0,
        )];
        let w_d = pollaczek_khinchine_wait(&md1);
        assert!((w_d - 0.5).abs() < 1e-12, "M/D/1 wait {w_d}");
    }

    #[test]
    fn single_class_priority_reduces_to_pk() {
        let classes = vec![JobClass::new(
            0,
            0.4,
            dyn_dist(Exponential::with_mean(1.5)),
            2.0,
        )];
        let res = mg1_nonpreemptive_priority(&classes, &[0]);
        assert!((res.wait[0] - pollaczek_khinchine_wait(&classes)).abs() < 1e-12);
    }

    #[test]
    fn high_priority_class_waits_less() {
        let classes = classes_3();
        let res = mg1_nonpreemptive_priority(&classes, &[1, 0, 2]);
        assert!(res.wait[1] < res.wait[0]);
        assert!(res.wait[0] < res.wait[2]);
    }

    #[test]
    fn cmu_order_minimises_holding_cost_exactly() {
        // E11: the cµ priority order attains the exhaustive best cost.
        let classes = classes_3();
        let (best_order, best_cost) = best_nonpreemptive_order(&classes);
        let cmu = cmu_order(&classes);
        let cmu_cost = mg1_nonpreemptive_priority(&classes, &cmu).holding_cost_rate;
        assert!(
            (cmu_cost - best_cost).abs() < 1e-9,
            "cmu order {cmu:?} cost {cmu_cost} vs best {best_order:?} cost {best_cost}"
        );
    }

    #[test]
    fn preemptive_highest_class_sees_clean_mm1() {
        // Under preemptive priority the top class behaves as if alone.
        let classes = classes_3();
        let res = mg1_preemptive_priority(&classes, &[1, 0, 2]);
        let solo = vec![classes[1].clone()];
        let solo_wait = pollaczek_khinchine_wait(&solo);
        let t1 = res.wait[1] + classes[1].mean_service();
        let solo_t = solo_wait + classes[1].mean_service();
        assert!(
            (t1 - solo_t).abs() < 1e-9,
            "top class T {t1} vs solo {solo_t}"
        );
    }

    #[test]
    fn preemptive_beats_nonpreemptive_for_top_class() {
        let classes = classes_3();
        let order = [1usize, 0, 2];
        let np = mg1_nonpreemptive_priority(&classes, &order);
        let pr = mg1_preemptive_priority(&classes, &order);
        assert!(pr.wait[1] <= np.wait[1] + 1e-12);
    }

    #[test]
    #[should_panic]
    fn unstable_load_is_rejected() {
        let classes = vec![JobClass::new(
            0,
            2.0,
            dyn_dist(Exponential::with_mean(1.0)),
            1.0,
        )];
        let _ = pollaczek_khinchine_wait(&classes);
    }
}

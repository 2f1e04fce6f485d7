//! Uniform (speed-scaled) parallel machines.
//!
//! Machines differ only in speed: a job with processing requirement `X`
//! takes `X / s_k` time on a machine of speed `s_k`.  The survey notes that
//! under fairly strong assumptions the optimal policies have a **threshold
//! structure**: slow machines are only used when enough jobs remain
//! (Agrawala et al. 1984 for flowtime, Coffman–Flatto–Garey–Weber 1987 for
//! makespan, Righter 1988).  This module provides an exact flowtime DP for
//! identical exponential jobs on two uniform machines in the commitment
//! model, which exhibits that threshold structure numerically.

/// Exact expected total flowtime for `n` *identical* exponential jobs
/// (requirement rate `lambda`) on two uniform machines in the
/// **commitment** model: once a job starts on a machine it stays there.
///
/// The policy is a threshold rule: the fast machine is used whenever it is
/// idle and unstarted jobs remain; the slow machine is used only when it is
/// idle and strictly more than `threshold` jobs are still unstarted.  This
/// is the model in which the threshold structure of Agrawala et al. (1984)
/// appears: committing the last job to a very slow machine is irreversible
/// and costly, so the optimal threshold is positive when the speed ratio is
/// large.
pub fn exp_identical_two_uniform_commit_flowtime(
    n: usize,
    lambda: f64,
    speeds: (f64, f64),
    threshold: usize,
) -> f64 {
    assert!(n >= 1 && lambda > 0.0 && speeds.0 > 0.0 && speeds.1 > 0.0);
    let (s_fast, s_slow) = speeds;
    // Memoised recursion over (unstarted, fast_busy, slow_busy).
    // Value = expected remaining total flowtime (sum over jobs of remaining
    // time in system).
    let mut memo = vec![vec![vec![f64::NAN; 2]; 2]; n + 1];

    fn solve(
        u: usize,
        fast_busy: bool,
        slow_busy: bool,
        lambda: f64,
        s_fast: f64,
        s_slow: f64,
        threshold: usize,
        memo: &mut Vec<Vec<Vec<f64>>>,
    ) -> f64 {
        // Apply the assignment policy instantaneously.
        let mut u = u;
        let mut fast_busy = fast_busy;
        let mut slow_busy = slow_busy;
        if !fast_busy && u > 0 {
            fast_busy = true;
            u -= 1;
        }
        if !slow_busy && u > threshold {
            slow_busy = true;
            u -= 1;
        }
        if !fast_busy && !slow_busy {
            debug_assert_eq!(u, 0);
            return 0.0;
        }
        let key = &memo[u][fast_busy as usize][slow_busy as usize];
        if !key.is_nan() {
            return *key;
        }
        let rate_fast = if fast_busy { lambda * s_fast } else { 0.0 };
        let rate_slow = if slow_busy { lambda * s_slow } else { 0.0 };
        let total_rate = rate_fast + rate_slow;
        let in_system = u as f64 + fast_busy as u64 as f64 + slow_busy as u64 as f64;
        let mut v = in_system / total_rate;
        if fast_busy {
            v += rate_fast / total_rate
                * solve(u, false, slow_busy, lambda, s_fast, s_slow, threshold, memo);
        }
        if slow_busy {
            v += rate_slow / total_rate
                * solve(u, fast_busy, false, lambda, s_fast, s_slow, threshold, memo);
        }
        memo[u][fast_busy as usize][slow_busy as usize] = v;
        v
    }

    solve(
        n, false, false, lambda, s_fast, s_slow, threshold, &mut memo,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commitment_model_exhibits_threshold_structure() {
        // Agrawala et al. (1984): once jobs are committed to machines, a very
        // slow machine should be reserved for situations with many jobs left.
        // Threshold 1 ("never commit the last unstarted job to the slow
        // machine") strictly beats threshold 0 when the speed ratio is large,
        // while with equal speeds threshold 0 is best.
        let n = 4;
        let slow_ratio = (1.0, 0.05);
        let always = exp_identical_two_uniform_commit_flowtime(n, 1.0, slow_ratio, 0);
        let threshold1 = exp_identical_two_uniform_commit_flowtime(n, 1.0, slow_ratio, 1);
        assert!(
            threshold1 < always - 1e-6,
            "threshold 1 ({threshold1}) should beat always-use ({always}) for a very slow machine"
        );
        let equal = (1.0, 1.0);
        let always_eq = exp_identical_two_uniform_commit_flowtime(n, 1.0, equal, 0);
        let threshold_eq = exp_identical_two_uniform_commit_flowtime(n, 1.0, equal, 1);
        assert!(always_eq <= threshold_eq + 1e-9);
    }

    #[test]
    fn commitment_single_machine_limit() {
        // With the slow machine never allowed (huge threshold) the value is
        // the single fast machine flowtime: sum_{k=1..n} k / (lambda * s).
        let n = 5;
        let v = exp_identical_two_uniform_commit_flowtime(n, 2.0, (1.0, 1.0), 100);
        let expected: f64 = (1..=n).map(|k| k as f64 / 2.0).sum();
        assert!((v - expected).abs() < 1e-9, "{v} vs {expected}");
    }
}

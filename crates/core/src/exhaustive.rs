//! Exhaustive enumeration for the exact solvers: the best of all `n!`
//! orders, and the `k`-subsets of a set.

/// Search all `n!` orders of `0..n` for the one minimising `cost`;
/// returns `(best_order, best_cost)`.
///
/// Orders are visited by Heap's algorithm, starting from the identity, and
/// the best is replaced only on a strictly smaller cost, so among tied
/// orders the first one visited wins.  Callers cap `n`.
pub fn best_order(n: usize, mut cost: impl FnMut(&[usize]) -> f64) -> (Vec<usize>, f64) {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best_order = perm.clone();
    let mut best_cost = cost(&perm);
    let mut c = vec![0usize; n];
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            let value = cost(&perm);
            if value < best_cost {
                best_cost = value;
                best_order = perm.clone();
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    (best_order, best_cost)
}

/// All `k`-element subsets of `items`, each listed in `items` order, in
/// lexicographic order of their positions.
pub fn k_subsets(items: &[usize], k: usize) -> Vec<Vec<usize>> {
    fn rec(
        items: &[usize],
        k: usize,
        start: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for i in start..items.len() {
            current.push(items[i]);
            rec(items, k, i + 1, current, out);
            current.pop();
        }
    }
    let mut out = Vec::new();
    rec(items, k, 0, &mut Vec::with_capacity(k), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_order_visits_every_order_and_keeps_the_first_tie() {
        let mut seen = Vec::new();
        let (order, cost) = best_order(4, |perm| {
            seen.push(perm.to_vec());
            // Ties between every order that puts 3 first.
            if perm[0] == 3 {
                0.0
            } else {
                1.0
            }
        });
        let first_tie = seen.iter().find(|perm| perm[0] == 3).unwrap().clone();
        assert_eq!((order, cost), (first_tie, 0.0));
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 24);
        assert_eq!(best_order(0, |perm| perm.len() as f64), (vec![], 0.0));
    }

    #[test]
    fn k_subset_enumeration() {
        let subsets = k_subsets(&[0, 1, 3], 2);
        assert_eq!(subsets, vec![vec![0, 1], vec![0, 3], vec![1, 3]]);
        let subsets = k_subsets(&[0, 1, 2, 3], 2);
        assert_eq!(subsets.len(), 6);
        assert!(subsets.contains(&vec![0, 3]));
        assert!(subsets.iter().all(|s| s.len() == 2));
        assert_eq!(k_subsets(&[4, 7], 0), vec![Vec::<usize>::new()]);
    }
}

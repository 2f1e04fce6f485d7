//! Golden pin on the exact index bits the fabric serves.
//!
//! The conformance fixtures only see the *order* the disciplines impose,
//! so a last-ulp drift in the Whittle or Gittins arithmetic (a reordered
//! Thomas solve, a reassociated fair-charge quotient, a moved saturation
//! boundary, a lost `-∞` pin) could pass every fixture unnoticed.  This
//! test folds `class_index(class, len).to_bits()` over every tier and
//! class of every check-budget scenario, at every queue length the
//! simulator can present up to 20 past the Whittle truncation plus one far
//! beyond it, into one FNV-1a digest and compares it with the recorded
//! value.

use ss_fabric::config::WHITTLE_TRUNCATION;
use ss_fabric::scenarios::{scenario_list, Budget};

/// FNV-1a over the little-endian bytes of every served index, in
/// scenario, tier, class, queue-length order.
fn served_index_digest() -> (u64, usize) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut values = 0;
    for cfg in scenario_list(&Budget::check()) {
        for discipline in cfg.build_disciplines() {
            for class in 0..cfg.classes.len() {
                for len in (0..=WHITTLE_TRUNCATION + 20).chain([10_000]) {
                    for byte in discipline.class_index(class, len).to_bits().to_le_bytes() {
                        hash ^= u64::from(byte);
                        hash = hash.wrapping_mul(0x0100_0000_01b3);
                    }
                    values += 1;
                }
            }
        }
    }
    (hash, values)
}

#[test]
fn served_index_bits_match_the_recorded_digest() {
    let (digest, values) = served_index_digest();
    assert_eq!(
        (digest, values),
        (0xf645_a16b_8252_3c95, 992),
        "served index bits drifted: digest {digest:#018x} over {values} values"
    );
}

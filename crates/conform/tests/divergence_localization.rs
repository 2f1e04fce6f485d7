//! Divergence localization acceptance tests.
//!
//! Synthetic replica outputs, each broken in one of the classic ways
//! determinism fails in practice — float-formatting drift, hash-map
//! ordering, an injected timestamp, truncation — must each be localized to
//! the right byte offset, with hex context from both sides and the matching
//! root-cause hint.  These are the tests that fail without the subsystem:
//! a plain byte-equality check would say "differs" with none of this.

use ss_conform::targets::fixture_path;
use ss_conform::{default_root, first_divergence, RootCause, Target};

/// Report lines shared by the synthetic artifacts.
const BASE: &str = "alpha mean=0.5 jobs=400\nbeta mean=1.25 jobs=200\ngamma mean=2 jobs=100\n";

#[test]
fn float_formatting_drift_is_localized_and_hinted() {
    // Same value, different rendering: `0.5` vs `0.50`.
    let drifted = BASE.replace("mean=0.5 ", "mean=0.50 ");
    let d = first_divergence(
        "threads=1",
        BASE.as_bytes(),
        "threads=4",
        drifted.as_bytes(),
    )
    .expect("artifacts differ");
    // "alpha mean=0.5" — both sides agree through "mean=0.5"; the first
    // differing byte is the ' ' vs '0' right after it.
    let expected_offset = BASE.find("0.5 ").unwrap() + "0.5".len();
    assert_eq!(d.offset, expected_offset);
    assert_eq!(d.cause, RootCause::FloatFormatting);
    assert!(
        d.cause.hint().contains("float formatting"),
        "{}",
        d.cause.hint()
    );
    // The hint cross-links the ss-lint rule that catches this statically.
    assert!(
        d.cause.hint().contains("ss-lint L005"),
        "{}",
        d.cause.hint()
    );
    // Hex context: left starts at the ' ' (0x20), right at the extra '0' (0x30).
    assert!(d.left_context.starts_with("20 "), "{}", d.left_context);
    assert!(d.right_context.starts_with("30 "), "{}", d.right_context);
    assert!(d.left_context.ends_with('|'), "{}", d.left_context);
}

#[test]
fn map_ordering_shuffle_is_hinted() {
    // Same multiset of lines, shuffled — the HashMap-iteration signature.
    let shuffled = "beta mean=1.25 jobs=200\nalpha mean=0.5 jobs=400\ngamma mean=2 jobs=100\n";
    let d = first_divergence(
        "threads=1",
        BASE.as_bytes(),
        "threads=2",
        shuffled.as_bytes(),
    )
    .expect("artifacts differ");
    assert_eq!(d.offset, 0, "shuffle differs from the very first byte");
    assert_eq!(d.cause, RootCause::MapOrdering);
    assert!(d.cause.hint().contains("HashMap"), "{}", d.cause.hint());
    assert!(
        d.cause.hint().contains("ss-lint L001"),
        "{}",
        d.cause.hint()
    );
    // ASCII gloss shows the two different leading lines.
    assert!(
        d.left_context.contains("|alpha mean=0.5 j|"),
        "{}",
        d.left_context
    );
    assert!(
        d.right_context.contains("|beta mean=1.25 j|"),
        "{}",
        d.right_context
    );
}

#[test]
fn injected_timestamp_is_hinted() {
    let left = format!("{BASE}elapsed 1700000001 seconds\n");
    let right = format!("{BASE}elapsed 1700000923 seconds\n");
    let d = first_divergence("threads=1", left.as_bytes(), "threads=4", right.as_bytes())
        .expect("artifacts differ");
    // Divergence sits inside the epoch-seconds token.
    let expected_offset = left
        .char_indices()
        .zip(right.chars())
        .find(|((_, a), b)| a != b)
        .map(|((i, _), _)| i)
        .unwrap();
    assert_eq!(d.offset, expected_offset);
    assert_eq!(d.cause, RootCause::Timestamp);
    assert!(d.cause.hint().contains("wall-clock"), "{}", d.cause.hint());
    assert!(
        d.cause.hint().contains("ss-lint L002"),
        "{}",
        d.cause.hint()
    );
}

#[test]
fn harness_style_timing_lines_are_timestamps_too() {
    let left = format!("[E3 wall 1.20s]\n{BASE}");
    let right = format!("[E3 wall 3.41s]\n{BASE}");
    let d = first_divergence("threads=1", left.as_bytes(), "threads=4", right.as_bytes())
        .expect("artifacts differ");
    assert_eq!(d.cause, RootCause::Timestamp);
}

#[test]
fn truncation_is_localized_to_the_cut() {
    let truncated = &BASE[..BASE.len() - 20];
    let d = first_divergence(
        "threads=1",
        BASE.as_bytes(),
        "threads=2",
        truncated.as_bytes(),
    )
    .expect("artifacts differ");
    assert_eq!(d.offset, BASE.len() - 20, "offset is the shorter length");
    assert_eq!(
        d.cause,
        RootCause::Truncation {
            shorter: BASE.len() - 20,
            longer: BASE.len()
        }
    );
    assert!(
        d.cause.hint().contains("strict prefix"),
        "{}",
        d.cause.hint()
    );
    // The truncated side has no bytes at the offset.
    assert_eq!(
        d.right_context,
        format!("<end of artifact at {} bytes>", BASE.len() - 20)
    );
    // The longer side shows what the truncated replica lost.
    assert!(d.left_context.contains('|'), "{}", d.left_context);
}

#[test]
fn genuinely_different_values_get_no_false_hint() {
    let left = BASE.replace("mean=1.25", "mean=1.25001");
    let d = first_divergence("threads=1", left.as_bytes(), "threads=4", BASE.as_bytes())
        .expect("artifacts differ");
    assert_eq!(
        d.cause,
        RootCause::Unknown {
            left_len: left.len(),
            right_len: BASE.len()
        }
    );
    assert!(
        d.cause.hint().contains("unseeded RNG"),
        "{}",
        d.cause.hint()
    );
}

#[test]
fn divergence_report_carries_offset_contexts_and_hint() {
    let drifted = BASE.replace("mean=0.5 ", "mean=0.50 ");
    let d = first_divergence(
        "threads=1",
        BASE.as_bytes(),
        "threads=4",
        drifted.as_bytes(),
    )
    .unwrap();
    let report = d.report();
    assert!(
        report.contains(&format!("byte offset {} (0x{:x})", d.offset, d.offset)),
        "{report}"
    );
    assert!(report.contains("threads=1"), "{report}");
    assert!(report.contains("threads=4"), "{report}");
    assert!(report.contains("hint: float formatting"), "{report}");
}

/// A committed fixture's text.
fn committed(target: Target) -> String {
    std::fs::read_to_string(default_root().join(fixture_path(target.key()))).unwrap()
}

#[test]
fn a_one_ulp_value_drift_is_a_value_difference() {
    // Every value line `  NNNN: <bits> <value>` of the bit-exact artifacts,
    // re-rendered one ulp up: the 17-digit mantissa and the hex column must
    // not read as a clock, nor the hex digits as a reformatted number.
    let mut lines = 0;
    for target in [Target::ReplicationsCheck, Target::SweepsCheck] {
        let text = committed(target);
        for line in text.lines().filter(|l| l.starts_with("  ")) {
            let (index, rest) = line.split_once(": ").unwrap();
            let bits = u64::from_str_radix(&rest[..16], 16).unwrap();
            let up = bits + 1;
            let drifted = format!("{index}: {up:016x} {:.17e}", f64::from_bits(up));
            let doctored = text.replacen(line, &drifted, 1);
            let d = first_divergence("fixture", text.as_bytes(), "replica", doctored.as_bytes())
                .expect("artifacts differ");
            assert!(
                matches!(d.cause, RootCause::Unknown { .. }),
                "{}: {line:?} -> {:?}",
                target.key(),
                d.cause
            );
            lines += 1;
        }
    }
    assert_eq!(lines, 200 + 71, "every value line of both fixtures");
}

#[test]
fn a_count_change_next_to_a_seed_is_a_value_difference() {
    for (target, from, to) in [
        (Target::VerifyCheck, "scenarios=66", "scenarios=65"),
        (
            Target::FabricCheck,
            "fabric: 8 scenarios",
            "fabric: 7 scenarios",
        ),
    ] {
        let text = committed(target);
        assert!(text.contains(from), "{}: {from:?}", target.key());
        let doctored = text.replace(from, to);
        let d = first_divergence("fixture", text.as_bytes(), "replica", doctored.as_bytes())
            .expect("artifacts differ");
        assert!(
            matches!(d.cause, RootCause::Unknown { .. }),
            "{}: {:?}",
            target.key(),
            d.cause
        );
    }
}

#[test]
fn a_bare_epoch_token_is_a_timestamp() {
    let left = format!("{BASE}t=1700000001\n");
    let right = format!("{BASE}t=1700000923\n");
    let d = first_divergence("threads=1", left.as_bytes(), "threads=4", right.as_bytes())
        .expect("artifacts differ");
    assert_eq!(d.cause, RootCause::Timestamp);
}

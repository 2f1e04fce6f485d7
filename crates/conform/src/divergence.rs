//! Byte-level divergence localization with root-cause hints.
//!
//! Two artifacts that should be identical are compared byte-for-byte; on
//! mismatch the harness reports the **first divergent byte offset**, a
//! 16-byte hex window from each side, and a **root-cause hint** classifying
//! the most common ways determinism breaks in practice:
//!
//! * one artifact is a strict prefix of the other → truncation;
//! * the artifacts contain the same lines in a different order → hash-map /
//!   set iteration-order leakage;
//! * the diverging line smells like a clock (clock keywords, ISO dates,
//!   `[`-prefixed timing lines), or the diverging word is epoch seconds or
//!   milliseconds (an integer of 10 to 13 digits) on both sides →
//!   timestamp leakage;
//! * the diverging numeric tokens parse to the same value → float
//!   *formatting* drift (e.g. `0.50` vs `0.5`, `1e-2` vs `0.01`) — unless
//!   the diverging word is a `{:016x}` bit pattern on both sides, where any
//!   difference is one of value;
//! * otherwise the lengths and contexts are reported without a guess.
//!
//! Hints are heuristics for the human reading the CI log — the comparison
//! itself is exact and fails on any byte difference regardless of the hint.

use std::collections::HashMap;

/// Number of context bytes shown from each artifact at the divergence.
pub const CONTEXT_BYTES: usize = 16;

/// The classified likely root cause of a divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RootCause {
    /// One artifact is a strict prefix of the other.
    Truncation {
        /// Length of the shorter (truncated) artifact.
        shorter: usize,
        /// Length of the longer artifact.
        longer: usize,
    },
    /// Same multiset of lines, different order.
    MapOrdering,
    /// The diverging line or word looks like it carries a clock value.
    Timestamp,
    /// The diverging numeric tokens are the same number formatted
    /// differently.
    FloatFormatting,
    /// No heuristic matched; byte lengths are reported for orientation.
    Unknown {
        /// Length of the left artifact.
        left_len: usize,
        /// Length of the right artifact.
        right_len: usize,
    },
}

impl RootCause {
    /// One-line human-readable hint.
    pub fn hint(&self) -> String {
        match self {
            RootCause::Truncation { shorter, longer } => format!(
                "truncation: one replica's artifact is a strict prefix of the other \
                 ({shorter} vs {longer} bytes) — an early exit, a lost write, or a \
                 dropped tail"
            ),
            RootCause::MapOrdering => "map ordering: both artifacts contain the same lines in a \
                                       different order — iteration over a HashMap/HashSet is \
                                       leaking into the output; collect and sort, or use an \
                                       order-preserving structure (statically caught by \
                                       ss-lint L001)"
                .to_string(),
            RootCause::Timestamp => "timestamp leakage: the diverging line carries a wall-clock \
                                     value (epoch seconds, a date, or a timing line) — move it \
                                     to a `[`-prefixed timing line or strip it from the \
                                     deterministic report (statically caught by ss-lint L002)"
                .to_string(),
            RootCause::FloatFormatting => "float formatting: the diverging tokens parse to the \
                                           same number — formatting (not the value) drifted; pin \
                                           one rendering (e.g. `{:.17e}` or raw bits) at the \
                                           artifact boundary (statically caught by ss-lint L005)"
                .to_string(),
            RootCause::Unknown {
                left_len,
                right_len,
            } => format!(
                "no heuristic matched ({left_len} vs {right_len} bytes) — the replicas computed \
                 genuinely different values; suspect an unseeded RNG, thread-order-dependent \
                 accumulation, or shared mutable state"
            ),
        }
    }
}

/// A localized mismatch between two artifacts that should be identical.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Label of the left replica (e.g. `threads=1`).
    pub left_label: String,
    /// Label of the right replica (e.g. `threads=4`).
    pub right_label: String,
    /// First byte offset at which the artifacts differ (equal to the
    /// shorter length when one is a prefix of the other).
    pub offset: usize,
    /// Hex + ASCII window of [`CONTEXT_BYTES`] from the left artifact.
    pub left_context: String,
    /// Hex + ASCII window of [`CONTEXT_BYTES`] from the right artifact.
    pub right_context: String,
    /// The classified root cause.
    pub cause: RootCause,
}

impl Divergence {
    /// Multi-line report block for logs.
    pub fn report(&self) -> String {
        let width = self.left_label.len().max(self.right_label.len());
        format!(
            "first divergence at byte offset {} (0x{:x})\n  {:<width$}  {}\n  {:<width$}  {}\n  hint: {}",
            self.offset,
            self.offset,
            self.left_label,
            self.left_context,
            self.right_label,
            self.right_context,
            self.cause.hint(),
            width = width,
        )
    }
}

/// Render `CONTEXT_BYTES` of `buf` starting at `offset` as hex pairs plus an
/// ASCII gloss (non-printable bytes shown as `.`).
pub fn hex_context(buf: &[u8], offset: usize) -> String {
    if offset >= buf.len() {
        return format!("<end of artifact at {} bytes>", buf.len());
    }
    let window = &buf[offset..buf.len().min(offset + CONTEXT_BYTES)];
    let hex: Vec<String> = window.iter().map(|b| format!("{b:02x}")).collect();
    let ascii: String = window
        .iter()
        .map(|&b| {
            if (0x20..0x7f).contains(&b) {
                b as char
            } else {
                '.'
            }
        })
        .collect();
    format!("{:<47} |{}|", hex.join(" "), ascii)
}

/// Whether `b` can be part of a numeric token.
fn is_numeric_byte(b: u8) -> bool {
    b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-')
}

/// The maximal numeric token overlapping `offset` (expanding left from
/// `offset` even when the byte at `offset` itself is non-numeric, so the
/// shorter rendering of `0.50`-vs-`0.5` still yields `0.5`).
fn numeric_token_at(buf: &[u8], offset: usize) -> Option<&str> {
    let mut start = offset.min(buf.len());
    while start > 0 && is_numeric_byte(buf[start - 1]) {
        start -= 1;
    }
    let mut end = offset;
    while end < buf.len() && is_numeric_byte(buf[end]) {
        end += 1;
    }
    if start == end {
        return None;
    }
    std::str::from_utf8(&buf[start..end]).ok()
}

/// The full line of `buf` containing `offset` (without the newline).
fn line_at(buf: &[u8], offset: usize) -> &[u8] {
    let offset = offset.min(buf.len().saturating_sub(1));
    let start = buf[..offset]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |p| p + 1);
    let end = buf[offset..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(buf.len(), |p| offset + p);
    &buf[start..end]
}

/// The maximal alphanumeric word of `buf` overlapping `offset`.  A word
/// runs over letters too, so a hex bit pattern is one word and its digits
/// are not read as a number.
fn word_at(buf: &[u8], offset: usize) -> &[u8] {
    let offset = offset.min(buf.len());
    let start = buf[..offset]
        .iter()
        .rposition(|b| !b.is_ascii_alphanumeric())
        .map_or(0, |p| p + 1);
    let end = buf[offset..]
        .iter()
        .position(|b| !b.is_ascii_alphanumeric())
        .map_or(buf.len(), |p| offset + p);
    &buf[start..end]
}

/// Whether a word reads as epoch seconds or milliseconds: an integer of 10
/// to 13 digits.
fn is_epoch(word: &[u8]) -> bool {
    (10..=13).contains(&word.len()) && word.iter().all(u8::is_ascii_digit)
}

/// Whether a word is a `{:016x}` bit pattern: 16 hex digits.
fn is_bit_pattern(word: &[u8]) -> bool {
    word.len() == 16 && word.iter().all(u8::is_ascii_hexdigit)
}

/// Whether a line smells like it carries a clock value.
fn looks_like_timestamp(line: &[u8]) -> bool {
    let text = String::from_utf8_lossy(line);
    if text.trim_start().starts_with('[') {
        // The harness convention: `[`-prefixed lines are wall-clock chatter.
        return true;
    }
    let lower = text.to_ascii_lowercase();
    if [
        "unix_time",
        "wall",
        "elapsed",
        "finished in",
        "timestamp",
        "_ms",
        "wall_ms",
    ]
    .iter()
    .any(|m| lower.contains(m))
    {
        return true;
    }
    // An ISO date (dddd-dd-dd).
    let bytes = text.as_bytes();
    let mut digits = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if b.is_ascii_digit() {
            digits += 1;
            if digits == 4
                && bytes.get(i + 1) == Some(&b'-')
                && bytes.get(i + 2).is_some_and(u8::is_ascii_digit)
                && bytes.get(i + 3).is_some_and(u8::is_ascii_digit)
                && bytes.get(i + 4) == Some(&b'-')
            {
                return true;
            }
        } else {
            digits = 0;
        }
    }
    false
}

/// Whether the two artifacts contain the same multiset of lines.
fn same_line_multiset(left: &[u8], right: &[u8]) -> bool {
    fn count(buf: &[u8]) -> HashMap<&[u8], usize> {
        let mut map: HashMap<&[u8], usize> = HashMap::new();
        for line in buf.split(|&b| b == b'\n') {
            *map.entry(line).or_insert(0) += 1;
        }
        map
    }
    count(left) == count(right)
}

/// Classify the root cause of a divergence at `offset`.
fn classify(left: &[u8], right: &[u8], offset: usize) -> RootCause {
    let prefix_len = left.len().min(right.len());
    if offset == prefix_len && left.len() != right.len() {
        return RootCause::Truncation {
            shorter: prefix_len,
            longer: left.len().max(right.len()),
        };
    }
    if same_line_multiset(left, right) {
        return RootCause::MapOrdering;
    }
    if looks_like_timestamp(line_at(left, offset)) || looks_like_timestamp(line_at(right, offset)) {
        return RootCause::Timestamp;
    }
    let (left_word, right_word) = (word_at(left, offset), word_at(right, offset));
    if is_epoch(left_word) && is_epoch(right_word) {
        return RootCause::Timestamp;
    }
    // Two bit patterns that differ are two values, even when their digits
    // read as nearly the same decimal number (5.0 is `4014000000000000`).
    let bit_patterns = is_bit_pattern(left_word) && is_bit_pattern(right_word);
    if let (false, Some(a), Some(b)) = (
        bit_patterns,
        numeric_token_at(left, offset),
        numeric_token_at(right, offset),
    ) {
        if let (Ok(x), Ok(y)) = (a.parse::<f64>(), b.parse::<f64>()) {
            let scale = x.abs().max(y.abs());
            if x == y || (scale > 0.0 && (x - y).abs() / scale < 1e-9) {
                return RootCause::FloatFormatting;
            }
        }
    }
    RootCause::Unknown {
        left_len: left.len(),
        right_len: right.len(),
    }
}

/// Compare two artifacts byte-for-byte.  Returns `None` when identical,
/// otherwise the localized first divergence with hex context and hint.
pub fn first_divergence(
    left_label: &str,
    left: &[u8],
    right_label: &str,
    right: &[u8],
) -> Option<Divergence> {
    let prefix_len = left.len().min(right.len());
    let offset = (0..prefix_len)
        .find(|&i| left[i] != right[i])
        .unwrap_or(prefix_len);
    if offset == prefix_len && left.len() == right.len() {
        return None;
    }
    Some(Divergence {
        left_label: left_label.to_string(),
        right_label: right_label.to_string(),
        offset,
        left_context: hex_context(left, offset),
        right_context: hex_context(right, offset),
        cause: classify(left, right, offset),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_artifacts_have_no_divergence() {
        assert!(first_divergence("a", b"same\n", "b", b"same\n").is_none());
        assert!(first_divergence("a", b"", "b", b"").is_none());
    }

    #[test]
    fn hex_context_renders_hex_and_ascii() {
        let ctx = hex_context(b"abc\x01def and more bytes here", 0);
        assert!(ctx.starts_with("61 62 63 01 64 65 66"), "{ctx}");
        assert!(ctx.contains("|abc.def and more|"), "{ctx}");
        assert_eq!(hex_context(b"ab", 5), "<end of artifact at 2 bytes>");
    }

    #[test]
    fn numeric_token_expands_in_both_directions() {
        let buf = b"x = 12.50e-1;";
        // Offset in the middle of the token.
        assert_eq!(numeric_token_at(buf, 7), Some("12.50e-1"));
        // Offset just past the token (the `;`): expands left only.
        assert_eq!(numeric_token_at(buf, 12), Some("12.50e-1"));
        assert_eq!(numeric_token_at(b"abc", 1), None);
    }

    #[test]
    fn timestamp_heuristics() {
        assert!(looks_like_timestamp(b"[E3 finished in 1.2s]"));
        assert!(looks_like_timestamp(b"generated_unix_time: 1700000000"));
        assert!(looks_like_timestamp(b"date: 2026-08-07"));
        assert!(looks_like_timestamp(b"wall_ms: 12.5"));
        assert!(!looks_like_timestamp(b"mean wait 1.25 over 400 jobs"));
    }
}

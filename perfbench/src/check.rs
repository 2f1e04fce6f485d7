//! Output checks: the fixture self-test, per-line goldens, and the
//! round-to-round comparison.
//!
//! A golden is one FNV-1a digest per rendered line of a round, recorded at
//! a known-good commit for one `(workload, seed)`.  Seeds without a golden
//! are checked by the identities of `fabric.rs` and `verify.rs` only.

use std::fs;
use std::io;
use std::path::PathBuf;

use crate::RoundOutcome;

/// The benchmark's own directory (goldens, trace output).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A committed conformance fixture of the repository.
pub fn fixture(name: &str) -> io::Result<String> {
    fs::read_to_string(bench_dir().join("../fixtures/conform").join(name))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn golden_path(file: &str) -> PathBuf {
    bench_dir().join("goldens").join(file)
}

/// Read a golden file: its header line must equal `header` (it pins the
/// round's shape, e.g. the replication count), then one hex value per line.
pub fn load(file: &str, header: &str) -> Result<Option<Vec<u64>>, String> {
    let text = match fs::read_to_string(golden_path(file)) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("read golden {file}: {e}")),
    };
    let mut lines = text.lines();
    if lines.next() != Some(header) {
        return Err(format!(
            "golden {file} was recorded for another shape than `{header}`"
        ));
    }
    lines
        .map(|l| u64::from_str_radix(l, 16).map_err(|e| format!("golden {file}: {e}")))
        .collect::<Result<_, _>>()
        .map(Some)
}

pub fn record(file: &str, header: &str, values: &[u64]) -> io::Result<PathBuf> {
    let path = golden_path(file);
    fs::create_dir_all(path.parent().expect("golden files live in a directory"))?;
    let mut text = format!("{header}\n");
    for v in values {
        text.push_str(&format!("{v:016x}\n"));
    }
    fs::write(&path, text)?;
    Ok(path)
}

pub fn line_digests(text: &str) -> Vec<u64> {
    text.lines().map(|l| fnv1a(l.as_bytes())).collect()
}

/// Checks every round of one workload against its golden (when the seed
/// has one) and against the first round (outputs must repeat exactly).
pub struct Checker {
    golden: Option<Vec<u64>>,
    first: Option<Vec<u64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the output is wrong, if it is (first few reasons).
    pub errors: Vec<String>,
}

impl Checker {
    pub fn new(golden: Option<Vec<u64>>) -> Self {
        Self {
            golden,
            first: None,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Keep the first few distinct reasons; rounds repeat them.
    fn note(&mut self, why: String) {
        if self.errors.len() < 8 && !self.errors.contains(&why) {
            self.errors.push(why);
        }
    }

    /// Count the round's operations and the ones that failed: those that
    /// panicked or broke an identity, and those owning a line that differs
    /// from the golden or from the first round.  Any difference, in a
    /// footer line too, marks the output wrong.
    pub fn check(&mut self, round: &RoundOutcome) {
        let digests = line_digests(&round.text);
        let mut failed: Vec<bool> = round.op_errors.iter().map(Option::is_some).collect();
        for why in round.op_errors.iter().flatten() {
            self.note(why.clone());
        }
        if let Some(why) = &round.round_error {
            self.note(why.clone());
        }
        let first = self.first.get_or_insert_with(|| digests.clone()).clone();
        for (what, reference) in [
            ("golden", self.golden.clone()),
            ("first round", Some(first)),
        ] {
            let Some(reference) = reference else { continue };
            let lines = digests.len().max(reference.len());
            for i in 0..lines {
                if digests.get(i) == reference.get(i) {
                    continue;
                }
                if let Some(ops) = round.line_ops.get(i).cloned().flatten() {
                    failed[ops].iter_mut().for_each(|f| *f = true);
                }
                let line = round.text.lines().nth(i).unwrap_or("<missing>");
                self.note(format!("line {} differs from the {what}: {line}", i + 1));
            }
        }
        self.attempted += failed.len() as u64;
        self.failed += failed.iter().filter(|f| **f).count() as u64;
    }
}

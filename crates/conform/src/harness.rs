//! The N-replica conformance runner.
//!
//! For one target the harness renders the canonical artifact once per
//! replica (each under a lane count from [`REPLICA_THREADS`], so the
//! replicas *are* the `SS_THREADS` matrix), byte-compares every replica
//! against the first, checks the target's structural expectations against
//! the canonical output, and compares (or blesses) the committed golden
//! fixture.  Any mismatch is localized by [`crate::divergence`].
//!
//! The renderer and the expectation check are injected closures so the
//! same machinery that runs the [`crate::Target`]s also runs synthetic
//! targets in tests — including deliberately nondeterministic ones that
//! prove the harness catches what it claims to catch.

use crate::divergence::{first_divergence, Divergence};
use crate::targets::{fixture_path, REPLICA_THREADS};
use ss_sim::pool;
use std::path::{Path, PathBuf};

/// Display label of the replica run on `threads` threads.
pub fn replica_label(threads: usize) -> String {
    format!("threads={threads}")
}

/// Whether the run compares against or rewrites the golden fixture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Compare the canonical artifact against the committed fixture.
    Check,
    /// Rewrite the fixture from the canonical artifact (only when the
    /// replicas agree and expectations hold — nondeterminism and structural
    /// regressions must never be blessed).
    Bless,
}

/// Outcome of the golden-fixture comparison.
#[derive(Debug, Clone)]
pub enum FixtureStatus {
    /// Committed fixture is byte-identical to the canonical artifact.
    Match,
    /// Committed fixture differs; the divergence is localized.
    Mismatch(Box<Divergence>),
    /// No fixture on disk yet (run `conform --bless`).
    Missing(PathBuf),
    /// Bless mode wrote (or confirmed) the fixture; `changed` says whether
    /// the bytes on disk actually changed.
    Blessed {
        /// Path written.
        path: PathBuf,
        /// Whether the write changed the committed bytes.
        changed: bool,
    },
    /// Fixture handling was skipped because the replicas already failed.
    Skipped,
    /// The fixture file could not be read or written.
    IoError(String),
}

/// Everything the harness learned about one target.
#[derive(Debug)]
pub struct TargetOutcome {
    /// The target key.
    pub key: String,
    /// Labels of the replicas that ran, in order.
    pub replica_labels: Vec<String>,
    /// Canonical artifact size in bytes (replica 0), when it rendered.
    pub artifact_bytes: Option<usize>,
    /// Render errors (panics, failed oracle checks, unknown experiments).
    pub errors: Vec<String>,
    /// Cross-replica divergences (replica 0 vs each later replica).
    pub divergences: Vec<Divergence>,
    /// Violated structural expectations.
    pub expectation_failures: Vec<String>,
    /// Golden-fixture status.
    pub fixture: FixtureStatus,
}

impl TargetOutcome {
    /// Whether the target conforms (replicas agree, expectations hold,
    /// fixture matches or was just blessed).
    pub fn pass(&self) -> bool {
        self.errors.is_empty()
            && self.divergences.is_empty()
            && self.expectation_failures.is_empty()
            && matches!(
                self.fixture,
                FixtureStatus::Match | FixtureStatus::Blessed { .. }
            )
    }

    /// Human-readable report block (one line when passing).
    pub fn report(&self) -> String {
        let mut out = String::new();
        let replicas = self.replica_labels.join(" ");
        if self.pass() {
            let bytes = self.artifact_bytes.unwrap_or(0);
            match &self.fixture {
                FixtureStatus::Blessed { path, changed } => out.push_str(&format!(
                    "conform: PASS {} [{replicas}] {bytes} bytes — {} {}\n",
                    self.key,
                    if *changed { "blessed" } else { "unchanged" },
                    path.display()
                )),
                _ => out.push_str(&format!(
                    "conform: PASS {} [{replicas}] {bytes} bytes, fixture matches\n",
                    self.key
                )),
            }
            return out;
        }
        out.push_str(&format!("conform: FAIL {} [{replicas}]\n", self.key));
        for e in &self.errors {
            out.push_str(&format!("  error: {e}\n"));
        }
        for d in &self.divergences {
            for line in d.report().lines() {
                out.push_str(&format!("  {line}\n"));
            }
        }
        for f in &self.expectation_failures {
            out.push_str(&format!("  expectation: {f}\n"));
        }
        match &self.fixture {
            FixtureStatus::Mismatch(d) => {
                out.push_str("  golden fixture diverges from the freshly rendered artifact:\n");
                for line in d.report().lines() {
                    out.push_str(&format!("    {line}\n"));
                }
                out.push_str(
                    "  (if the change is intentional, re-bless with `conform --bless` and \
                     commit the fixture diff)\n",
                );
            }
            FixtureStatus::Missing(path) => out.push_str(&format!(
                "  missing golden fixture {} — generate it with `conform --bless`\n",
                path.display()
            )),
            FixtureStatus::IoError(e) => out.push_str(&format!("  fixture io error: {e}\n")),
            FixtureStatus::Skipped => {
                out.push_str("  fixture not compared (replicas already failed)\n")
            }
            FixtureStatus::Match | FixtureStatus::Blessed { .. } => {}
        }
        out
    }
}

/// Run one target: render every replica, compare, check expectations, and
/// check or bless the golden fixture under `root`.  `render` must produce
/// the canonical artifact text; the harness runs it once per replica under
/// [`pool::with_threads`] with that replica's pool size.  `check` returns
/// the structural expectations the canonical artifact violates.
pub fn run_target(
    key: &str,
    render: &dyn Fn() -> Result<String, String>,
    check: &dyn Fn(&str) -> Vec<String>,
    root: &Path,
    mode: RunMode,
) -> TargetOutcome {
    let mut errors = Vec::new();
    let mut outputs: Vec<Option<String>> = Vec::new();
    for threads in REPLICA_THREADS {
        match pool::with_threads(threads, render) {
            Ok(text) => outputs.push(Some(text)),
            Err(e) => {
                errors.push(format!("replica {}: {e}", replica_label(threads)));
                outputs.push(None);
            }
        }
    }
    let mut divergences = Vec::new();
    if let Some(canonical) = outputs[0].as_deref() {
        for (i, output) in outputs.iter().enumerate().skip(1) {
            if let Some(text) = output.as_deref() {
                if let Some(d) = first_divergence(
                    &replica_label(REPLICA_THREADS[0]),
                    canonical.as_bytes(),
                    &replica_label(REPLICA_THREADS[i]),
                    text.as_bytes(),
                ) {
                    divergences.push(d);
                }
            }
        }
    }
    let expectation_failures = match outputs[0].as_deref() {
        Some(canonical) => check(canonical),
        None => Vec::new(),
    };

    let healthy = errors.is_empty() && divergences.is_empty() && expectation_failures.is_empty();
    let fixture = fixture_path(key);
    let path = root.join(&fixture);
    let status = match (outputs[0].as_deref(), mode) {
        (None, _) => FixtureStatus::Skipped,
        // A diverging/failing target is never blessed, and comparing its
        // artifact against the fixture would only bury the primary signal.
        (Some(_), _) if !healthy => FixtureStatus::Skipped,
        (Some(canonical), RunMode::Bless) => {
            let previous = std::fs::read(&path).ok();
            let changed = previous.as_deref() != Some(canonical.as_bytes());
            let write = || -> std::io::Result<()> {
                if let Some(parent) = path.parent() {
                    std::fs::create_dir_all(parent)?;
                }
                std::fs::write(&path, canonical)
            };
            if changed {
                match write() {
                    Ok(()) => FixtureStatus::Blessed {
                        path,
                        changed: true,
                    },
                    Err(e) => FixtureStatus::IoError(format!("{fixture}: {e}")),
                }
            } else {
                FixtureStatus::Blessed {
                    path,
                    changed: false,
                }
            }
        }
        (Some(canonical), RunMode::Check) => match std::fs::read(&path) {
            Ok(committed) => match first_divergence(
                "committed-fixture",
                &committed,
                &replica_label(REPLICA_THREADS[0]),
                canonical.as_bytes(),
            ) {
                None => FixtureStatus::Match,
                Some(d) => FixtureStatus::Mismatch(Box::new(d)),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => FixtureStatus::Missing(path),
            Err(e) => FixtureStatus::IoError(format!("{fixture}: {e}")),
        },
    };

    TargetOutcome {
        key: key.to_string(),
        replica_labels: REPLICA_THREADS.map(replica_label).into(),
        artifact_bytes: outputs[0].as_ref().map(String::len),
        errors,
        divergences,
        expectation_failures,
        fixture: status,
    }
}

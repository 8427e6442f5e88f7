//! # ddp-audit — the workspace determinism & invariant auditor
//!
//! The workspace's load-bearing contract is *byte-identical output at any
//! `--threads N`, across faults, overload, and sharded fleets*. The sweep
//! grids enforce that dynamically, at the price of running them; this
//! crate enforces the preconditions **statically**, before anything
//! builds, with a hand-rolled comment/string-aware lexer (no `syn` — the
//! build environment is offline, matching the shims philosophy in the
//! workspace `Cargo.toml`).
//!
//! Three lint families:
//!
//! 1. **Determinism lints** — a disallowed-construct table
//!    (`HashMap`/`HashSet`, `Instant::now`/`SystemTime`, ambient
//!    randomness, `std::thread`) with per-crate-class scopes and explicit
//!    `// audit:allow(lint): reason` escapes, so the harness progress
//!    timer stays legal and everything else fails loudly.
//! 2. **Unsafe inventory** — every `unsafe` needs a `// SAFETY:`
//!    justification; simulation crates forbid it outright, and every
//!    crate root must carry `#![forbid(unsafe_code)]`.
//! 3. **Cross-file invariants** — `TraceEventKind` keeps explicit stable
//!    discriminants, and every bench bin is smoke-covered in CI. (The
//!    record and timeline column schemas need no audit: `record_fields`
//!    and `TimelineWindow::columns` bind their structs with exhaustive
//!    patterns, so a field without a column is a compile error.)
//!
//! Run it three ways: `cargo run -p ddp-audit` (the CI gate),
//! `cargo test` (the tier-1 wrapper in `tests/tests/audit.rs`), or as a
//! library over an in-memory [`SourceFile`] set (how the fixture tests
//! prove each lint fires).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod invariants;
mod lexer;
mod lints;
mod source;

pub use lexer::{lex, Comment, Lexed, TokKind, Token};
pub use lints::{inventory_file, lint_file, lint_spec, Finding, InventoryEntry, LintSpec, LINTS};
pub use source::{classify, find_workspace_root, load_workspace, CrateClass, SourceFile};

use std::io;
use std::path::Path;

/// Audits an in-memory file set: per-file lints over every Rust file plus
/// the cross-file invariants, findings sorted by `(path, line, lint)`.
#[must_use]
pub fn audit(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings: Vec<Finding> = Vec::new();
    for f in files {
        if f.is_rust() {
            findings.extend(lint_file(f));
        }
    }
    findings.extend(invariants::check(files));
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.lint).cmp(&(b.path.as_str(), b.line, b.lint)));
    findings
}

/// Loads a workspace checkout and audits it.
///
/// # Errors
///
/// Propagates I/O errors from the source walk.
pub fn audit_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(audit(&load_workspace(root)?))
}

/// The workspace escape/unsafe inventory, sorted like findings.
#[must_use]
pub fn inventory(files: &[SourceFile]) -> Vec<InventoryEntry> {
    let mut entries: Vec<InventoryEntry> = files
        .iter()
        .filter(|f| f.is_rust())
        .flat_map(inventory_file)
        .collect();
    entries.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_are_sorted_and_aggregated() {
        let files = vec![
            SourceFile::new("crates/sim/src/b.rs", "use std::collections::HashMap;\n"),
            SourceFile::new(
                "crates/sim/src/a.rs",
                "fn f() { let t = Instant::now(); }\n",
            ),
        ];
        let findings = audit(&files);
        assert_eq!(findings.len(), 2);
        assert!(findings[0].path < findings[1].path);
    }

    #[test]
    fn inventory_lists_allows() {
        let files = vec![SourceFile::new(
            "crates/harness/src/progress.rs",
            "// audit:allow(wall-clock): stderr progress only\nuse std::time::Instant;\n",
        )];
        let inv = inventory(&files);
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].kind, "allow");
        assert!(inv[0].detail.contains("wall-clock"));
    }
}

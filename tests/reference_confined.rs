//! Guard: the eager reference decoder (`unicert_x509::reference`) stays
//! out of production code.
//!
//! `CertView` is the only certificate decoder on the survey, lint and
//! store paths; the reference walk exists so the differential oracles have
//! an independent decoder to compare against. This test scans every Rust
//! source in the repository and fails on any use of the reference module
//! outside the oracle's own homes: the x509 crate that defines it, the
//! chaos oracle (`differential.rs`), the throughput bench's owned arm, and
//! the root `tests/` tree.

use std::path::Path;
use unicert_analysis::model::collect_rs_files_sorted;

/// Source trees scanned (build output directories are not among them).
const SCANNED: [&str; 6] =
    ["crates", "examples", "shims", "tests", "unibench/src", "unibench/tests"];

/// Paths (relative to the repository root, `/`-separated) allowed to use
/// the reference decoder; a trailing `/` allows a whole tree.
const ALLOWED: [&str; 4] = [
    "crates/x509/",
    "crates/parsers/src/differential.rs",
    "crates/bench/src/bin/bench_throughput.rs",
    "tests/",
];

/// Does this source line (comments stripped) name the reference module?
/// Catches paths (`reference::parse_der`) and one-line imports of the
/// module itself (`use unicert_x509::{reference, CertView};`).
fn uses_reference(line: &str) -> bool {
    let code = line.split("//").next().unwrap_or("").trim_start();
    let is_x509_import =
        (code.starts_with("use ") || code.starts_with("pub use ")) && code.contains("x509");
    let names_module = code
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|word| word == "reference");
    code.contains("reference::") || (is_x509_import && names_module)
}

/// `(path, line number)` of every use of the reference module under `root`.
fn reference_uses(root: &Path) -> Vec<(String, usize)> {
    let mut files = Vec::new();
    for dir in SCANNED {
        collect_rs_files_sorted(&root.join(dir), &mut files);
    }
    let mut hits = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/");
        let text = std::fs::read_to_string(&path).unwrap();
        for (i, line) in text.lines().enumerate() {
            if uses_reference(line) {
                hits.push((rel.clone(), i + 1));
            }
        }
    }
    hits
}

fn allowed(path: &str) -> bool {
    ALLOWED.iter().any(|a| if a.ends_with('/') { path.starts_with(a) } else { path == *a })
}

#[test]
fn reference_decoder_stays_out_of_production() {
    let root = unicert_analysis::default_repo_root();
    let hits = reference_uses(&root);
    let stray: Vec<String> = hits
        .iter()
        .filter(|(path, _)| !allowed(path))
        .map(|(path, line)| format!("{path}:{line}"))
        .collect();
    assert!(
        stray.is_empty(),
        "x509::reference used outside the oracle allowlist:\n{}",
        stray.join("\n")
    );
    // The scan is not vacuous: the oracle and the bench use it.
    for expected in &ALLOWED[1..3] {
        assert!(hits.iter().any(|(path, _)| path == expected), "scan found no use in {expected}");
    }
}

#[test]
fn detector_catches_paths_and_imports() {
    assert!(uses_reference("    let c = reference::parse_der(der, None);"));
    assert!(uses_reference("use unicert_x509::reference::parse_der;"));
    assert!(uses_reference("use unicert::x509::{reference, CertView};"));
    assert!(!uses_reference("use unicert_x509::{CertView, Certificate};"));
    assert!(!uses_reference("    // the x509 reference decoder"));
    assert!(!uses_reference("    let reference_count = 3;"));
    assert!(!uses_reference("    let reference = unicert_x509::display::to_text(&n);"));
}

//! One public entry point per operation. An instrumented operation takes a
//! `Probe` (and a `Pool` where it fans out) instead of growing a twin per
//! context, and a fast path is pinned to one of the retained oracles
//! instead of growing a reference copy of its own. This test reads every
//! library and binary source under `crates/*/src` and `src` and fails on a
//! `pub fn` that breaks either rule.

use std::fs;
use std::path::{Path, PathBuf};

/// Suffixes of the twins an instrumentation or worker-count context used
/// to add next to a plain call.
const TWIN_SUFFIXES: [&str; 5] = ["instrumented", "jobs", "pooled", "par", "traced"];

/// Suffixes of a reference copy of a fast path.
const ORACLE_SUFFIXES: [&str; 3] = ["scalar", "dense", "cold"];

/// The reference implementations the identity suites pin the fast paths to.
const RETAINED_ORACLES: [&str; 7] = [
    "rank_by_sjr_scalar",
    "solve_dense",
    "floor_bounce_gain_scalar",
    "wall_bounce_gain_scalar",
    "run_scalar",
    "run_concurrent_scalar",
    "run_cold",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `pub fn` name in the scanned sources, with `file:line`.
fn public_fns() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut fns = Vec::new();
    for file in files {
        let text = fs::read_to_string(&file).expect("source is UTF-8");
        for (i, line) in text.lines().enumerate() {
            for (at, _) in line.match_indices("pub fn ") {
                let name: String = line[at + "pub fn ".len()..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                let place = format!("{}:{}", file.strip_prefix(root).unwrap().display(), i + 1);
                fns.push((name, place));
            }
        }
    }
    fns
}

fn has_suffix(name: &str, suffixes: &[&str]) -> bool {
    name.rsplit_once('_')
        .is_some_and(|(stem, suffix)| !stem.is_empty() && suffixes.contains(&suffix))
}

#[test]
fn no_operation_has_a_context_twin() {
    let twins: Vec<String> = public_fns()
        .into_iter()
        .filter(|(name, _)| has_suffix(name, &TWIN_SUFFIXES))
        .map(|(name, place)| format!("{place}: pub fn {name}"))
        .collect();
    assert!(
        twins.is_empty(),
        "twin entry points found; take a `Probe` (and a `&Pool`) on the plain call instead:\n{}",
        twins.join("\n")
    );
}

#[test]
fn only_the_retained_oracles_are_reference_copies() {
    let fns = public_fns();
    let strays: Vec<String> = fns
        .iter()
        .filter(|(name, _)| {
            has_suffix(name, &ORACLE_SUFFIXES) && !RETAINED_ORACLES.contains(&name.as_str())
        })
        .map(|(name, place)| format!("{place}: pub fn {name}"))
        .collect();
    assert!(
        strays.is_empty(),
        "oracle twins found; pin the fast path to one of the retained oracles:\n{}",
        strays.join("\n")
    );
    // The scan reaches the sources: every retained oracle is among them.
    for oracle in RETAINED_ORACLES {
        assert!(
            fns.iter().any(|(name, _)| name == oracle),
            "retained oracle `{oracle}` not found; drop it from the list if it was deleted"
        );
    }
}

//! `prof_diff` — ranked self-time deltas between two profiles.
//!
//! ```text
//! prof_diff <old.profile.json> <new.profile.json> [--top N] [--regressed-only]
//! ```
//!
//! Both inputs are `densevlc-prof/1` documents (from `run_all
//! --profile-out` or `densevlc-cli profile`). Prints the outer join of
//! the two profiles' call paths ranked by |self-time delta| — the
//! "where did the time go" view `bench_compare --explain` builds on. Exit
//! codes: 0 on success (even with regressions; this is an analysis tool,
//! not a gate), 2 on usage or input errors.

use vlc_prof::{Profile, ProfileDiff};

const USAGE: &str = "\
usage: prof_diff <old.profile.json> <new.profile.json> [--top N] [--regressed-only]
";

fn load(path: &str) -> Profile {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match Profile::from_json(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {path} is not a valid profile: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&String> = Vec::new();
    let mut top = 20usize;
    let mut regressed_only = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => {
                top = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("error: --top needs a positive integer\n{USAGE}");
                        std::process::exit(2);
                    });
            }
            "--regressed-only" => regressed_only = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return;
            }
            other if !other.starts_with("--") => paths.push(arg),
            other => {
                eprintln!("error: unknown flag `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };

    let old = load(old_path);
    let new = load(new_path);
    let diff = ProfileDiff::between(&old, &new);
    println!(
        "prof_diff: {} paths old, {} new, {} joined ({} vs {})",
        old.nodes.len(),
        new.nodes.len(),
        diff.entries.len(),
        old_path,
        new_path
    );
    if regressed_only {
        let mut out = String::new();
        let mut shown = 0usize;
        for e in diff.regressed().take(top) {
            out.push_str(&format!(
                "  {:>+12.6}s self ({:.6}s -> {:.6}s, allocs {:+})  {}\n",
                e.delta_s(),
                e.old_self_s,
                e.new_self_s,
                e.alloc_delta,
                e.path
            ));
            shown += 1;
        }
        if shown == 0 {
            println!("  no path got slower");
        } else {
            print!("{out}");
        }
    } else {
        print!("{}", diff.table(top));
    }
}

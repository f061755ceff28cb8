//! The worker-count knob shared by every parallel call site.

use std::sync::{Once, OnceLock};

/// Environment variable consulted by [`Jobs::from_env`]: `1` forces the
/// exact legacy sequential path, `0` or `max` means all available cores,
/// any other positive integer is an explicit worker count.
pub const JOBS_ENV: &str = "DENSEVLC_JOBS";

/// A resolved worker count (always ≥ 1).
///
/// `Jobs` only chooses *how* work is scheduled, never *what* is computed:
/// every `vlc-par` entry point guarantees output bitwise identical to the
/// sequential (`jobs = 1`) path for any worker count (see the crate docs
/// for the determinism contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Jobs(usize);

impl Jobs {
    /// Exactly one worker: the sequential legacy path, no threads spawned.
    pub const fn serial() -> Self {
        Jobs(1)
    }

    /// An explicit worker count; zero is clamped to one.
    pub fn of(n: usize) -> Self {
        Jobs(n.max(1))
    }

    /// One worker per available hardware thread.
    pub fn max() -> Self {
        Jobs(available_parallelism())
    }

    /// Resolves the worker count from the `DENSEVLC_JOBS` environment
    /// variable (re-read on every call so tests can vary it): unset,
    /// empty, `0`, or `max` mean all available cores; `N` means `N`
    /// workers; anything unparsable falls back to all cores, with one
    /// warning on stderr per process naming the variable and the value.
    pub fn from_env() -> Self {
        let value = std::env::var_os(JOBS_ENV).map(|v| v.to_string_lossy().into_owned());
        Self::from_env_value(value.as_deref()).unwrap_or_else(|| {
            static WARNED: Once = Once::new();
            let value = value.unwrap_or_default();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: {JOBS_ENV}={value:?} is not a worker count \
                     (expected N, 0 or max); using all {} cores",
                    available_parallelism()
                );
            });
            Self::max()
        })
    }

    /// The decision behind [`Jobs::from_env`] for the variable's value
    /// (`None` when unset): `None` means the value is unparsable.
    fn from_env_value(value: Option<&str>) -> Option<Self> {
        match value.map(str::trim) {
            None | Some("") => Some(Self::max()),
            Some(v) => Self::parse(v),
        }
    }

    /// Parses a `--jobs`-style argument: `0` or `max` mean all available
    /// cores, a positive integer is explicit. Returns `None` on junk.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("max") {
            return Some(Self::max());
        }
        match s.parse::<usize>() {
            Ok(0) => Some(Self::max()),
            Ok(n) => Some(Jobs(n)),
            Err(_) => None,
        }
    }

    /// The worker count.
    pub fn get(self) -> usize {
        self.0
    }

    /// Whether this is the sequential path.
    pub fn is_serial(self) -> bool {
        self.0 == 1
    }
}

impl Default for Jobs {
    fn default() -> Self {
        Self::max()
    }
}

impl std::fmt::Display for Jobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Cached `std::thread::available_parallelism` (1 when undetectable).
pub fn available_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_is_one_worker() {
        assert_eq!(Jobs::serial().get(), 1);
        assert!(Jobs::serial().is_serial());
    }

    #[test]
    fn of_clamps_zero_to_one() {
        assert_eq!(Jobs::of(0).get(), 1);
        assert_eq!(Jobs::of(7).get(), 7);
    }

    #[test]
    fn parse_accepts_counts_and_max() {
        assert_eq!(Jobs::parse("3"), Some(Jobs::of(3)));
        assert_eq!(Jobs::parse("max"), Some(Jobs::max()));
        assert_eq!(Jobs::parse("MAX"), Some(Jobs::max()));
        assert_eq!(Jobs::parse("0"), Some(Jobs::max()));
        assert_eq!(Jobs::parse(" 2 "), Some(Jobs::of(2)));
        assert_eq!(Jobs::parse("many"), None);
        assert_eq!(Jobs::parse("-1"), None);
    }

    #[test]
    fn env_values_resolve_or_are_flagged() {
        assert_eq!(Jobs::from_env_value(Some("1")), Some(Jobs::serial()));
        assert_eq!(Jobs::from_env_value(Some("3")), Some(Jobs::of(3)));
        assert_eq!(Jobs::from_env_value(Some("max")), Some(Jobs::max()));
        assert_eq!(Jobs::from_env_value(Some("0")), Some(Jobs::max()));
        assert_eq!(Jobs::from_env_value(None), Some(Jobs::max()));
        assert_eq!(Jobs::from_env_value(Some("")), Some(Jobs::max()));
        assert_eq!(Jobs::from_env_value(Some("  ")), Some(Jobs::max()));
        assert_eq!(Jobs::from_env_value(Some("1x")), None);
        assert_eq!(Jobs::from_env_value(Some("-2")), None);
        assert_eq!(Jobs::from_env_value(Some("\u{fffd}")), None);
    }

    #[test]
    fn max_is_at_least_one() {
        assert!(Jobs::max().get() >= 1);
        assert!(available_parallelism() >= 1);
    }
}

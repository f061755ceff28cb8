//! # vlc-par — deterministic parallel execution for the DenseVLC stack
//!
//! A dependency-free (std-only, plus the in-workspace telemetry crate)
//! worker pool — scoped threads for borrowed one-shot fan-outs, a resident
//! crew for owned per-tick ones ([`Pool::map_owned`]) — with one
//! non-negotiable contract:
//!
//! > **Parallel output is bitwise identical to sequential output, for any
//! > worker count.**
//!
//! The paper anchors in `tests/paper_anchors.rs` and the golden traces in
//! `tests/golden/` stay trustworthy only if fanning a loop out over
//! workers cannot change a single bit of its result. The pool guarantees
//! that by construction:
//!
//! * work items are **indexed** (`0..n`); workers claim them dynamically,
//!   but every item's result depends only on its index;
//! * partial results are **merged in index order on the calling thread**
//!   ([`Pool::map_indexed`] places by index; [`Pool::fold_chunks`] merges
//!   fixed-size chunk partials in chunk order — chunk boundaries depend
//!   only on the item count, never on the worker count);
//! * `jobs = 1` spawns no threads and runs the exact sequential code, so
//!   the legacy path *is* the reference path;
//! * a panicking item re-raises with the **lowest** panicking index — the
//!   same one the sequential scan would hit first.
//!
//! The worker count flows through [`Jobs`]: `DENSEVLC_JOBS=1` forces the
//! sequential path everywhere, `DENSEVLC_JOBS=N` pins `N` workers, and
//! unset/`0`/`max` use every available core. See `docs/PARALLELISM.md`
//! for the design discussion and the determinism test layer.
//!
//! ```
//! use vlc_par::{Jobs, Pool};
//!
//! let squares = Pool::new(Jobs::of(4)).map_indexed(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crew;
pub mod jobs;
pub mod pool;
pub mod seed;

pub use crew::CREW_SPIN;
pub use jobs::{available_parallelism, Jobs, JOBS_ENV};
pub use pool::{Pool, DEFAULT_CHUNK};
pub use seed::{cell_seed, SEED_GAMMA};

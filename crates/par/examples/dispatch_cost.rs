//! What one fan-out of `jobs` items over `jobs` workers costs, per
//! dispatch: inline, on scoped threads (`map_indexed`), and on the
//! resident crew (`map_owned`) — back to back, so its helpers are still
//! spinning, and after a pause longer than the spin, so they are parked.
//!
//! ```text
//! cargo run --release -p vlc-par --example dispatch_cost
//! ```
//!
//! Prints the median and quartiles of 2,000 dispatches per row.

use std::time::{Duration, Instant};
use vlc_par::{Jobs, Pool, CREW_SPIN};

const DISPATCHES: usize = 2_000;

/// Spins for `d`: an item that keeps its core busy.
fn busy(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Median and quartiles of `DISPATCHES` calls of `dispatch`, each after
/// sleeping `pause`, in µs.
fn measure(pause: Duration, mut dispatch: impl FnMut()) -> String {
    let mut us: Vec<f64> = (0..DISPATCHES)
        .map(|_| {
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
            let start = Instant::now();
            dispatch();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    let q = |p: usize| us[us.len() * p / 4];
    format!("{:6.1} µs ({:.1}–{:.1})", q(2), q(1), q(3))
}

fn main() {
    let pause = CREW_SPIN * 20;
    println!("per dispatch: median (quartiles); spin bound {CREW_SPIN:?}, pause {pause:?}");
    for jobs in [2, 4] {
        for work_us in [0, 20] {
            let work = Duration::from_micros(work_us);
            let item = move |_: usize| busy(work);
            let serial = Pool::sequential();
            let pool = Pool::new(Jobs::of(jobs));
            println!("{jobs} items of {work_us} µs, {jobs} workers:");
            println!(
                "  inline                   {}",
                measure(Duration::ZERO, || drop(serial.map_owned(jobs, item)))
            );
            println!(
                "  map_indexed              {}",
                measure(Duration::ZERO, || drop(pool.map_indexed(jobs, item)))
            );
            println!(
                "  map_owned, back to back  {}",
                measure(Duration::ZERO, || drop(pool.map_owned(jobs, item)))
            );
            println!(
                "  map_owned, after a pause {}",
                measure(pause, || drop(pool.map_owned(jobs, item)))
            );
        }
    }
}

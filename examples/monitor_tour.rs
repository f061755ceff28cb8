//! Monitor tour: the streaming observability plane end to end — a blocked
//! receiver streams NDJSON while the simulation runs, the bundled parser
//! replays the stream, the SLO engine's fire/clear alerts are walked
//! tick by tick, and the terminal monitor renders the final view.
//!
//! Run with: `cargo run --release --example monitor_tour`

use densevlc::Simulation;
use vlc_obs::{
    densevlc_defaults, monitor, parse_stream_strict, AlertState, MemorySink, ObsConfig, ObsPlane,
    ObsRecord, WindowConfig,
};
use vlc_telemetry::Registry;
use vlc_testbed::{Deployment, Scenario};
use vlc_trace::Span;

fn main() {
    println!("Monitor tour: stream -> parse -> alert\n");

    // 1. A simulation worth watching: a person stands on RX1 (total
    //    shadow) and walks away, so the receiver starves and recovers.
    let mut sim = Simulation::new(Deployment::scenario(Scenario::Two), 1.2, 0.2);
    sim.add_person(0.92, 0.92, 0.5, &[(0.92, 4.5)]);
    let n_rx = 4;

    // 2. Stream the run: every tick becomes an NDJSON record; every 5
    //    ticks the plane snapshots rolling windows and evaluates the
    //    stock SLO catalogue (per-RX throughput floor at 3 Mb/s).
    let sink = MemorySink::new();
    let telemetry = Registry::new();
    let mut plane = ObsPlane::new(
        Box::new(sink.clone()),
        ObsConfig {
            run: "monitor tour".into(),
            every: 5,
            window: WindowConfig {
                bucket_ticks: 5,
                buckets: 1,
                max_samples_per_bucket: 4096,
            },
            rules: densevlc_defaults(n_rx, 3e6, 0.5),
            panic_at_tick: None,
        },
    );
    let timeline = sim.run_traced(3.0, Some(&mut plane), &telemetry, &Span::noop());
    plane.finish(&telemetry, 0);
    println!(
        "streamed {} ticks, mean system {:.2} Mb/s",
        timeline.ticks.len(),
        timeline.mean_system_bps() / 1e6
    );

    // 3. Replay the stream with the bundled parser — the same one
    //    `obs_check` and `densevlc monitor` run on. Every line must
    //    round-trip or this example fails loudly.
    let text = sink.text();
    let records = parse_stream_strict(&text).expect("every streamed line is valid");
    let count = |f: fn(&ObsRecord) -> bool| records.iter().filter(|r| f(r)).count();
    println!(
        "parsed {} records: {} ticks, {} window snapshots, {} alerts\n",
        records.len(),
        count(|r| matches!(r, ObsRecord::Tick { .. })),
        count(|r| matches!(r, ObsRecord::Window { .. })),
        count(|r| matches!(r, ObsRecord::Alert { .. })),
    );

    // 4. The alert timeline: hysteresis means one fire and one clear per
    //    starvation episode, not a flap per window.
    println!("alert timeline:");
    for r in &records {
        if let ObsRecord::Alert {
            tick,
            rule,
            state,
            value,
            threshold,
            ..
        } = r
        {
            let verb = match state {
                AlertState::Firing => "FIRING ",
                AlertState::Cleared => "cleared",
            };
            println!(
                "  tick {tick:>3}  {verb}  {rule}  ({:.2} vs {:.2} Mb/s)",
                value / 1e6,
                threshold / 1e6
            );
        }
    }

    // 5. The monitor view — what `densevlc monitor <stream>` prints.
    println!("\n{}", monitor::render(&records));
}

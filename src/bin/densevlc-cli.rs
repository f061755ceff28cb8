//! `densevlc-cli` — drive the DenseVLC reproduction from the command line.
//!
//! ```text
//! densevlc-cli adapt   [--scenario 1|2|3] [--budget W]   one adaptation round
//! densevlc-cli map     [--scenario 1|2|3] [--budget W]   ASCII beamspot floor plan
//! densevlc-cli lux     [--sim|--testbed]                 illuminance check
//! densevlc-cli codecs                                    FEC stack catalogue
//! densevlc-cli sync                                      Table-4 measurement
//! densevlc-cli iperf   [--frames N]                      Table-5 experiment
//! densevlc-cli faceoff [--scenario 1|2|3]                Fig-21 comparison
//! densevlc-cli sim     [--scenario 1|2|3] [--duration S] streamed simulation
//! densevlc-cli building [--rooms CxR] [--events N]       sharded multi-cell load
//! densevlc-cli monitor <stream.ndjson> [--follow]        dashboard from a stream
//! densevlc-cli profile <command> [options]               profiled run of any command
//! densevlc-cli help
//! ```
//!
//! Every command accepts the unified observability flag set parsed by
//! `vlc_obs::ObsOptions` (the same flags, with the same errors, that
//! `run_all` takes): `--telemetry <json|csv|summary>` records metrics and
//! appends the chosen rendering, `--telemetry-out <file>` redirects it,
//! `--trace <file>` writes Chrome Trace JSON, and the profiling trio
//! `--profile-out` / `--folded-out` / `--flame-out` derives a
//! `densevlc-prof/1` self-time profile, folded stacks, or an SVG
//! flamegraph from the same spans. Prefixing any command with `profile`
//! (e.g. `densevlc-cli profile sim`) additionally prints self/inclusive
//! time tables and attributes heap allocations to the root span via the
//! process-wide counting allocator. The `sim` command adds the
//! streaming plane: `--obs-stream <file>` writes a live NDJSON record
//! stream (`--obs-every N` sets the flush cadence), `--flight-recorder
//! <file>` keeps a crash ring of the last `--flight-last K` records, and
//! `--watch` renders the monitor dashboard when the run ends.
//!
//! Argument parsing is std-only on purpose: the reproduction's dependency
//! set stays at the approved crates.

use std::path::Path;

use densevlc::experiments::{fig05_illuminance, fig21_baselines, tab04_sync_error, tab05_iperf};
use densevlc::{Simulation, System};
use vlc_cell::{
    drive, BuildingConfig, BuildingEngine, BuildingObs, BuildingObsConfig, LoadGenConfig,
};
use vlc_led::LedParams;
use vlc_obs::{
    densevlc_defaults, inject_panic_from_env, monitor::render, parse_stream, FileSink,
    FlightRecorder, MemorySink, ObsConfig, ObsOptions, ObsPlane, ObsRecord, ObsSink,
    TelemetryFormat, WindowConfig,
};
use vlc_par::{Jobs, Pool};
use vlc_prof::alloc_counter::{AllocScope, CountingAlloc};
use vlc_prof::{flamegraph_from_profile, to_folded, Profile};
use vlc_telemetry::Registry;
use vlc_testbed::{Deployment, Scenario};
use vlc_trace::{Span, Tracer};

// Installed process-wide so `profile <cmd>` can attribute heap churn to
// span scopes. The cost is one thread-local `Cell` bump per allocation —
// unmeasurable next to solver work. `run_all` (the BENCH.json producer)
// deliberately does NOT install it, keeping baseline timings
// allocator-identical to the seed.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs = match ObsOptions::parse(&mut args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // `profile <cmd>` wraps any other command: the tracer goes live, the
    // root span carries this thread's allocation deltas, and the run ends
    // with self/inclusive time tables (plus any --profile-out/--folded-out/
    // --flame-out artifacts).
    let profiling = args.first().map(String::as_str) == Some("profile");
    if profiling {
        args.remove(0);
    }
    let telemetry = if obs.wants_registry() {
        Registry::new()
    } else {
        Registry::noop()
    };
    let tracer = if profiling || obs.wants_tracer() {
        Tracer::new()
    } else {
        Tracer::noop()
    };
    // With observability flags (or a bare `profile`) and no command,
    // default to an adaptation round so there is something to record.
    let cmd = match args.first().map(String::as_str) {
        Some(c) => c,
        None if profiling || obs.wants_registry() || obs.wants_tracer() => "adapt",
        None => "help",
    };
    let root = tracer.root(&format!("cli.{cmd}"));
    // Dropped (writing alloc attrs) just before the root span closes.
    let alloc_scope = AllocScope::new(&root);
    match cmd {
        "adapt" => adapt(rest(&args), &telemetry, &root),
        "map" => map(rest(&args), &telemetry, &root),
        "lux" => lux(),
        "codecs" => codecs(),
        "sync" => sync(&telemetry, &root),
        "iperf" => iperf(rest(&args), &telemetry),
        "faceoff" => faceoff(rest(&args)),
        "sim" => sim(rest(&args), &telemetry, &root, &obs, &tracer, profiling),
        "building" => building(rest(&args), &telemetry, &root, &obs),
        "monitor" => monitor(rest(&args)),
        "help" | "--help" | "-h" => help(),
        other => {
            eprintln!("unknown command `{other}`\n");
            help();
            std::process::exit(2);
        }
    }
    drop(alloc_scope);
    drop(root);
    if let Some(path) = &obs.trace {
        write_file(path, &tracer.snapshot().to_chrome_json(), "Chrome trace");
    }
    // Surface span-ring health next to event-ring health: the summary
    // exporter's rings line reads this counter (see export::summary).
    if obs.wants_tracer() && telemetry.is_enabled() {
        telemetry
            .counter("trace.spans_dropped")
            .add(tracer.snapshot().dropped);
    }
    if obs.telemetry.is_some() || obs.telemetry_out.is_some() {
        let snapshot = telemetry.snapshot();
        // A bare `--telemetry-out FILE` means JSON; an explicit format
        // applies to the file just as it would to stdout.
        let rendered = match obs.telemetry.unwrap_or(TelemetryFormat::Json) {
            TelemetryFormat::Json => snapshot.to_json() + "\n",
            TelemetryFormat::Csv => snapshot.to_csv(),
            TelemetryFormat::Summary => snapshot.summary_table(),
        };
        match &obs.telemetry_out {
            Some(path) => write_file(path, &rendered, "telemetry"),
            None => match obs.telemetry {
                Some(TelemetryFormat::Summary) => print!("\n{rendered}"),
                _ => print!("{rendered}"),
            },
        }
    }
    if profiling || obs.wants_profile() {
        let profile = Profile::from_snapshot(&tracer.snapshot(), Jobs::from_env().get());
        if profiling {
            println!(
                "\nprofile: {} paths, {} calls, {:.6} s traced",
                profile.nodes.len(),
                profile.nodes.iter().map(|n| n.calls).sum::<u64>(),
                profile.total_root_s()
            );
            print!("\nself time (top 10)\n{}", profile.self_table(10));
            print!("\ninclusive time (top 10)\n{}", profile.inclusive_table(10));
        }
        if let Some(path) = &obs.profile_out {
            write_file(path, &profile.to_json(), "self-time profile");
        }
        if let Some(path) = &obs.folded_out {
            write_file(path, &to_folded(&profile), "folded stacks");
        }
        if let Some(path) = &obs.flame_out {
            match flamegraph_from_profile(&format!("densevlc-cli {cmd}"), &profile) {
                Ok(svg) => write_file(path, &svg, "flamegraph"),
                Err(e) => {
                    eprintln!("error: flamegraph rendering failed: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
}

fn write_file(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {what} to {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote {what} to {path}");
}

/// The argument slice after the command word (empty when the command was
/// implied by `--telemetry` alone).
fn rest(args: &[String]) -> &[String] {
    if args.is_empty() {
        args
    } else {
        &args[1..]
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn u64_flag(args: &[String], flag: &str, default: u64) -> u64 {
    match flag_value(args, flag) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad {flag} value `{v}`");
            std::process::exit(2);
        }),
    }
}

fn f64_flag(args: &[String], flag: &str, default: f64) -> f64 {
    match flag_value(args, flag) {
        None => default,
        Some(v) => match v.parse::<f64>() {
            Ok(x) if x.is_finite() => x,
            _ => {
                eprintln!("bad {flag} value `{v}` (expected a finite number)");
                std::process::exit(2);
            }
        },
    }
}

fn scenario_arg(args: &[String]) -> Scenario {
    match flag_value(args, "--scenario").as_deref() {
        Some("1") => Scenario::One,
        Some("3") => Scenario::Three,
        Some("2") | None => Scenario::Two,
        Some(other) => {
            eprintln!("unknown scenario `{other}` (expected 1, 2 or 3)");
            std::process::exit(2);
        }
    }
}

fn adapt(args: &[String], telemetry: &Registry, parent: &Span) {
    let scenario = scenario_arg(args);
    let budget = f64_flag(args, "--budget", 1.2);
    let mut system = System::scenario(scenario, budget);
    let round = system.adapt_traced(telemetry, parent);
    println!("{} @ {budget} W", scenario.label());
    for spot in round.plan.beamspots() {
        let txs: Vec<String> = spot
            .txs
            .iter()
            .map(|&t| system.deployment.grid.label(t))
            .collect();
        println!(
            "  RX{} <- [{}] leader {} ({:.2} Mb/s)",
            spot.rx + 1,
            txs.join(", "),
            system.deployment.grid.label(spot.leader),
            round.per_rx_bps[spot.rx] / 1e6
        );
    }
    println!(
        "system: {:.2} Mb/s at {:.3} W",
        round.system_throughput_bps / 1e6,
        round.power_w
    );
    // Fig. 11's cost gap: time both allocators on the same channel so the
    // summary shows optimal vs heuristic wall-time side by side. The
    // optimal solver rejects a non-positive budget, so skip the probe.
    if (telemetry.is_enabled() || parent.is_enabled()) && budget > 0.0 {
        let model = &system.deployment.model;
        let heuristic = vlc_alloc::heuristic::heuristic_allocation_traced(
            &model.channel,
            &model.led,
            budget,
            &vlc_alloc::HeuristicConfig::paper(),
            telemetry,
            parent,
        );
        let optimal = vlc_alloc::OptimalSolver::quick().solve_traced(
            model,
            budget,
            None,
            telemetry,
            &Pool::from_env().with_telemetry(telemetry),
            parent,
        );
        println!(
            "solver objectives (sum-log): heuristic {:.3}, optimal {:.3} in {} iterations",
            model.sum_log_throughput(&heuristic),
            optimal.objective,
            optimal.iterations
        );
    }
}

/// Renders the ceiling grid with per-TX beamspot membership and the
/// receiver positions as an ASCII floor plan.
fn map(args: &[String], telemetry: &Registry, parent: &Span) {
    let scenario = scenario_arg(args);
    let budget = f64_flag(args, "--budget", 1.2);
    let mut system = System::scenario(scenario, budget);
    let round = system.adapt_traced(telemetry, parent);
    let grid = &system.deployment.grid;

    // Per-TX glyph: the digit of the served RX, or '.' for illumination.
    let mut glyph = vec!['.'; grid.len()];
    for spot in round.plan.beamspots() {
        for &tx in &spot.txs {
            glyph[tx] = char::from_digit(spot.rx as u32 + 1, 10).unwrap_or('?');
        }
    }
    println!(
        "{} @ {budget} W — ceiling view (y grows upward)",
        scenario.label()
    );
    println!("TX glyphs: digit = serving that RX, . = illumination only; rN = receiver\n");
    // Rows top-down: row 5 (max y) first.
    for row in (0..grid.rows).rev() {
        print!("  y={:.2} ", grid.pose(row * grid.cols).position.y);
        for col in 0..grid.cols {
            print!("  {} ", glyph[row * grid.cols + col]);
        }
        println!();
        // Receivers whose y falls between this row and the next.
        let y_hi = grid.pose(row * grid.cols).position.y + grid.pitch / 2.0;
        let y_lo = y_hi - grid.pitch;
        let mut markers = String::new();
        for (i, rx) in system.deployment.receivers.iter().enumerate() {
            let p = rx.position;
            if p.y < y_hi && p.y >= y_lo {
                markers.push_str(&format!("  r{} at ({:.2}, {:.2})", i + 1, p.x, p.y));
            }
        }
        if !markers.is_empty() {
            println!("         ^{markers}");
        }
    }
    println!(
        "\nsystem: {:.2} Mb/s at {:.3} W across {} beamspots",
        round.system_throughput_bps / 1e6,
        round.power_w,
        round.plan.beamspots().len()
    );
}

fn lux() {
    print!(
        "{}",
        fig05_illuminance::run(&LedParams::cree_xte_paper(), 0x10).report()
    );
}

/// Lists the pluggable FEC stacks the frame pipeline can run on, with the
/// overhead and correction guarantees each advertises on the paper's
/// 200-byte payload (see `docs/CODECS.md`).
fn codecs() {
    let payload = 200usize;
    println!("FEC codec stacks (vlc_phy::codec::registry), {payload}-byte payload:\n");
    println!(
        "  {:<14} {:>9} {:>9}  {:>8} {:>9} {:>6}",
        "name", "coded B", "overhead", "t/block", "block B", "burst"
    );
    for stack in vlc_phy::codec::registry() {
        let coded = stack.encoded_len(payload);
        let c = stack.correction();
        println!(
            "  {:<14} {:>9} {:>8.1}%  {:>8} {:>9} {:>6}",
            stack.name(),
            coded,
            100.0 * (coded - payload) as f64 / payload as f64,
            c.t_per_block,
            c.block_len,
            c.burst_tolerance
        );
    }
    println!(
        "\nguarantees are per coded block (0 = detect-only or statistical); sweep them\n\
         against calibrated noise with: cargo run --release -p vlc-bench --bin codec_campaign"
    );
}

fn sync(telemetry: &Registry, parent: &Span) {
    print!(
        "{}",
        tab04_sync_error::run_traced(150, 0x11, telemetry, parent).report()
    );
}

fn iperf(args: &[String], telemetry: &Registry) {
    let frames = u64_flag(args, "--frames", 50);
    if frames == 0 {
        eprintln!("bad --frames value `0` (must be positive)");
        std::process::exit(2);
    }
    print!(
        "{}",
        tab05_iperf::run_traced(frames as usize, 0x12, telemetry).report()
    );
}

fn faceoff(args: &[String]) {
    print!("{}", fig21_baselines::run(scenario_arg(args)).report());
}

/// Drives a deterministic synthetic session load through the sharded
/// multi-cell building engine (`crates/cell`, docs/SHARDING.md) — the
/// CLI-sized cousin of `cargo run --release -p vlc-cell --bin load_gen`,
/// sharing its schedule generator so the workload is a pure function of
/// the seed. `--obs-stream` emits the `building.*` NDJSON signals.
fn building(args: &[String], telemetry: &Registry, parent: &Span, obs: &ObsOptions) {
    let rooms = flag_value(args, "--rooms").unwrap_or_else(|| "4x3".into());
    let parsed = rooms
        .split_once('x')
        .and_then(|(c, r)| Some((c.parse::<usize>().ok()?, r.parse::<usize>().ok()?)));
    let (cols, rows) = match parsed {
        Some((c, r)) if c * r > 0 => (c, r),
        _ => {
            eprintln!("bad --rooms value `{rooms}` (expected CxR, e.g. 4x3)");
            std::process::exit(2);
        }
    };
    let load = LoadGenConfig {
        cols,
        rows,
        ticks: u64_flag(args, "--ticks", 300),
        target_events: u64_flag(args, "--events", 60_000),
        seed: u64_flag(args, "--seed", 42),
        mean_lifetime_ticks: u64_flag(args, "--lifetime", 80),
        move_period_ticks: u64_flag(args, "--move-period", 6),
        step_m: f64_flag(args, "--step", 1.5),
    };
    // The schedule needs at least one tick, and a move a positive step.
    for (flag, ok) in [("--ticks", load.ticks > 0), ("--step", load.step_m > 0.0)] {
        if !ok {
            let value = flag_value(args, flag).unwrap_or_default();
            eprintln!(
                "bad {flag} value `{value}` (must be positive)\n\
                 usage: densevlc-cli building [--rooms CxR] [--ticks N] [--events N] \
                 [--seed N] [--lifetime T] [--move-period T] [--step M]"
            );
            std::process::exit(2);
        }
    }
    let config = BuildingConfig::paper(cols, rows);
    let mut engine = BuildingEngine::new(&config, telemetry);
    let pool = Pool::new(Jobs::from_env()).with_telemetry(telemetry);
    let mut plane = obs.obs_stream.as_ref().map(|path| {
        let sink: Box<dyn ObsSink> = match FileSink::create(Path::new(path)) {
            Ok(f) => Box::new(f),
            Err(e) => {
                eprintln!("cannot create obs stream `{path}`: {e}");
                std::process::exit(2);
            }
        };
        let cfg = BuildingObsConfig {
            run: format!("cli building seed{}", load.seed),
            every: obs.obs_every,
            ..BuildingObsConfig::default()
        };
        BuildingObs::new(&cfg, engine.map(), sink).expect("obs meta record")
    });
    let report = drive(&mut engine, &load.schedule(), &pool, plane.as_mut(), parent)
        .expect("obs sink write");
    if let Some(plane) = plane {
        plane.finish().expect("obs summary record");
    }
    println!(
        "building {cols}x{rows} ({} rooms), seed {}: {} events, {} sessions (peak {}), \
         {} handovers",
        cols * rows,
        load.seed,
        report.events,
        report.sessions,
        report.peak_sessions,
        report.handovers
    );
    println!(
        "replans {} (cache hits {}) · wall {:.2} s · events/s {:.0} · replans/s {:.0}",
        report.replans, report.plan_hits, report.wall_s, report.events_per_s, report.replans_per_s
    );
    println!(
        "control tick p50 {:.1} µs · p99 {:.1} µs · max {:.1} µs · system {:.3e} bit/s",
        report.tick_p50_us, report.tick_p99_us, report.tick_max_us, report.final_system_bps
    );
}

/// Runs the composable simulation, optionally streaming the
/// observability plane; `--person X Y` drops a standing occluder to make
/// blockage (and the per-RX throughput SLOs) do something.
fn sim(
    args: &[String],
    telemetry: &Registry,
    parent: &Span,
    obs: &ObsOptions,
    tracer: &Tracer,
    profiling: bool,
) {
    let scenario = scenario_arg(args);
    let budget = f64_flag(args, "--budget", 1.2);
    let duration = f64_flag(args, "--duration", 2.0);
    let period = f64_flag(args, "--period", 0.25);
    let slo_bps = f64_flag(args, "--slo-bps", 1e6);
    let slo_solver_s = f64_flag(args, "--slo-solver-s", 0.05);
    for (flag, value) in [("--duration", duration), ("--period", period)] {
        if value <= 0.0 {
            eprintln!("bad {flag} value `{value}` (must be positive)");
            std::process::exit(2);
        }
    }
    let ticks = (duration / period).ceil();
    if ticks > f64::from(u32::MAX) {
        eprintln!(
            "bad --duration/--period: {duration} s at {period} s per tick is {ticks:e} ticks (at most {})",
            u32::MAX
        );
        std::process::exit(2);
    }
    let mut simulation = Simulation::new(Deployment::scenario(scenario), budget, period);
    if let Some(x) = flag_value(args, "--person") {
        let i = args.iter().position(|a| a == "--person").unwrap();
        let Some(y) = args.get(i + 2) else {
            eprintln!("--person expects X Y coordinates");
            std::process::exit(2);
        };
        match (x.parse::<f64>(), y.parse::<f64>()) {
            (Ok(px), Ok(py)) => simulation.add_person(px, py, 0.5, &[]),
            _ => {
                eprintln!("bad --person coordinates `{x} {y}`");
                std::process::exit(2);
            }
        }
    }
    let n_rx = simulation.deployment.receivers.len();

    let timeline = if obs.wants_stream() {
        let mem = MemorySink::new();
        let sink: Box<dyn ObsSink> = match &obs.obs_stream {
            Some(path) => match FileSink::create(Path::new(path)) {
                Ok(f) => Box::new(f),
                Err(e) => {
                    eprintln!("error: cannot create stream file {path}: {e}");
                    std::process::exit(2);
                }
            },
            None => Box::new(mem.clone()),
        };
        let cfg = ObsConfig {
            run: format!("sim {}", scenario.label()),
            every: obs.obs_every,
            window: WindowConfig::default(),
            rules: densevlc_defaults(n_rx, slo_bps, slo_solver_s),
            panic_at_tick: inject_panic_from_env(),
        };
        let mut plane = ObsPlane::new(sink, cfg);
        if let Some(path) = &obs.flight_recorder {
            plane = plane.with_flight(FlightRecorder::new(Path::new(path), obs.flight_last));
        }
        let tl = simulation.run_traced(duration, Some(&mut plane), telemetry, parent);
        // A profiled run digests its profile into the stream ahead of the
        // summary record (obs_check --expect-summary wants summary last).
        // The root `cli.sim` span is still open here, so its children
        // surface as profile roots — fine for a hottest-path digest.
        if profiling || obs.wants_profile() {
            let profile = Profile::from_snapshot(&tracer.snapshot(), Jobs::from_env().get());
            plane.emit_record(&ObsRecord::profile_summary(&profile));
        }
        plane.finish(telemetry, tracer.snapshot().dropped);
        if let Some(path) = &obs.obs_stream {
            eprintln!("wrote observability stream to {path}");
        }
        if obs.watch {
            let text = match &obs.obs_stream {
                Some(path) => std::fs::read_to_string(path).unwrap_or_default(),
                None => mem.text(),
            };
            match parse_stream(&text) {
                Ok(records) => print!("\n{}", render(&records)),
                Err(e) => eprintln!("error: stream failed validation: {e}"),
            }
        }
        tl
    } else {
        simulation.run_traced(duration, None, telemetry, parent)
    };

    println!(
        "{}: {} ticks over {duration} s — mean system {:.2} Mb/s, {} replans, outage {:.1}%",
        scenario.label(),
        timeline.ticks.len(),
        timeline.mean_system_bps() / 1e6,
        timeline.replans(),
        timeline.outage_fraction() * 100.0
    );
}

/// Renders the monitor dashboard from an NDJSON stream file; `--follow`
/// re-reads and re-renders until the stream ends in a summary or panic.
/// Without `--follow` a file holding no record is an error (exit 2); with
/// it, an empty file is a producer that has not written yet.
fn monitor(args: &[String]) {
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("monitor expects a stream file (densevlc-cli monitor run.ndjson)");
        std::process::exit(2);
    };
    let follow = args.iter().any(|a| a == "--follow");
    loop {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if follow => {
                // The producer may not have created the file yet.
                eprintln!("waiting for {path}: {e}");
                std::thread::sleep(std::time::Duration::from_millis(500));
                continue;
            }
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        match parse_stream(&text) {
            Ok(records) if records.is_empty() && !follow => {
                eprintln!("error: {path} contains no records");
                std::process::exit(2);
            }
            Ok(records) => {
                if follow {
                    // Clear and repaint, terminal-dashboard style.
                    print!("\x1b[2J\x1b[H");
                }
                print!("{}", render(&records));
                let done = records
                    .iter()
                    .any(|r| matches!(r, ObsRecord::Summary { .. } | ObsRecord::Panic { .. }));
                if !follow || done {
                    break;
                }
            }
            Err(e) => {
                eprintln!("error: {path} failed stream validation: {e}");
                std::process::exit(2);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(500));
    }
}

fn help() {
    println!(
        "densevlc-cli — DenseVLC (CoNEXT '18) reproduction\n\n\
         USAGE:\n  densevlc-cli <command> [options]\n\n\
         COMMANDS:\n  \
         adapt   [--scenario 1|2|3] [--budget W]  run one adaptation round\n  \
         map     [--scenario 1|2|3] [--budget W]  ASCII floor plan of beamspots\n  \
         lux                                      illuminance / ISO 8995-1 check\n  \
         codecs                                   FEC stack catalogue (docs/CODECS.md)\n  \
         sync                                     Table-4 sync-error measurement\n  \
         iperf   [--frames N]                     Table-5 end-to-end experiment\n  \
         faceoff [--scenario 1|2|3]               Fig-21 SISO/D-MISO comparison\n  \
         sim     [--scenario 1|2|3] [--budget W] [--duration S] [--period S]\n  \
         \x20       [--person X Y] [--slo-bps BPS] [--slo-solver-s S]\n  \
         \x20                                        run the tick simulation\n  \
         building [--rooms CxR] [--ticks N] [--events N] [--seed N]\n  \
         \x20        [--lifetime T] [--move-period T] [--step M]\n  \
         \x20                                        drive a synthetic session load\n  \
         \x20                                        through the sharded multi-cell\n  \
         \x20                                        engine (docs/SHARDING.md)\n  \
         monitor <stream.ndjson> [--follow]       dashboard from an obs stream\n  \
         profile <command> [options]              run any command with the tracer\n  \
         \x20                                        live and print self/inclusive\n  \
         \x20                                        time tables (docs/OBSERVABILITY.md)\n  \
         help                                     this text\n\n\
         OBSERVABILITY OPTIONS (any command):\n  \
         --telemetry <json|csv|summary>           record metrics during the run\n  \
         \x20                                        and append them to the output\n  \
         --telemetry-out <file>                   write the telemetry rendering to\n  \
         \x20                                        a file instead (default json)\n  \
         --trace <file>                           record causal spans and write\n  \
         \x20                                        Chrome Trace JSON (Perfetto)\n  \
         --profile-out <file>                     densevlc-prof/1 self-time profile\n  \
         --folded-out <file>                      folded stacks (flamegraph input)\n  \
         --flame-out <file>                       self-contained SVG flamegraph\n\n\
         STREAMING OPTIONS (sim):\n  \
         --obs-stream <file>                      live NDJSON observability stream\n  \
         --obs-every <n>                          stream flush cadence in ticks\n  \
         --flight-recorder <file>                 crash dump of the last records\n  \
         --flight-last <k>                        flight ring capacity (lines)\n  \
         --watch                                  render the dashboard at exit\n\n\
         Every paper table/figure (add IDs for paper scale) runs with:\n  \
         cargo run --release -p vlc-bench --bin run_all [-- ID...]"
    );
}

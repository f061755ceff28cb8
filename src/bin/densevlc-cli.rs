//! `densevlc-cli` — drive the DenseVLC reproduction from the command line.
//! `densevlc-cli help` lists the commands ([`COMMANDS`]); prefixing one
//! with `profile` (e.g. `densevlc-cli profile sim`) also prints
//! self/inclusive time tables and attributes heap allocations to the root
//! span via the process-wide counting allocator.
//!
//! Each command takes only its own flags: an unknown flag, a flag
//! without its value, a repeated flag or a stray argument exits 2 with
//! the command's usage. `vlc_obs::ObsOptions` parses the observability
//! flags and writes every artifact they ask for. Every command honours
//! the telemetry, trace, BENCH.json and profile flags; `building` adds
//! its stream (`--obs-stream`, `--obs-every`, `--watch`), and `sim` adds
//! those and the flight recorder. Any other observability flag exits 2
//! naming it and the command.
//!
//! Argument parsing is std-only on purpose: the reproduction's dependency
//! set stays at the approved crates.

use densevlc::experiments::{fig05_illuminance, fig21_baselines, tab04_sync_error, tab05_iperf};
use densevlc::{Simulation, System};
use vlc_cell::{drive_observed, BuildingConfig, BuildingEngine, BuildingObsConfig, LoadGenConfig};
use vlc_led::LedParams;
use vlc_obs::monitor::dashboard;
use vlc_obs::{densevlc_defaults, inject_panic_from_env, ObsConfig, ObsOptions, ObsRecord, ObsRun};
use vlc_par::{Jobs, Pool};
use vlc_prof::alloc_counter::{AllocScope, CountingAlloc};
use vlc_testbed::{Deployment, Scenario};
use vlc_trace::{Probe, Span, Tracer};

// Installed process-wide so `profile <cmd>` can attribute heap churn to
// span scopes. The cost is one thread-local `Cell` bump per allocation —
// unmeasurable next to solver work. `run_all` (the BENCH.json producer)
// deliberately does NOT install it, keeping baseline timings
// allocator-identical to the seed.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The observability flags every command honours (the artifacts its
/// registry and tracer feed), those `building` adds (its stream), and
/// those `sim` adds to both (the flight recorder).
const OBS_ANY: &str =
    "--telemetry --telemetry-out --trace --bench-out --profile-out --folded-out --flame-out";
const OBS_STREAM: &str = "--obs-stream --obs-every --watch";
const OBS_FLIGHT: &str = "--flight-recorder --flight-last";

/// Each command's synopsis and, after `: `, what it does. The synopsis is
/// also what [`Args::parse`] accepts: a `<positional>`, and each
/// `[--flag VALUE…]` with one value per word.
const COMMANDS: [&str; 11] = [
    "adapt [--scenario 1|2|3] [--budget W]: run one adaptation round",
    "map [--scenario 1|2|3] [--budget W]: ASCII floor plan of beamspots",
    "lux: illuminance / ISO 8995-1 check",
    "codecs: FEC stack catalogue (docs/CODECS.md)",
    "sync: Table-4 sync-error measurement",
    "iperf [--frames N]: Table-5 end-to-end experiment",
    "faceoff [--scenario 1|2|3]: Fig-21 SISO/D-MISO comparison",
    "sim [--scenario 1|2|3] [--budget W] [--duration S] [--period S] [--person X Y] \
     [--slo-bps BPS] [--slo-solver-s S]: run the tick simulation",
    "building [--rooms CxR] [--ticks N] [--events N] [--seed N] [--lifetime T] \
     [--move-period T] [--step M]: drive a synthetic session load through the sharded \
     multi-cell engine (docs/SHARDING.md)",
    "monitor <stream.ndjson> [--follow]: dashboard from an obs stream",
    "help: this text",
];

/// The observability flags command `name` honours.
fn obs_flags(name: &str) -> String {
    match name {
        "sim" => [OBS_ANY, OBS_STREAM, OBS_FLIGHT].join(" "),
        "building" => [OBS_ANY, OBS_STREAM].join(" "),
        _ => OBS_ANY.to_string(),
    }
}

/// Reports a usage error with `cmd`'s usage and exits 2.
fn usage_error(cmd: &str, message: &str) -> ! {
    let (synopsis, _) = cmd.split_once(": ").unwrap_or((cmd, ""));
    let name = synopsis.split(' ').next().unwrap_or(synopsis);
    eprintln!(
        "error: {message}\nusage: densevlc-cli {synopsis} [observability options]\n{}",
        ObsOptions::usage(&obs_flags(name))
    );
    std::process::exit(2)
}

/// A command's own arguments: each flag given with its values, and the
/// positional argument.
struct Args {
    cmd: &'static str,
    given: Vec<(String, Vec<String>)>,
    positional: Option<String>,
}

impl Args {
    /// Checks `args` against the command's synopsis; an unknown flag, a
    /// flag without its values, a repeated flag or a stray argument is a
    /// usage error.
    fn parse(cmd: &'static str, args: &[String]) -> Args {
        let mut out = Args {
            cmd,
            given: Vec::new(),
            positional: None,
        };
        // Each `--flag VALUE…` group of the synopsis.
        let specs: Vec<&str> = cmd
            .split('[')
            .skip(1)
            .flat_map(|g| g.split(']').next())
            .collect();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if let Some(spec) = specs.iter().find(|g| g.split(' ').next() == Some(arg)) {
                let n = spec.split(' ').count() - 1;
                let values: Vec<String> = rest.by_ref().take(n).cloned().collect();
                if values.len() < n {
                    out.fail(&format!("{arg} needs a value: {spec}"));
                }
                if out.values(arg).is_some() {
                    out.fail(&format!("{arg} given twice"));
                }
                out.given.push((arg.clone(), values));
            } else if arg.starts_with('-') {
                out.fail(&format!("unknown flag `{arg}`"));
            } else if !cmd.contains(" <") || out.positional.is_some() {
                out.fail(&format!("unexpected argument `{arg}`"));
            } else {
                out.positional = Some(arg.clone());
            }
        }
        out
    }

    fn fail(&self, message: &str) -> ! {
        usage_error(self.cmd, message)
    }

    fn values(&self, flag: &str) -> Option<&[String]> {
        self.given
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_slice())
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag).map(|v| v[0].as_str())
    }

    fn u64(&self, flag: &str, default: u64) -> u64 {
        match self.value(flag) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| self.fail(&format!("bad {flag} value `{v}`"))),
        }
    }

    fn f64(&self, flag: &str, default: f64) -> f64 {
        match self.value(flag) {
            None => default,
            Some(v) => match v.parse::<f64>() {
                Ok(x) if x.is_finite() => x,
                _ => self.fail(&format!(
                    "bad {flag} value `{v}` (expected a finite number)"
                )),
            },
        }
    }

    /// [`Self::f64`], which must also be positive.
    fn positive(&self, flag: &str, default: f64) -> f64 {
        let value = self.f64(flag, default);
        if value <= 0.0 {
            self.fail(&format!("bad {flag} value `{value}` (must be positive)"));
        }
        value
    }

    fn scenario(&self) -> Scenario {
        match self.value("--scenario") {
            Some("1") => Scenario::One,
            Some("3") => Scenario::Three,
            Some("2") | None => Scenario::Two,
            Some(other) => self.fail(&format!("unknown scenario `{other}` (expected 1, 2 or 3)")),
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let all = [OBS_ANY, OBS_STREAM, OBS_FLIGHT].join(" ");
    let obs = ObsOptions::parse(&mut args, "densevlc-cli", &all).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    // `profile <cmd>` wraps any other command: the tracer goes live, the
    // root span carries this thread's allocation deltas, and the run ends
    // with self/inclusive time tables (plus any --profile-out/--folded-out/
    // --flame-out artifacts).
    let profiling = args.first().map(String::as_str) == Some("profile");
    if profiling {
        args.remove(0);
    }
    // With observability flags (or a bare `profile`) and no command,
    // default to an adaptation round so there is something to record.
    let name = match args.first().map(String::as_str) {
        Some("--help" | "-h") => "help",
        Some(c) => c,
        None if profiling || obs.wants_registry() || obs.wants_tracer() => "adapt",
        None => "help",
    };
    let Some(cmd) = COMMANDS
        .iter()
        .find(|c| c.split([' ', ':']).next() == Some(name))
    else {
        eprintln!("unknown command `{name}`\n");
        help();
        std::process::exit(2);
    };
    let title = format!("densevlc-cli {name}");
    if let Err(e) = obs.honours(&title, &obs_flags(name)) {
        usage_error(cmd, &e);
    }
    let args = Args::parse(cmd, args.get(1..).unwrap_or_default());
    let mut run = obs.start(&title, Jobs::from_env().get());
    if profiling {
        run.tracer = Tracer::new();
    }
    let root = run.tracer.root(&format!("cli.{name}"));
    // Dropped (writing alloc attrs) just before the root span closes.
    let alloc_scope = AllocScope::new(&root);
    let probe = Probe {
        telemetry: &run.registry,
        span: &root,
    };
    match name {
        "adapt" => adapt(&args, probe),
        "map" => map(&args, probe),
        "lux" => lux(),
        "codecs" => codecs(),
        "sync" => sync(probe),
        "iperf" => iperf(&args, probe),
        "faceoff" => faceoff(&args),
        "sim" => sim(&args, &mut run, &root, profiling),
        "building" => building(&args, &mut run, &root),
        "monitor" => monitor(&args),
        _ => help(),
    }
    drop(alloc_scope);
    drop(root);
    let profile = profiling.then(|| run.profile());
    run.finish();
    if let Some(profile) = profile {
        println!(
            "\nprofile: {} paths, {} calls, {:.6} s traced",
            profile.nodes.len(),
            profile.nodes.iter().map(|n| n.calls).sum::<u64>(),
            profile.total_root_s()
        );
        print!("\nself time (top 10)\n{}", profile.self_table(10));
        print!("\ninclusive time (top 10)\n{}", profile.inclusive_table(10));
    }
}

fn adapt(args: &Args, probe: Probe<'_>) {
    let scenario = args.scenario();
    let budget = args.positive("--budget", 1.2);
    let mut system = System::scenario(scenario, budget);
    let round = system.adapt(probe);
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
    // summary shows optimal vs heuristic wall-time side by side.
    if probe.telemetry.is_enabled() || probe.span.is_enabled() {
        let model = &system.deployment.model;
        let heuristic = vlc_alloc::heuristic::heuristic_allocation(
            &model.channel,
            &model.led,
            budget,
            &vlc_alloc::HeuristicConfig::paper(),
            probe,
        );
        let optimal = vlc_alloc::OptimalSolver::quick().solve(
            model,
            budget,
            None,
            &Pool::from_env().with_telemetry(probe.telemetry),
            probe,
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
fn map(args: &Args, probe: Probe<'_>) {
    let scenario = args.scenario();
    let budget = args.positive("--budget", 1.2);
    let mut system = System::scenario(scenario, budget);
    let round = system.adapt(probe);
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

fn sync(probe: Probe<'_>) {
    print!("{}", tab04_sync_error::run(150, 0x11, probe).report());
}

fn iperf(args: &Args, probe: Probe<'_>) {
    let frames = args.u64("--frames", 50);
    if frames == 0 {
        args.fail("bad --frames value `0` (must be positive)");
    }
    print!(
        "{}",
        tab05_iperf::run(frames as usize, 0x12, probe).report()
    );
}

fn faceoff(args: &Args) {
    print!("{}", fig21_baselines::run(args.scenario()).report());
}

/// Drives a deterministic synthetic session load through the sharded
/// multi-cell building engine (`crates/cell`, docs/SHARDING.md) — the
/// CLI-sized cousin of `cargo run --release -p vlc-cell --bin load_gen`,
/// sharing its schedule generator so the workload is a pure function of
/// the seed. `--obs-stream` emits the `building.*` NDJSON signals.
fn building(args: &Args, run: &mut ObsRun, parent: &Span) {
    let rooms = args.value("--rooms").unwrap_or("4x3");
    let parsed = rooms
        .split_once('x')
        .and_then(|(c, r)| Some((c.parse::<usize>().ok()?, r.parse::<usize>().ok()?)));
    let (cols, rows) = match parsed {
        Some((c, r)) if c * r > 0 => (c, r),
        _ => args.fail(&format!(
            "bad --rooms value `{rooms}` (expected CxR, e.g. 4x3)"
        )),
    };
    let load = LoadGenConfig {
        cols,
        rows,
        ticks: args.u64("--ticks", 300),
        target_events: args.u64("--events", 60_000),
        seed: args.u64("--seed", 42),
        mean_lifetime_ticks: args.u64("--lifetime", 80),
        move_period_ticks: args.u64("--move-period", 6),
        step_m: args.positive("--step", 1.5),
    };
    // The schedule needs at least one tick.
    if load.ticks == 0 {
        args.fail("bad --ticks value `0` (must be positive)");
    }
    let config = BuildingConfig::paper(cols, rows);
    let mut engine = BuildingEngine::new(&config, &run.registry);
    let pool = Pool::new(Jobs::from_env()).with_telemetry(&run.registry);
    let stream = BuildingObsConfig {
        run: format!("cli building seed{}", load.seed),
        every: ObsConfig::default().every,
        ..BuildingObsConfig::default()
    };
    let report = drive_observed(&mut engine, &load.schedule(), &pool, run, stream, parent);
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
fn sim(args: &Args, run: &mut ObsRun, parent: &Span, profiling: bool) {
    let scenario = args.scenario();
    let budget = args.positive("--budget", 1.2);
    let duration = args.positive("--duration", 2.0);
    let period = args.positive("--period", 0.25);
    let slo_bps = args.f64("--slo-bps", 1e6);
    let slo_solver_s = args.f64("--slo-solver-s", 0.05);
    let ticks = (duration / period).ceil();
    if ticks > f64::from(u32::MAX) {
        args.fail(&format!(
            "bad --duration/--period: {duration} s at {period} s per tick is {ticks:e} ticks (at most {})",
            u32::MAX
        ));
    }
    let mut simulation = Simulation::new(Deployment::scenario(scenario), budget, period);
    if let Some([x, y]) = args.values("--person") {
        match (x.parse::<f64>(), y.parse::<f64>()) {
            (Ok(px), Ok(py)) => simulation.add_person(px, py, 0.5, &[]),
            _ => args.fail(&format!("bad --person coordinates `{x} {y}`")),
        }
    }
    let n_rx = simulation.deployment.receivers.len();

    let mut plane = run.plane(ObsConfig {
        run: format!("sim {}", scenario.label()),
        rules: densevlc_defaults(n_rx, slo_bps, slo_solver_s),
        panic_at_tick: inject_panic_from_env(),
        ..ObsConfig::default()
    });
    let timeline = simulation.run(
        duration,
        plane.as_mut(),
        Probe {
            telemetry: &run.registry,
            span: parent,
        },
    );
    if let Some(mut plane) = plane {
        // A profiled run digests its profile into the stream ahead of
        // the summary. The root `cli.sim` span is still open here, so its
        // children surface as profile roots — fine for a hottest-path
        // digest.
        if profiling || run.options.wants_profile() {
            plane.emit_record(&ObsRecord::profile_summary(&run.profile()));
        }
        run.end_stream(plane.finish(&run.registry, run.tracer.snapshot().dropped));
    }

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
/// Without `--follow` a file holding no complete record is an error
/// (exit 2); with it, such a file is a producer that has not written yet.
fn monitor(args: &Args) {
    let Some(path) = &args.positional else {
        args.fail("monitor expects a stream file (densevlc-cli monitor run.ndjson)");
    };
    let follow = args.values("--follow").is_some();
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
        match dashboard(&text) {
            Ok(d) if d.records == 0 && !follow => {
                eprintln!("error: {path} contains no records");
                std::process::exit(2);
            }
            Ok(d) => {
                if follow {
                    // Clear and repaint, terminal-dashboard style.
                    print!("\x1b[2J\x1b[H");
                }
                print!("{}", d.view);
                if !follow || d.ended {
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
         USAGE:\n  densevlc-cli [profile] <command> [options]\n\n\
         COMMANDS:"
    );
    for cmd in COMMANDS {
        let (synopsis, about) = cmd.split_once(": ").unwrap_or((cmd, ""));
        println!("  {synopsis}\n      {about}");
    }
    print!(
        "\n`profile <command>` runs any command with the tracer live and prints\n\
         self/inclusive time tables (docs/OBSERVABILITY.md).\n\n\
         OBSERVABILITY OPTIONS (every command):\n{}\n\
         STREAM OPTIONS (building: the first three; sim: all five):\n{}\n\
         Every paper table/figure (add IDs for paper scale) runs with:\n  \
         cargo run --release -p vlc-bench --bin run_all [-- ID...]\n",
        ObsOptions::usage(OBS_ANY),
        ObsOptions::usage(&[OBS_STREAM, OBS_FLIGHT].join(" "))
    );
}

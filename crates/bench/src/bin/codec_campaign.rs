//! Sweeps every registered codec stack across payload scenarios and
//! calibrated noise profiles, reporting a PER-vs-overhead frontier.
//!
//! Cells run as a parallel job set on the `vlc-par` pool; the report is
//! assembled in fixed cell order, so the emitted JSON is byte-identical
//! for any `--jobs` value (`--jobs 1` is the exact sequential run). The
//! reduced sweep (`--reduced`) is what CI runs and what the golden
//! snapshot `tests/golden/codec_campaign.json` pins.
//!
//! The shared `vlc_obs::ObsOptions` parses and writes the stream flags,
//! the only observability flags the campaign takes: `--obs-stream FILE`
//! records one `job` record per sweep cell (in cell order) plus a run
//! summary, validated by `obs_check`.

use vlc_bench::codec_lab::{CampaignConfig, CampaignReport};
use vlc_obs::{write_file, ObsOptions};
use vlc_par::{Jobs, Pool, JOBS_ENV};

const USAGE: &str = "\
codec_campaign — sweep FEC codec stacks across noise profiles

USAGE:
    codec_campaign [--jobs N] [--frames N] [--reduced] [--out FILE]
                   [observability options]

OPTIONS:
    --jobs N            Worker count for the sweep cells. N = a positive
                        integer, or `max`/`0` for all available cores.
                        Defaults to the DENSEVLC_JOBS environment variable,
                        then to all cores. The report is byte-identical for
                        every worker count.
    --frames N          Frames per sweep cell (overrides the campaign's
                        default).
    --reduced           Run the reduced CI sweep (one scenario, five
                        profiles) instead of the full campaign.
    --out FILE          Write the JSON report to FILE instead of stdout.
    -h, --help          Print this help.

The stream holds one `job` record per sweep cell plus a run summary.

OBSERVABILITY OPTIONS:
";

/// The observability flags the campaign honours: its job stream's.
const OBS_FLAGS: &str = "--obs-stream --obs-every --watch";

struct Options {
    jobs: Jobs,
    frames: Option<usize>,
    reduced: bool,
    out: Option<String>,
    obs: ObsOptions,
}

fn parse_args() -> Result<Options, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        print!("{USAGE}{}", ObsOptions::usage(OBS_FLAGS));
        std::process::exit(0);
    }
    let obs = ObsOptions::parse(&mut argv, "codec_campaign", OBS_FLAGS)?;
    let mut opts = Options {
        jobs: Jobs::from_env(),
        frames: None,
        reduced: false,
        out: None,
        obs,
    };
    let mut given: Vec<String> = Vec::new();
    let mut rest = argv.into_iter();
    while let Some(arg) = rest.next() {
        if given.contains(&arg) {
            return Err(format!("{arg} given twice"));
        }
        given.push(arg.clone());
        match arg.as_str() {
            "--jobs" => {
                let v = rest.next().ok_or("--jobs needs a value (N or `max`)")?;
                opts.jobs = Jobs::parse(&v).ok_or(format!("bad --jobs value `{v}`"))?;
            }
            "--frames" => {
                let v = rest.next().ok_or("--frames needs a value")?;
                opts.frames = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or(format!("bad --frames value `{v}`"))?,
                );
            }
            "--reduced" => opts.reduced = true,
            "--out" => {
                opts.out = Some(rest.next().ok_or("--out needs a file path")?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}{}", ObsOptions::usage(OBS_FLAGS));
            std::process::exit(2);
        }
    };
    std::env::set_var(JOBS_ENV, opts.jobs.get().to_string());

    let mut cfg = if opts.reduced {
        CampaignConfig::reduced()
    } else {
        CampaignConfig::paper()
    };
    if let Some(frames) = opts.frames {
        cfg.frames = frames;
    }

    let mut run = opts.obs.start("codec_campaign", opts.jobs.get());
    let pool = Pool::new(opts.jobs);
    let report = CampaignReport::run(&cfg, &pool);
    let json = report.to_json();
    match &opts.out {
        Some(path) => write_file(path, &json, "campaign report"),
        None => print!("{json}"),
    }
    // One `job` record per sweep cell, in the fixed cell order —
    // byte-identical for any worker count.
    run.write_job_stream(
        "codec_campaign",
        (0..cfg.n_cells()).map(|i| cfg.cell_label(i)),
    );
    run.finish();
}

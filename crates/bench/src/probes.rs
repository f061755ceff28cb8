//! The standard timed workloads behind BENCH.json and the profiler.
//!
//! `run_all` runs these after the experiment job set whenever timing is
//! on; the trace→profile determinism tests (`tests/prof_determinism.rs`
//! at the workspace root) run the *same* probes under a `ManualClock`
//! tracer to pin that the span structure — and therefore the profile and
//! its folded rendering — is byte-identical at any `DENSEVLC_JOBS`.
//! Keeping them in the library is what lets both callers share one
//! definition of "the standard phase probe".

use densevlc::{Simulation, System};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use vlc_alloc::heuristic::heuristic_allocation;
use vlc_alloc::model::SystemModel;
use vlc_alloc::{HeuristicConfig, OptimalSolver};
use vlc_cell::{BuildingConfig, BuildingEngine, Command};
use vlc_channel::{ChannelMatrix, RxOptics, SparseChannelView};
use vlc_geom::{Pose, Room, TxGrid};
use vlc_led::LedParams;
use vlc_par::Pool;
use vlc_phy::manchester::{manchester_decode, manchester_encode};
use vlc_phy::packed::PackedChips;
use vlc_phy::rs::RsCodec;
use vlc_phy::waveform::{
    render, render_packed_into, slice_chips, slice_chips_packed_by, Sliced, WaveformConfig,
};
use vlc_phy::{Frame, FrameHeader, ReedSolomon, RsStack};
use vlc_sync::NlosSyncLink;
use vlc_telemetry::Registry;
use vlc_testbed::{Deployment, Scenario};
use vlc_trace::{Probe, Span, Tracer};

/// Times the library's standard phases once under a `bench.phase_probe`
/// root, so BENCH.json carries comparable per-phase rows (`channel.sound`,
/// `alloc.heuristic.solve`, `alloc.optimal.solve`, `sim.adapt`, `sim.run`,
/// `sync.link_build`, `sync.pilot_detect`, …) next to the whole-experiment
/// rows. Scenario 2 at the paper's 1.2 W budget is the reference workload.
pub fn phase_probe(tracer: &Tracer, pool: &Pool) {
    let root = tracer.root("bench.phase_probe");
    let probe = Probe {
        span: &root,
        ..Probe::off()
    };
    let dep = Deployment::scenario(Scenario::Two);
    ChannelMatrix::compute(
        &dep.grid,
        &dep.receivers,
        dep.half_power_semi_angle,
        &dep.optics,
        &[],
        probe,
    );
    heuristic_allocation(
        &dep.model.channel,
        &LedParams::cree_xte_paper(),
        1.2,
        &HeuristicConfig::paper(),
        probe,
    );
    OptimalSolver::quick().solve(&dep.model, 1.2, None, pool, probe);
    System::scenario(Scenario::Two, 1.2).adapt(probe);
    Simulation::new(Deployment::scenario(Scenario::Two), 1.2, 0.25).run(0.6, None, probe);
    let link = NlosSyncLink::between(
        &dep.grid.pose(1),
        &dep.grid.pose(2),
        &dep.room,
        dep.half_power_semi_angle,
        &dep.optics,
        probe,
    );
    let mut rng = StdRng::seed_from_u64(0xBE7C);
    for frame in 0..4 {
        let round = root.child_indexed("sync.pilot_round", frame);
        link.detect(
            &mut rng,
            Probe {
                span: &round,
                ..probe
            },
        );
    }
}

/// Times the SoA/sparse channel machinery under a `bench.sparse_probe`
/// root: channel sounding, CSR view builds, and the fast vs historical
/// dense solver engines — once at the paper's 36 × 4 geometry (90°
/// receivers: every link is nonzero) and once at a synthetic 144 × 16
/// building floor with 35° receivers (where most links are exact zeros).
/// Every row is a *new* span name (`sparse.*`), and each timed workload
/// calls an untraced entry point inside the timing span, so all
/// pre-existing BENCH rows keep their historical meaning and stay
/// gate-comparable.
pub fn sparse_probe(tracer: &Tracer, pool: &Pool) {
    let probe = tracer.root("bench.sparse_probe");

    // Paper geometry: Scenario 2, 36 TX / 4 RX, wide-open receivers.
    let dep = Deployment::scenario(Scenario::Two);
    {
        let span = probe.child("sparse.view.build.paper");
        let view = SparseChannelView::from_matrix(&dep.model.channel);
        span.attr("live_links", &view.live_links().to_string());
    }
    let solver = OptimalSolver::quick();
    {
        let _span = probe.child("sparse.solve.paper");
        solver.solve(&dep.model, 1.2, None, pool, Probe::off());
    }
    {
        let _span = probe.child("sparse.solve.dense.paper");
        solver.solve_dense(&dep.model, 1.2, pool);
    }

    // Synthetic building floor: 144 TX / 16 narrow-FOV RX.
    let room = Room {
        width: 6.0,
        depth: 6.0,
        height: 3.0,
        floor_reflectance: 0.6,
    };
    let grid = TxGrid::centered(&room, 12, 12, 0.5);
    let optics = RxOptics {
        fov_half_angle: 35f64.to_radians(),
        ..RxOptics::paper()
    };
    let receivers: Vec<Pose> = (0..16)
        .map(|i| {
            let (ix, iy) = (i % 4, i / 4);
            Pose::face_up((ix as f64 + 0.5) * 1.5, (iy as f64 + 0.5) * 1.5, 0.8)
        })
        .collect();
    let hpsa = dep.half_power_semi_angle;
    let dense_matrix = {
        let _span = probe.child("sparse.channel.dense.building");
        ChannelMatrix::compute(&grid, &receivers, hpsa, &optics, &[], Probe::off())
    };
    {
        let span = probe.child("sparse.view.build.building");
        let view = SparseChannelView::from_matrix(&dense_matrix);
        span.attr("live_links", &view.live_links().to_string());
    }
    let model = SystemModel::paper(dense_matrix);
    let building_solver = OptimalSolver {
        max_iters: 40,
        random_starts: 1,
        tol: 1e-7,
        seed: 0x5eed,
    };
    {
        let _span = probe.child("sparse.solve.building");
        building_solver.solve(&model, 1.2, None, pool, Probe::off());
    }
    {
        let _span = probe.child("sparse.solve.dense.building");
        building_solver.solve_dense(&model, 1.2, pool);
    }
}

/// Times the sharded building control plane under a `bench.shard_probe`
/// root at the acceptance geometry — a 10 × 10 building (N = 100 cells),
/// one session per room, heuristic policy. Three repeated rows:
/// `shard.tick.steady` (no shard dirty — the O(1) bookkeeping path),
/// `shard.tick.one_dirty` (one session moved, one shard replanned), and
/// `shard.tick.all_dirty` (every session moved, every shard replanned).
/// The sharding win is the gap between the last two: the dirty-set batch
/// only pays for rooms that changed, so the one-dirty median sits an
/// order of magnitude under all-dirty at this N. Commands are applied
/// outside the spans — each row times `control_tick` alone.
pub fn shard_probe(tracer: &Tracer, pool: &Pool) {
    const REPS: usize = 9;
    let probe = tracer.root("bench.shard_probe");
    let cfg = BuildingConfig::paper(10, 10);
    let map = cfg.map();
    let cells = map.cells();
    probe.attr("cells", &cells.to_string());
    let registry = Registry::noop();
    let mut engine = BuildingEngine::new(&cfg, &registry);
    let quiet = Span::noop();
    let global = |cell: usize, lx: f64, ly: f64| {
        let (ox, oy) = map.origin(cell);
        (ox + lx, oy + ly)
    };
    for cell in 0..cells {
        let (x, y) = global(cell, 1.0, 1.0);
        let session = cell as u64;
        engine.apply(&Command::Arrive { session, x, y });
    }
    engine.control_tick(pool, &quiet);

    for rep in 0..REPS {
        let span = probe.child("shard.tick.steady");
        engine.control_tick(pool, &quiet);
        drop(span);

        // Alternate between two in-room poses so every rep's move really
        // changes the channel (no skipped replans inside the rows).
        let lx = if rep % 2 == 0 { 1.3 } else { 1.0 };
        let (x, y) = global(0, lx, 1.1);
        engine.apply(&Command::Move { session: 0, x, y });
        let span = probe.child("shard.tick.one_dirty");
        engine.control_tick(pool, &quiet);
        drop(span);

        for cell in 0..cells {
            let (x, y) = global(cell, lx, 1.2);
            let session = cell as u64;
            engine.apply(&Command::Move { session, x, y });
        }
        let span = probe.child("shard.tick.all_dirty");
        engine.control_tick(pool, &quiet);
        drop(span);
    }
}

/// Times the PHY fast path against its scalar reference under a
/// `bench.phy_probe` root. `phy.roundtrip.scalar` and
/// `phy.roundtrip.packed` each run the same per-frame cycle — frame encode
/// → Manchester chips → waveform render → mid-chip slice → Manchester
/// decode → Reed–Solomon frame decode, no channel noise so the workload is
/// deterministic — through the `Vec<Chip>` reference path and the
/// bit-packed zero-alloc path respectively. `phy.packed.encode`,
/// `phy.packed.decode`, and `phy.rs.block` isolate the packed Manchester
/// LUT encode, the word-wise decode, and a full t = 8 RS correction.
pub fn phy_probe(tracer: &Tracer) {
    const REPS: usize = 5;
    const FRAMES: usize = 16;
    let cfg = WaveformConfig::paper();
    let rs = ReedSolomon::paper();
    let header = FrameHeader {
        dst: 1,
        src: 0,
        protocol: 1,
    };
    let mut rng = StdRng::seed_from_u64(0x9A7);
    let payloads: Vec<Vec<u8>> = (0..FRAMES)
        .map(|_| (0..200).map(|_| rng.gen()).collect())
        .collect();
    let probe = tracer.root("bench.phy_probe");

    // Scalar reference: fresh Vec<Chip> streams and per-call RS buffers.
    for _ in 0..REPS {
        let span = probe.child("phy.roundtrip.scalar");
        let mut sink = 0usize;
        for payload in &payloads {
            let frame = Frame::new(u64::MAX, header, payload.clone());
            let bytes = frame.to_bytes(&rs);
            let chips = manchester_encode(&bytes);
            let n_samples = (chips.len() as f64 * cfg.samples_per_chip()).ceil() as usize;
            let wave = render(&chips, &cfg, 1.0, 0.0, n_samples);
            let sliced = slice_chips(&wave, &cfg, 0, chips.len()).expect("clean waveform");
            let decoded = manchester_decode(&sliced).expect("valid stream");
            let (out, _) = Frame::from_bytes(&decoded, &rs).expect("clean frame");
            sink += out.payload.len();
        }
        assert_eq!(sink, FRAMES * 200);
        drop(span);
    }

    // Packed fast path: reusable buffers, warmed before the timed reps so
    // the rows reflect the steady state the e2e pipeline runs in.
    let mut stack = RsStack::paper();
    let mut wire = Vec::new();
    let mut chips = PackedChips::new();
    let mut wave = Vec::new();
    let mut sliced = PackedChips::new();
    let mut rx_bytes = Vec::new();
    let mut payload_rx = Vec::new();
    let mut packed_cycle = |payload: &[u8]| -> usize {
        wire.clear();
        Frame::encode_parts_with(u64::MAX, &header, payload, &mut stack, &mut wire);
        chips.clear();
        chips.encode_bytes(&wire);
        let n_samples = (chips.len() as f64 * cfg.samples_per_chip()).ceil() as usize;
        render_packed_into(&chips, &cfg, 1.0, 0.0, n_samples, &mut wave);
        let outcome =
            slice_chips_packed_by(wave.len(), &cfg, 0, chips.len(), &mut sliced, |lo, hi| {
                wave[lo..hi].iter().sum::<f64>() >= 0.0
            });
        assert_eq!(outcome, Sliced::Whole);
        assert!(sliced.decode_bytes_into(&mut rx_bytes));
        Frame::decode_parts_with(&rx_bytes, &mut stack, &mut payload_rx).expect("clean frame");
        payload_rx.len()
    };
    packed_cycle(&payloads[0]);
    for _ in 0..REPS {
        let span = probe.child("phy.roundtrip.packed");
        let mut sink = 0usize;
        for payload in &payloads {
            sink += packed_cycle(payload);
        }
        assert_eq!(sink, FRAMES * 200);
        drop(span);
    }

    // Isolated packed Manchester encode and decode.
    for _ in 0..REPS {
        let span = probe.child("phy.packed.encode");
        for payload in &payloads {
            chips.clear();
            chips.encode_bytes(payload);
        }
        drop(span);
    }
    chips.clear();
    chips.encode_bytes(&payloads[0]);
    for _ in 0..REPS {
        let span = probe.child("phy.packed.decode");
        for _ in 0..FRAMES {
            assert!(chips.decode_bytes_into(&mut rx_bytes));
        }
        drop(span);
    }

    // A full Reed–Solomon block correction at capacity (t = 8 errors).
    let mut codec = RsCodec::paper();
    let mut coded = Vec::new();
    let block_payload = &payloads[0];
    for _ in 0..REPS {
        let span = probe.child("phy.rs.block");
        for f in 0..FRAMES {
            coded.clear();
            codec.encode_into(block_payload, &mut coded);
            for e in 0..codec.correction_capacity() {
                let pos = (f * 31 + e * 17) % coded.len();
                coded[pos] ^= 0x5a;
            }
            codec.decode_in_place(&mut coded).expect("correctable");
        }
        drop(span);
    }
}

//! Beamspot handover: a session crossing a room boundary must end up in
//! the destination shard with a plan identical to a cold re-solve there
//! (heuristic policy — planning is a pure function of the channel), and
//! must seed the destination's solver under the optimal policy
//! (`alloc.optimal.warm_starts`) without ever landing below the cold
//! objective.

use vlc_alloc::model::SystemModel;
use vlc_alloc::OptimalSolver;
use vlc_cell::{BuildingConfig, BuildingEngine, Command, ReplanPolicy};
use vlc_channel::ChannelMatrix;
use vlc_geom::Pose;
use vlc_mac::controller::{Controller, ControllerConfig};
use vlc_par::Pool;
use vlc_telemetry::Registry;
use vlc_trace::{Probe, Span};

/// 1×2 building; session 7 starts in cell 0 and walks into cell 1 where
/// session 9 already lives.
fn run(policy: ReplanPolicy) -> (BuildingEngine, Registry) {
    let mut cfg = BuildingConfig::paper(2, 1);
    cfg.policy = policy;
    cfg.record_timelines = true;
    let registry = Registry::new();
    let mut engine = BuildingEngine::new(&cfg, &registry);
    let pool = Pool::sequential();
    let commands: Vec<Vec<Command>> = vec![
        vec![
            Command::Arrive {
                session: 7,
                x: 2.5,
                y: 1.5,
            },
            Command::Arrive {
                session: 9,
                x: 4.0,
                y: 1.2,
            },
        ],
        vec![Command::Move {
            session: 7,
            x: 2.9,
            y: 1.5,
        }],
        // The handover tick: session 7 crosses the x = 3 m room boundary.
        vec![Command::Move {
            session: 7,
            x: 3.6,
            y: 1.4,
        }],
        vec![],
    ];
    for bucket in commands {
        for cmd in &bucket {
            engine.apply(cmd);
        }
        engine.control_tick(&pool, &Span::noop());
    }
    (engine, registry)
}

/// The destination cell's deployment after the handover, built from
/// scratch (the cold path): occupants in shard order, local poses.
fn destination_model(cfg: &BuildingConfig) -> SystemModel {
    let map = cfg.map();
    let poses: Vec<Pose> = [(4.0, 1.2), (3.6, 1.4)]
        .iter()
        .map(|&(x, y)| {
            let (lx, ly) = map.to_local(1, x, y);
            Pose::face_up(lx, ly, cfg.rx_height)
        })
        .collect();
    let channel = ChannelMatrix::compute(
        &cfg.grid,
        &poses,
        cfg.half_power_semi_angle,
        &cfg.optics,
        &[],
        Probe::off(),
    );
    let mut model = SystemModel::paper(channel);
    model.noise = cfg.noise;
    model
}

#[test]
fn migrated_session_lands_in_the_destination_shard() {
    let (engine, registry) = run(ReplanPolicy::Heuristic);
    assert_eq!(engine.locate(7), Some(1));
    assert_eq!(engine.shard(0).sessions(), &[] as &[u64]);
    assert_eq!(engine.shard(1).sessions(), &[9, 7]);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("cell.handovers"), Some(1));
    // Source replanned to empty, destination replanned with the migrant.
    assert!(engine
        .shard(0)
        .timeline()
        .last()
        .unwrap()
        .sessions
        .is_empty());
}

#[test]
fn handover_timeline_matches_a_cold_resolve_in_the_destination() {
    let (engine, _registry) = run(ReplanPolicy::Heuristic);
    let cfg = BuildingConfig::paper(2, 1);
    let model = destination_model(&cfg);
    let controller = Controller::new(ControllerConfig::paper(cfg.budget_w), model.n_tx(), 2);
    let plan = controller.plan(&model.channel, Probe::off());
    let cold_bps = model.throughput(&plan.allocation);

    let dest = engine.shard(1);
    let last = dest.timeline().last().expect("dest replanned");
    assert!(last.replanned);
    assert_eq!(last.sessions, vec![9, 7]);
    assert_eq!(
        last.bps, cold_bps,
        "handover plan differs from cold re-solve"
    );
    assert_eq!(
        engine.shard(1).allocation().expect("dest has a plan"),
        &plan.allocation,
        "handover allocation differs from cold re-solve"
    );
}

#[test]
fn optimal_policy_warm_starts_the_destination_solver() {
    let (engine, registry) = run(ReplanPolicy::Optimal(OptimalSolver::quick()));
    let snap = registry.snapshot();
    assert_eq!(snap.counter("cell.handovers"), Some(1));
    // Exactly two seeded solves happen: cell 0's tick-1 in-room move
    // (continuity from its own previous plan) and cell 1's handover tick
    // (seeded by the imported column). The tick-0 cold solves and cell
    // 0's emptying on the handover tick contribute none — so == 2 pins
    // the handover solve itself as warm-started.
    let warm_starts = snap.counter("alloc.optimal.warm_starts").unwrap_or(0);
    assert_eq!(
        warm_starts, 2,
        "handover did not seed the destination solver"
    );

    // The warm solve explores the cold start set *plus* the carried seed,
    // with the max-reduction keeping the best — it can never land below
    // the cold objective.
    let cfg = BuildingConfig::paper(2, 1);
    let model = destination_model(&cfg);
    let cold =
        OptimalSolver::quick().solve(&model, cfg.budget_w, None, &Pool::from_env(), Probe::off());
    let dest = engine.shard(1);
    let warm_alloc = dest.allocation().expect("dest has a plan");
    let warm_objective = model.sum_log_throughput(warm_alloc);
    assert!(
        warm_objective >= cold.objective - 1e-9,
        "warm objective {warm_objective} below cold {}",
        cold.objective
    );
}

#[test]
fn unusable_commands_are_ignored_and_counted() {
    let cfg = BuildingConfig::paper(2, 1);
    let registry = Registry::new();
    let mut engine = BuildingEngine::new(&cfg, &registry);
    let pool = Pool::sequential();
    engine.apply(&Command::Arrive {
        session: 7,
        x: 2.5,
        y: 1.5,
    });
    engine.control_tick(&pool, &Span::noop());
    let rosters = |e: &BuildingEngine| {
        (
            e.shard(0).sessions().to_vec(),
            e.shard(1).sessions().to_vec(),
        )
    };
    let before = rosters(&engine);
    for cmd in [
        Command::Arrive {
            session: 9,
            x: f64::NAN,
            y: 1.0,
        },
        Command::Move {
            session: 7,
            x: 1.0,
            y: f64::NAN,
        },
        Command::Arrive {
            session: 7,
            x: 4.0,
            y: 1.0,
        },
    ] {
        engine.apply(&cmd);
    }
    let report = engine.control_tick(&pool, &Span::noop());
    assert_eq!(rosters(&engine), before);
    assert_eq!(engine.locate(7), Some(0));
    assert_eq!(engine.locate(9), None);
    assert!(report.system_bps.is_finite());
    assert!(engine.system_bps().is_finite());
    assert_eq!(
        registry.snapshot().counter("cell.commands_ignored"),
        Some(3)
    );
}

/// Channel work follows what changed: on a warmed building, each touched
/// room still replans, but an in-room move re-sounds one column, a
/// handover re-sounds only the migrant's new column in the destination,
/// and a departure re-sounds nothing.
#[test]
fn replan_work_follows_what_changed() {
    let cfg = BuildingConfig::paper(2, 1);
    let registry = Registry::new();
    let mut engine = BuildingEngine::new(&cfg, &registry);
    let pool = Pool::sequential();
    let arrivals = [(1, 0.5, 0.5), (2, 1.5, 2.2), (3, 2.4, 1.0), (4, 3.8, 1.4)];
    let arrivals = arrivals.into_iter().chain([(5, 5.1, 2.5), (6, 4.4, 0.4)]);
    for (session, x, y) in arrivals {
        engine.apply(&Command::Arrive { session, x, y });
    }
    engine.control_tick(&pool, &Span::noop());
    engine.control_tick(&pool, &Span::noop());

    let counts = || {
        let snap = registry.snapshot();
        let get = |name| snap.counter(name).unwrap_or(0);
        (
            get("channel.cache.miss"),
            get("cell.replans"),
            get("cell.plan.hits"),
        )
    };
    let mut tick = |cmd: Command| {
        let before = counts();
        engine.apply(&cmd);
        engine.control_tick(&pool, &Span::noop());
        let after = counts();
        (after.0 - before.0, after.1 - before.1, after.2 - before.2)
    };

    // (misses, replans, plan hits) added by one tick.
    let in_room = tick(Command::Move {
        session: 2,
        x: 1.0,
        y: 2.0,
    });
    assert_eq!(in_room, (1, 1, 0), "in-room move");
    // Both rooms replan. The destination must sound the migrant's new
    // column, so one miss in total leaves none for the source.
    let handover = tick(Command::Move {
        session: 3,
        x: 3.5,
        y: 1.0,
    });
    assert_eq!(handover, (1, 2, 0), "cross-room move");
    let leave = tick(Command::Leave { session: 5 });
    assert_eq!(leave, (0, 1, 0), "departure");
    assert_eq!(engine.locate(3), Some(1));
}

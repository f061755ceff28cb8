//! The workload generator: seeded, and producing schedules the runner's
//! checks can rely on.

use std::collections::{HashMap, HashSet};

use densevlc_benchmark::frames::ROWS;
use densevlc_benchmark::gen::{
    room_of, schedule, BuildingSpec, Schedule, Workload, OPTIMAL_PER_ROOM,
};
use densevlc_benchmark::MIN_STEPS;
use vlc_cell::{BuildingConfig, BuildingMap, Command};

fn building_specs() -> Vec<(Workload, BuildingSpec)> {
    Workload::ALL
        .into_iter()
        .flat_map(|w| [w.building(true), w.building(false)].map(|s| s.map(|s| (w, s))))
        .flatten()
        .collect()
}

fn map_of(spec: &BuildingSpec) -> BuildingMap {
    BuildingConfig::paper(spec.cols, spec.rows).map()
}

#[test]
fn a_seed_fixes_the_schedule_and_seeds_differ() {
    for (w, spec) in building_specs() {
        let map = map_of(&spec);
        let a = schedule(&spec, &map, 42);
        assert_eq!(a, schedule(&spec, &map, 42), "{}", w.name());
        assert_ne!(a, schedule(&spec, &map, 43), "{}", w.name());
    }
}

#[test]
fn full_size_rounds_have_enough_steps_for_p95() {
    for w in Workload::ALL {
        let steps = match (w.building(false), w.frames(false)) {
            (Some(spec), _) => spec.ticks,
            (_, Some(spec)) => ROWS.len() * spec.batches,
            _ => unreachable!("every workload has a shape"),
        };
        assert!(steps >= MIN_STEPS, "{}: {steps} steps per round", w.name());
    }
}

/// Every session arrives before it moves or leaves, gets at most one
/// command per tick, and stays inside the building.
fn assert_well_formed(name: &str, map: &BuildingMap, s: &Schedule) {
    let mut live = HashSet::new();
    let batches = std::iter::once(&s.prepopulate).chain(&s.ticks);
    for (t, batch) in batches.enumerate() {
        let mut seen = HashSet::new();
        for cmd in batch {
            let (session, pos) = match *cmd {
                Command::Arrive { session, x, y } => {
                    assert!(
                        live.insert(session),
                        "{name}: tick {t}: {session} arrives twice"
                    );
                    (session, Some((x, y)))
                }
                Command::Move { session, x, y } => {
                    assert!(
                        live.contains(&session),
                        "{name}: tick {t}: {session} moves unborn"
                    );
                    (session, Some((x, y)))
                }
                Command::Leave { session } => {
                    assert!(
                        live.remove(&session),
                        "{name}: tick {t}: {session} leaves unborn"
                    );
                    (session, None)
                }
            };
            assert!(
                seen.insert(session),
                "{name}: tick {t}: two commands for {session}"
            );
            if let Some((x, y)) = pos {
                assert!(x > 0.0 && x < map.width() && y > 0.0 && y < map.depth());
            }
        }
    }
}

#[test]
fn schedules_are_well_formed() {
    for (w, spec) in building_specs() {
        let map = map_of(&spec);
        assert_well_formed(w.name(), &map, &schedule(&spec, &map, 7));
    }
}

#[test]
fn building_optimal_never_exceeds_four_sessions_in_a_room() {
    for smoke in [true, false] {
        let spec = Workload::BuildingOptimal
            .building(smoke)
            .expect("building workload");
        let map = map_of(&spec);
        for seed in [42, 1, 2, 3] {
            let s = schedule(&spec, &map, seed);
            let mut room = HashMap::new();
            let batches = std::iter::once(&s.prepopulate).chain(&s.ticks);
            for (t, batch) in batches.enumerate() {
                for cmd in batch {
                    if let Command::Arrive { session, x, y } | Command::Move { session, x, y } =
                        *cmd
                    {
                        room.insert(session, room_of(&map, x, y));
                    }
                }
                let mut occupancy = vec![0; map.cells()];
                for &r in room.values() {
                    occupancy[r] += 1;
                }
                assert!(
                    occupancy.iter().all(|&n| n == OPTIMAL_PER_ROOM),
                    "seed {seed} tick {t}: occupancy {occupancy:?}"
                );
            }
        }
    }
}

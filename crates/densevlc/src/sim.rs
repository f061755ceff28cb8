//! A wall-clock simulation engine over the whole system.
//!
//! The experiment drivers each isolate one effect; this engine composes
//! them: receivers ride ACRO-style waypoint paths, people (cylinder
//! occluders) wander through the room, the lighting can be dimmed, and the
//! controller re-plans at the cadence its adaptation-round timeline allows.
//! Between rounds the beamspot plan is stale — exactly like the real
//! deployment. The engine advances in fixed ticks and records a
//! [`Timeline`] of per-tick system state for analysis or plotting.

use serde::{Deserialize, Serialize};
use vlc_alloc::model::SystemModel;
use vlc_channel::{ChannelMatrix, ChannelUpdater, CylinderBlocker};
use vlc_geom::Pose;
use vlc_mac::{BeamspotPlan, Controller, ControllerConfig};
use vlc_obs::{ObsPlane, TickSample};
use vlc_telemetry::{MetricsSnapshot, Registry};
use vlc_testbed::{AcroPositioner, Deployment};
use vlc_trace::{Probe, Span};

/// A person walking waypoints while occluding light.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalkingPerson {
    /// The gantry-like waypoint follower carrying the occluder.
    pub mover: AcroPositioner,
}

impl WalkingPerson {
    /// The occluder at the person's current position.
    pub fn blocker(&self) -> CylinderBlocker {
        CylinderBlocker::person(self.mover.position.x, self.mover.position.y)
    }
}

/// One recorded tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tick {
    /// Simulation time in seconds.
    pub t_s: f64,
    /// Per-receiver throughput under the (possibly stale) plan, bit/s.
    pub per_rx_bps: Vec<f64>,
    /// Whether the controller re-planned on this tick.
    pub replanned: bool,
    /// Number of LOS links currently blocked by people.
    pub blocked_links: usize,
}

/// The recorded simulation output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// All ticks in time order.
    pub ticks: Vec<Tick>,
    /// Telemetry snapshot taken at the end of the run, when the run was
    /// driven through [`Simulation::run`] with a live
    /// registry. `None` for uninstrumented runs.
    pub telemetry: Option<MetricsSnapshot>,
}

impl Timeline {
    /// Mean system throughput over the run, bit/s.
    pub fn mean_system_bps(&self) -> f64 {
        if self.ticks.is_empty() {
            return 0.0;
        }
        self.ticks
            .iter()
            .map(|t| t.per_rx_bps.iter().sum::<f64>())
            .sum::<f64>()
            / self.ticks.len() as f64
    }

    /// Fraction of (tick, receiver) samples with zero throughput — outage.
    pub fn outage_fraction(&self) -> f64 {
        let mut total = 0usize;
        let mut out = 0usize;
        for tick in &self.ticks {
            for &t in &tick.per_rx_bps {
                total += 1;
                if t <= 0.0 {
                    out += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            out as f64 / total as f64
        }
    }

    /// Number of re-planning events.
    pub fn replans(&self) -> usize {
        self.ticks.iter().filter(|t| t.replanned).count()
    }
}

/// The composable simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Simulation {
    /// The physical deployment (mutated as things move).
    pub deployment: Deployment,
    /// The controller.
    pub controller: Controller,
    /// Receiver waypoint movers (same length/order as the receivers).
    pub rx_movers: Vec<AcroPositioner>,
    /// People wandering the room.
    pub people: Vec<WalkingPerson>,
    /// Seconds between adaptation rounds (from the round timeline).
    pub adaptation_period_s: f64,
    /// Simulation tick in seconds.
    pub tick_s: f64,
    time_since_replan_s: f64,
    plan: Option<BeamspotPlan>,
}

impl Simulation {
    /// Builds a simulation over a deployment; receivers start static.
    pub fn new(deployment: Deployment, budget_w: f64, adaptation_period_s: f64) -> Self {
        assert!(
            adaptation_period_s > 0.0,
            "adaptation period must be positive"
        );
        let n_tx = deployment.grid.len();
        let n_rx = deployment.receivers.len();
        let room = deployment.room;
        let rx_movers = deployment
            .receivers
            .iter()
            .map(|p| AcroPositioner::new(p.position, 0.5, room))
            .collect();
        Simulation {
            controller: Controller::new(ControllerConfig::paper(budget_w), n_tx, n_rx),
            deployment,
            rx_movers,
            people: Vec::new(),
            adaptation_period_s,
            tick_s: 0.1,
            time_since_replan_s: f64::INFINITY, // re-plan on the first tick
            plan: None,
        }
    }

    /// Adds a walking person at a start position with queued waypoints.
    pub fn add_person(&mut self, x: f64, y: f64, speed_mps: f64, waypoints: &[(f64, f64)]) {
        let mut mover = AcroPositioner::new(
            vlc_geom::Vec3::new(x, y, 0.0),
            speed_mps,
            self.deployment.room,
        );
        for &(wx, wy) in waypoints {
            mover.queue(vlc_geom::Vec3::new(wx, wy, 0.0));
        }
        self.people.push(WalkingPerson { mover });
    }

    /// Queues a waypoint for receiver `rx`.
    pub fn send_receiver(&mut self, rx: usize, x: f64, y: f64) {
        assert!(rx < self.rx_movers.len(), "unknown receiver {rx}");
        self.rx_movers[rx].queue(vlc_geom::Vec3::new(x, y, 0.0));
    }

    /// Applies the occluders to a *same-tick* clear channel: returns the
    /// masked matrix plus the number of links the occluders removed (gain
    /// positive in `clear`, zero after masking). Taking the clear channel
    /// as an argument makes the same-tick contract explicit — diffing
    /// against a stale stored channel would double-count a receiver that
    /// moved under a blocker between replans.
    fn masked_channel(
        &self,
        clear: &ChannelMatrix,
        blockers: &[CylinderBlocker],
    ) -> (ChannelMatrix, usize) {
        let channel = ChannelMatrix::compute(
            &self.deployment.grid,
            &self.deployment.receivers,
            self.deployment.half_power_semi_angle,
            &self.deployment.optics,
            blockers,
            Probe::off(),
        );
        let blocked = clear
            .iter()
            .filter(|&(t, r, g)| g > 0.0 && channel.gain(t, r) == 0.0)
            .count();
        (channel, blocked)
    }

    /// Runs for `duration_s`, returning the recorded timeline.
    ///
    /// This is the **incremental engine**: channel columns are recomputed
    /// only for receivers that moved (or when blockage geometry changed)
    /// and the controller re-plans only when the channel actually changed
    /// since its last plan. The output is bitwise identical to
    /// [`Self::run_cold`] — the incremental layers reproduce the cold
    /// values exactly (see `tests/sim_incremental.rs`) — just faster.
    ///
    /// With `obs`, the run streams into an observability plane: the
    /// plane's meta record is written up front, every tick feeds it a
    /// [`TickSample`] (adding per-receiver SINR next to the throughput the
    /// timeline already carries), and window snapshots / SLO evaluation /
    /// event forwarding happen on the plane's flush cadence. The plane
    /// only *reads* — the returned [`Timeline`] is byte-identical to the
    /// unobserved run's (enforced by `tests/obs_stream.rs`). The caller
    /// finishes the stream with [`ObsPlane::finish`] after the run, once
    /// it knows the tracer's span-ring drop count.
    ///
    /// Telemetry into `probe.telemetry`: every tick is timed under
    /// `sim.tick_s` and counted into `sim.ticks`; re-plans (forwarded
    /// through the controller's instrumented phases) count into
    /// `mac.replans` and the ticks spent serving traffic on a stale plan
    /// into `mac.stale_plan_ticks`; the incremental engine adds
    /// `channel.cache.hit/partial/miss` and `mac.plan.cache_hits/misses`
    /// (rounds that kept the stored plan because the channel was unchanged
    /// since the last plan, and rounds that re-planned);
    /// `sim.blocked_links` and the per-receiver `sim.rx{i}.bps` gauges
    /// track the latest tick. With a live registry the returned
    /// [`Timeline`] embeds the end-of-run snapshot.
    ///
    /// Tracing: a `sim.run` span under `probe.span`, with one `sim.tick`
    /// child per tick (indexed by step), the incremental engine's
    /// `channel.update` tree inside each tick, and the controller's
    /// `mac.plan` tree (or, for a kept plan, a `mac.plan.cached` span)
    /// nested inside re-planning ticks. With no plane and [`Probe::off()`]
    /// this is the bare engine plus one branch per recording site.
    pub fn run(
        &mut self,
        duration_s: f64,
        obs: Option<&mut ObsPlane>,
        probe: Probe<'_>,
    ) -> Timeline {
        self.run_engine(duration_s, probe.telemetry, probe.span, true, obs)
    }

    /// [`Self::run`] on the cold engine: rebuild the full channel matrix
    /// and re-plan from scratch every tick, like the pre-incremental code,
    /// with the telemetry of [`Self::run`]. Kept as the reference the
    /// incremental engine is verified against.
    pub fn run_cold(&mut self, duration_s: f64, telemetry: &Registry) -> Timeline {
        self.run_engine(duration_s, telemetry, &Span::noop(), false, None)
    }

    /// The tick loop behind both engines. `incremental` selects the warm
    /// path (dirty-column channel updates, and a round keeps the stored
    /// plan while the updater reports the channel unchanged); the recorded
    /// [`Timeline`] and the end-of-run deployment state are identical
    /// either way. Panics unless `duration_s` and `tick_s` are finite and
    /// positive.
    fn run_engine(
        &mut self,
        duration_s: f64,
        telemetry: &Registry,
        parent: &Span,
        incremental: bool,
        mut obs: Option<&mut ObsPlane>,
    ) -> Timeline {
        assert!(
            duration_s.is_finite() && duration_s > 0.0,
            "duration must be finite and positive"
        );
        assert!(
            self.tick_s.is_finite() && self.tick_s > 0.0,
            "tick must be finite and positive"
        );
        if let Some(plane) = obs.as_deref_mut() {
            plane.begin(self.tick_s, self.deployment.receivers.len());
        }
        let run = parent.child("sim.run");
        run.attr("duration_s", &format!("{duration_s}"));
        run.attr("engine", if incremental { "incremental" } else { "cold" });
        let steps = (duration_s / self.tick_s).ceil() as usize;
        // Grown as the ticks run: `steps` can be far more than memory holds.
        let mut ticks = Vec::new();
        // Run-local engine state: one exact channel updater (any movement
        // recomputes its column) and whether the channel changed since
        // this run last planned. Kept off the struct so serialized
        // simulations and replays stay unaffected; `stale` starts set so
        // every run plans afresh on its first round.
        let mut updater = ChannelUpdater::new(
            &self.deployment.grid,
            self.deployment.half_power_semi_angle,
            &self.deployment.optics,
        );
        let mut stale = true;
        let mut world: SystemModel = self.deployment.model.clone();
        for step in 0..steps {
            let tick_trace = run.child_indexed("sim.tick", step);
            let _tick_span = telemetry.span("sim.tick_s");
            telemetry.counter("sim.ticks").inc();
            let t_s = step as f64 * self.tick_s;
            // Motion.
            let height = self.deployment.receivers[0].position.z;
            let positions: Vec<Pose> = self
                .rx_movers
                .iter_mut()
                .map(|m| {
                    let p = m.advance(self.tick_s);
                    Pose::face_up(p.x, p.y, height)
                })
                .collect();
            for person in &mut self.people {
                person.mover.advance(self.tick_s);
            }
            let blockers: Vec<CylinderBlocker> =
                self.people.iter().map(WalkingPerson::blocker).collect();

            // The channel the world currently presents (with occluders).
            let blocked_links = if incremental {
                let update = updater.update(
                    &positions,
                    &blockers,
                    &mut world.channel,
                    Probe {
                        telemetry,
                        span: &tick_trace,
                    },
                );
                stale |= update.changed;
                self.deployment.receivers = positions;
                self.deployment.model.channel = updater.clear_channel().clone();
                update.blocked_links
            } else {
                self.deployment.update_receivers(positions);
                // `update_receivers` just recomputed the clear channel, so
                // the stored one is same-tick by construction here.
                let (channel, blocked_links) =
                    self.masked_channel(&self.deployment.model.channel, &blockers);
                world.channel = channel;
                blocked_links
            };

            // Re-plan when the adaptation round allows.
            self.time_since_replan_s += self.tick_s;
            let mut replanned = false;
            if self.time_since_replan_s >= self.adaptation_period_s || self.plan.is_none() {
                match &self.plan {
                    // Planning is a pure function of the channel, so an
                    // unchanged channel keeps the stored plan.
                    Some(plan) if incremental && !stale => {
                        telemetry.counter("mac.plan.cache_hits").inc();
                        let span = tick_trace.child("mac.plan.cached");
                        if span.is_enabled() {
                            span.attr("beamspots", &plan.beamspots().len().to_string());
                        }
                    }
                    _ => {
                        if incremental {
                            telemetry.counter("mac.plan.cache_misses").inc();
                            stale = false;
                        }
                        self.plan = Some(self.controller.plan(
                            &world.channel,
                            Probe {
                                telemetry,
                                span: &tick_trace,
                            },
                        ));
                    }
                }
                self.time_since_replan_s = 0.0;
                replanned = true;
                telemetry.counter("mac.replans").inc();
            } else {
                telemetry.counter("mac.stale_plan_ticks").inc();
            }
            telemetry
                .gauge("sim.blocked_links")
                .set(blocked_links as f64);
            let plan = self.plan.as_ref().expect("plan exists after first tick");
            let per_rx_bps = world.throughput(&plan.allocation);
            for (i, &bps) in per_rx_bps.iter().enumerate() {
                telemetry.gauge(&format!("sim.rx{i}.bps")).set(bps);
            }
            if let Some(plane) = obs.as_deref_mut() {
                // SINR is computed only on the observed path: the plane
                // reads the world, never writes it, so the Timeline stays
                // byte-identical to the unobserved run.
                plane.observe_tick(
                    &TickSample {
                        tick: step as u64,
                        t_s,
                        per_rx_bps: per_rx_bps.clone(),
                        per_rx_sinr: world.sinr(&plan.allocation),
                        blocked_links: blocked_links as u64,
                        replanned,
                    },
                    telemetry,
                );
            }
            ticks.push(Tick {
                t_s,
                per_rx_bps,
                replanned,
                blocked_links,
            });
        }
        Timeline {
            ticks,
            telemetry: telemetry.is_enabled().then(|| telemetry.snapshot()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlc_testbed::Scenario;

    fn sim() -> Simulation {
        Simulation::new(Deployment::scenario(Scenario::Two), 1.2, 0.2)
    }

    #[test]
    fn static_world_is_stable() {
        let mut s = sim();
        let tl = s.run(2.0, None, Probe::off());
        assert_eq!(tl.ticks.len(), 20);
        assert_eq!(tl.outage_fraction(), 0.0);
        // Throughput identical across ticks (nothing moved).
        let first: f64 = tl.ticks[0].per_rx_bps.iter().sum();
        for t in &tl.ticks {
            let now: f64 = t.per_rx_bps.iter().sum();
            assert!(
                (now - first).abs() < 1.0,
                "throughput drifted in a static world"
            );
        }
    }

    #[test]
    fn replanning_happens_at_the_configured_cadence() {
        let mut s = sim();
        let tl = s.run(2.0, None, Probe::off());
        // 0.2 s period over 2 s of 0.1 s ticks → ~10 replans.
        assert!((9..=11).contains(&tl.replans()), "{} replans", tl.replans());
    }

    #[test]
    fn moving_receiver_keeps_service() {
        let mut s = sim();
        s.send_receiver(0, 2.4, 2.4);
        let tl = s.run(6.0, None, Probe::off());
        // RX1 ends up crowding RX4's corner; the greedy heuristic (the
        // paper's Algorithm 1) can transiently leave a crowded receiver
        // uncovered in its budgeted prefix, so a few percent of outage
        // samples are expected — but no more.
        assert!(
            tl.outage_fraction() < 0.05,
            "outage fraction {}",
            tl.outage_fraction()
        );
        assert!(tl.mean_system_bps() > 1e6);
    }

    #[test]
    fn person_standing_on_a_receiver_shadows_it_completely() {
        // A floor-level receiver inside a person's footprint loses *every*
        // LOS ray — physically correct total shadowing.
        let mut s = sim();
        s.add_person(0.92, 0.92, 0.5, &[]);
        let tl = s.run(0.5, None, Probe::off());
        assert!(
            tl.ticks.iter().all(|t| t.blocked_links > 0),
            "occluder blocked nothing"
        );
        let rx1_mean: f64 =
            tl.ticks.iter().map(|t| t.per_rx_bps[0]).sum::<f64>() / tl.ticks.len() as f64;
        assert_eq!(rx1_mean, 0.0, "total shadow should silence RX1");
    }

    #[test]
    fn person_nearby_is_routed_around() {
        // A person standing 0.4 m to the side shadows part of RX1's sky;
        // the controller re-plans onto unblocked TXs and keeps RX1 served.
        let mut s = sim();
        s.add_person(1.32, 0.92, 0.5, &[]);
        let tl = s.run(1.0, None, Probe::off());
        assert!(
            tl.ticks.iter().all(|t| t.blocked_links > 0),
            "occluder blocked nothing"
        );
        let rx1_mean: f64 =
            tl.ticks.iter().map(|t| t.per_rx_bps[0]).sum::<f64>() / tl.ticks.len() as f64;
        assert!(rx1_mean > 0.0, "blockage killed RX1 despite re-planning");
    }

    #[test]
    fn stale_plans_underperform_fresh_ones() {
        let mut fresh = sim();
        fresh.adaptation_period_s = 0.1;
        fresh.send_receiver(0, 2.4, 0.9);
        let tl_fresh = fresh.run(5.0, None, Probe::off());

        let mut stale = sim();
        stale.adaptation_period_s = 1e9; // never re-plan after the first
        stale.send_receiver(0, 2.4, 0.9);
        let tl_stale = stale.run(5.0, None, Probe::off());

        let rx1 = |tl: &Timeline| {
            tl.ticks.iter().map(|t| t.per_rx_bps[0]).sum::<f64>() / tl.ticks.len() as f64
        };
        assert!(
            rx1(&tl_fresh) > rx1(&tl_stale),
            "fresh {} !> stale {}",
            rx1(&tl_fresh),
            rx1(&tl_stale)
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_duration_panics() {
        sim().run(0.0, None, Probe::off());
    }

    #[test]
    fn non_finite_duration_panics_before_the_stream_begins() {
        let mem = vlc_obs::MemorySink::new();
        let mut plane = ObsPlane::new(Box::new(mem.clone()), vlc_obs::ObsConfig::default());
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim().run(f64::INFINITY, Some(&mut plane), Probe::off())
        }));
        assert!(run.is_err());
        assert!(
            mem.lines().is_empty(),
            "meta record written: {:?}",
            mem.lines()
        );
    }
}

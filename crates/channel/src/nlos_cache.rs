//! TX-side cache for the single-bounce (NLOS) quadratures.
//!
//! Ceiling transmitters never move, so the source→patch leg of the
//! [`crate::nlos`] integrals — `(m+1)/(2π·d1²)·cosᵐ(φ1)·cos(ψ1)·ρ` per
//! floor/wall patch — is a pure function of the TX pose and the room.
//! [`NlosTxCache`] precomputes that leg once per (TX, room, patch grid) and
//! reuses it for every receiver, tick, and experiment, leaving only the
//! patch→RX leg to evaluate per call. That halves the per-pair quadrature
//! work and amortizes the TX leg across all followers of a leader.
//!
//! **Determinism contract:** the cached entry points keep the direct path's
//! summation structure exactly — one partial sum per floor row / wall
//! column, partials added in row/column order — and the split integrand
//! `tx_leg · rx_leg` is the fused `(first_leg · ρ) · second_leg` product
//! re-associated nowhere, so [`NlosTxCache::floor_gain`] and
//! [`NlosTxCache::wall_gain`] are **bitwise identical** to
//! [`crate::nlos::floor_bounce_gain`] / [`crate::nlos::wall_bounce_gain`]
//! for any worker count (property-tested in `tests/cache_identity.rs`).

use crate::lambertian::RxOptics;
use crate::nlos::{
    floor_grid, floor_patch_center, patch_rx_leg_profiled, patch_tx_leg, wall_columns,
    wall_patch_center, NlosConfig,
};
use crate::soa::LANE;
use std::sync::Arc;
use vlc_geom::{Pose, Room, Vec3};
use vlc_par::Pool;
use vlc_trace::Span;

/// Precomputed source→patch irradiance tables for one transmitter.
///
/// Build once per deployment (cheap: one tx-leg evaluation per patch),
/// share behind an [`Arc`] via [`NlosTxCache::shared`], then evaluate
/// per-receiver gains with [`NlosTxCache::floor_gain`] /
/// [`NlosTxCache::wall_gain`] at roughly half the direct cost.
#[derive(Debug, Clone)]
pub struct NlosTxCache {
    tx: Pose,
    room: Room,
    cfg: NlosConfig,
    /// Floor grid row count.
    ny: usize,
    /// Split patch x coordinates, `xs[ix] = (ix + 0.5)·patch`.
    xs: Vec<f64>,
    /// CSR row pointers into the floor live-patch lists (`ny + 1` entries).
    /// A patch is live iff its `tx_leg` is nonzero — the only patches that
    /// can contribute (skipping exact `+0.0` terms of a non-negative
    /// fixed-order sum is bitwise neutral).
    floor_row_ptr: Vec<usize>,
    /// `ix` of each live floor patch, ascending within a row.
    floor_live_idx: Vec<u32>,
    /// `tx_leg` (including reflectance) of each live floor patch.
    floor_live_leg: Vec<f64>,
    /// Wall column list (origin, axis, inward normal, iu) and patch rows.
    columns: Vec<(Vec3, Vec3, Vec3, usize)>,
    /// Split patch z coordinates, `zs[iz] = (iz + 0.5)·patch`.
    zs: Vec<f64>,
    /// CSR column pointers into the wall live-patch lists.
    wall_col_ptr: Vec<usize>,
    /// `iz` of each live wall patch, ascending within a column.
    wall_live_idx: Vec<u32>,
    /// `tx_leg` of each live wall patch.
    wall_live_leg: Vec<f64>,
}

impl NlosTxCache {
    /// Builds the tables for one TX, fanning the floor rows / wall columns
    /// out over `DENSEVLC_JOBS` workers.
    pub fn new(tx: &Pose, lambertian_m: f64, room: &Room, cfg: &NlosConfig) -> Self {
        Self::new_traced(
            tx,
            lambertian_m,
            room,
            cfg,
            &Pool::from_env(),
            &Span::noop(),
        )
    }

    /// [`Self::new`] on a caller-supplied pool, recording a
    /// `channel.nlos.cache_build` span under `parent` with one
    /// `channel.nlos.cache_build.row` child per floor row and one
    /// `channel.nlos.cache_build.col` child per wall column (both indexed,
    /// so the span tree is worker-count independent).
    pub fn new_traced(
        tx: &Pose,
        lambertian_m: f64,
        room: &Room,
        cfg: &NlosConfig,
        pool: &Pool,
        parent: &Span,
    ) -> Self {
        assert!(cfg.patch_size_m > 0.0, "patch size must be positive");
        let build = parent.child("channel.nlos.cache_build");
        let (nx, ny) = floor_grid(room, cfg);
        build.attr("rows", &ny.to_string());
        let floor_leg: Vec<f64> = pool
            .map_indexed(ny, |iy| {
                let _row = build.child_indexed("channel.nlos.cache_build.row", iy);
                (0..nx)
                    .map(|ix| {
                        let w = floor_patch_center(cfg, ix, iy);
                        patch_tx_leg(tx, w, Vec3::UP, lambertian_m, room.floor_reflectance)
                    })
                    .collect::<Vec<f64>>()
            })
            .into_iter()
            .flatten()
            .collect();
        let (columns, nz) = wall_columns(room, cfg);
        build.attr("cols", &columns.len().to_string());
        let wall_leg: Vec<f64> = pool
            .map_indexed(columns.len(), |c| {
                let _col = build.child_indexed("channel.nlos.cache_build.col", c);
                let (origin, axis, normal, iu) = columns[c];
                (0..nz)
                    .map(|iz| {
                        let w = wall_patch_center(cfg, origin, axis, iu, iz);
                        patch_tx_leg(tx, w, normal, lambertian_m, room.floor_reflectance)
                    })
                    .collect::<Vec<f64>>()
            })
            .into_iter()
            .flatten()
            .collect();
        // Compact the dense legs into CSR live-patch lists: the out-of-
        // half-space patches (exact +0.0 legs) drop out of every future
        // receiver sweep.
        let mut floor_row_ptr = Vec::with_capacity(ny + 1);
        let mut floor_live_idx = Vec::new();
        let mut floor_live_leg = Vec::new();
        floor_row_ptr.push(0);
        for iy in 0..ny {
            for ix in 0..nx {
                let leg = floor_leg[iy * nx + ix];
                if leg != 0.0 {
                    floor_live_idx.push(ix as u32);
                    floor_live_leg.push(leg);
                }
            }
            floor_row_ptr.push(floor_live_idx.len());
        }
        let mut wall_col_ptr = Vec::with_capacity(columns.len() + 1);
        let mut wall_live_idx = Vec::new();
        let mut wall_live_leg = Vec::new();
        wall_col_ptr.push(0);
        for c in 0..columns.len() {
            for iz in 0..nz {
                let leg = wall_leg[c * nz + iz];
                if leg != 0.0 {
                    wall_live_idx.push(iz as u32);
                    wall_live_leg.push(leg);
                }
            }
            wall_col_ptr.push(wall_live_idx.len());
        }
        let xs = (0..nx)
            .map(|ix| (ix as f64 + 0.5) * cfg.patch_size_m)
            .collect();
        let zs = (0..nz)
            .map(|iz| (iz as f64 + 0.5) * cfg.patch_size_m)
            .collect();
        NlosTxCache {
            tx: *tx,
            room: *room,
            cfg: *cfg,
            ny,
            xs,
            floor_row_ptr,
            floor_live_idx,
            floor_live_leg,
            columns,
            zs,
            wall_col_ptr,
            wall_live_idx,
            wall_live_leg,
        }
    }

    /// [`Self::new`] wrapped in an [`Arc`] for sharing across receivers,
    /// links, and threads.
    pub fn shared(tx: &Pose, lambertian_m: f64, room: &Room, cfg: &NlosConfig) -> Arc<Self> {
        Arc::new(Self::new(tx, lambertian_m, room, cfg))
    }

    /// The cached transmitter pose.
    pub fn tx(&self) -> &Pose {
        &self.tx
    }

    /// The room the tables were built for.
    pub fn room(&self) -> &Room {
        &self.room
    }

    /// The quadrature configuration the tables were built for.
    pub fn config(&self) -> &NlosConfig {
        &self.cfg
    }

    /// Floor-bounce gain toward `rx` — bitwise identical to
    /// [`crate::nlos::floor_bounce_gain`] for the cached TX.
    pub fn floor_gain(&self, rx: &Pose, optics: &RxOptics) -> f64 {
        self.floor_gain_traced(rx, optics, &Pool::from_env(), &Span::noop())
    }

    /// [`Self::floor_gain`] on a caller-supplied pool, recording a
    /// `channel.nlos.floor.cached` span under `parent` with one
    /// `channel.nlos.floor.cached.row` child per quadrature row.
    pub fn floor_gain_traced(
        &self,
        rx: &Pose,
        optics: &RxOptics,
        pool: &Pool,
        parent: &Span,
    ) -> f64 {
        let da = self.cfg.patch_size_m * self.cfg.patch_size_m;
        let profile = optics.profile();
        let floor = parent.child("channel.nlos.floor.cached");
        floor.attr("rows", &self.ny.to_string());
        let row_sums = pool.map_indexed(self.ny, |iy| {
            let _row = floor.child_indexed("channel.nlos.floor.cached.row", iy);
            let idx = &self.floor_live_idx[self.floor_row_ptr[iy]..self.floor_row_ptr[iy + 1]];
            let legs = &self.floor_live_leg[self.floor_row_ptr[iy]..self.floor_row_ptr[iy + 1]];
            let wy = (iy as f64 + 0.5) * self.cfg.patch_size_m;
            let mut row = 0.0;
            let mut lane = [0.0f64; LANE];
            let tail = idx.len() - idx.len() % LANE;
            for base in (0..tail).step_by(LANE) {
                for (l, slot) in lane.iter_mut().enumerate() {
                    let w = Vec3::new(self.xs[idx[base + l] as usize], wy, 0.0);
                    *slot = legs[base + l] * patch_rx_leg_profiled(rx, w, Vec3::UP, &profile);
                }
                // Lane results fold into the row strictly in patch order.
                for &contribution in &lane {
                    row += contribution;
                }
            }
            for (k, &ix) in idx.iter().enumerate().skip(tail) {
                let w = Vec3::new(self.xs[ix as usize], wy, 0.0);
                row += legs[k] * patch_rx_leg_profiled(rx, w, Vec3::UP, &profile);
            }
            row
        });
        row_sums.iter().sum::<f64>() * da
    }

    /// Wall-bounce gain toward `rx` — bitwise identical to
    /// [`crate::nlos::wall_bounce_gain`] for the cached TX.
    pub fn wall_gain(&self, rx: &Pose, optics: &RxOptics) -> f64 {
        self.wall_gain_traced(rx, optics, &Pool::from_env(), &Span::noop())
    }

    /// [`Self::wall_gain`] on a caller-supplied pool, recording a
    /// `channel.nlos.wall.cached` span under `parent` with one
    /// `channel.nlos.wall.cached.col` child per wall column.
    pub fn wall_gain_traced(
        &self,
        rx: &Pose,
        optics: &RxOptics,
        pool: &Pool,
        parent: &Span,
    ) -> f64 {
        let da = self.cfg.patch_size_m * self.cfg.patch_size_m;
        let profile = optics.profile();
        let wall = parent.child("channel.nlos.wall.cached");
        wall.attr("cols", &self.columns.len().to_string());
        let column_sums = pool.map_indexed(self.columns.len(), |c| {
            let _col = wall.child_indexed("channel.nlos.wall.cached.col", c);
            let (origin, axis, normal, iu) = self.columns[c];
            let idx = &self.wall_live_idx[self.wall_col_ptr[c]..self.wall_col_ptr[c + 1]];
            let legs = &self.wall_live_leg[self.wall_col_ptr[c]..self.wall_col_ptr[c + 1]];
            // `wall_patch_center` evaluates `(origin + axis·u) + Z·z`
            // left-associated; hoisting the column-constant first addend
            // changes nothing bitwise.
            let base_w = origin + axis * ((iu as f64 + 0.5) * self.cfg.patch_size_m);
            let mut col = 0.0;
            let mut lane = [0.0f64; LANE];
            let tail = idx.len() - idx.len() % LANE;
            for base in (0..tail).step_by(LANE) {
                for (l, slot) in lane.iter_mut().enumerate() {
                    let w = base_w + Vec3::Z * self.zs[idx[base + l] as usize];
                    *slot = legs[base + l] * patch_rx_leg_profiled(rx, w, normal, &profile);
                }
                for &contribution in &lane {
                    col += contribution;
                }
            }
            for (k, &iz) in idx.iter().enumerate().skip(tail) {
                let w = base_w + Vec3::Z * self.zs[iz as usize];
                col += legs[k] * patch_rx_leg_profiled(rx, w, normal, &profile);
            }
            col
        });
        column_sums.iter().sum::<f64>() * da
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lambertian::lambertian_order;
    use crate::nlos::{floor_bounce_gain, wall_bounce_gain};
    use vlc_geom::TxGrid;
    use vlc_par::Jobs;

    fn setup() -> (Room, f64, RxOptics) {
        (
            Room::paper_testbed(),
            lambertian_order(15f64.to_radians()),
            RxOptics::paper(),
        )
    }

    #[test]
    fn cached_floor_gain_is_bitwise_identical_to_direct() {
        let (room, m, optics) = setup();
        let grid = TxGrid::paper(&room);
        let cfg = NlosConfig::default();
        let cache = NlosTxCache::new(&grid.pose(1), m, &room, &cfg);
        for follower in [0usize, 2, 7, 35] {
            let rx = grid.pose(follower);
            let direct = floor_bounce_gain(&grid.pose(1), &rx, m, &optics, &room, &cfg);
            let cached = cache.floor_gain(&rx, &optics);
            assert_eq!(
                cached.to_bits(),
                direct.to_bits(),
                "follower {follower}: cached {cached:e} direct {direct:e}"
            );
        }
    }

    #[test]
    fn cached_wall_gain_is_bitwise_identical_to_direct() {
        let (room, m, optics) = setup();
        let grid = TxGrid::paper(&room);
        let cfg = NlosConfig { patch_size_m: 0.1 };
        let cache = NlosTxCache::new(&grid.pose(7), m, &room, &cfg);
        let rx = Pose::face_up(0.92, 0.92, 0.0);
        let direct = wall_bounce_gain(&grid.pose(7), &rx, m, &optics, &room, &cfg);
        let cached = cache.wall_gain(&rx, &optics);
        assert_eq!(cached.to_bits(), direct.to_bits());
        assert!(cached > 0.0);
    }

    #[test]
    fn cached_gains_are_bitwise_identical_for_any_worker_count() {
        let (room, m, optics) = setup();
        let grid = TxGrid::paper(&room);
        let cfg = NlosConfig::default();
        let cache = NlosTxCache::new(&grid.pose(1), m, &room, &cfg);
        let rx = grid.pose(2);
        let reference = cache.floor_gain_traced(&rx, &optics, &Pool::sequential(), &Span::noop());
        for jobs in [Jobs::of(2), Jobs::of(7), Jobs::max()] {
            let got = cache.floor_gain_traced(&rx, &optics, &Pool::new(jobs), &Span::noop());
            assert_eq!(got.to_bits(), reference.to_bits(), "jobs={jobs}");
        }
    }

    #[test]
    fn shared_cache_serves_multiple_followers() {
        let (room, m, optics) = setup();
        let grid = TxGrid::paper(&room);
        let cfg = NlosConfig::default();
        let cache = NlosTxCache::shared(&grid.pose(1), m, &room, &cfg);
        let near = cache.floor_gain(&grid.pose(2), &optics);
        let far = cache.floor_gain(&grid.pose(35), &optics);
        assert!(near > far, "near {near:e} !> far {far:e}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_patch_size_panics() {
        let (room, m, _) = setup();
        let grid = TxGrid::paper(&room);
        NlosTxCache::new(&grid.pose(0), m, &room, &NlosConfig { patch_size_m: 0.0 });
    }
}

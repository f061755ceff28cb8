//! Non-line-of-sight (single-bounce) channel gains.
//!
//! DenseVLC's synchronization (paper §6.2) works by having a leading TX
//! flash a pilot that reflects off the floor and is picked up by the
//! downward-facing photodiodes of nearby follower TXs. Two ceiling TXs have
//! no line of sight to each other (both face down), so the coupling is the
//! classic single-bounce integral: the floor is tiled into differential
//! Lambertian reflectors, each receiving light from the source and
//! re-emitting it diffusely (order-1 Lambertian) toward the destination's
//! photodiode.
//!
//! The module also integrates *wall* bounces ([`wall_bounce_gain`]) — the
//! only first-order NLOS contribution an upward-facing data receiver can
//! see — to quantify what the paper's LOS-only SINR model (Eq. 12)
//! neglects (well under 1 % for this geometry).

use crate::lambertian::{RxOptics, RxProfile};
use crate::soa::LANE;
use serde::{Deserialize, Serialize};
use vlc_geom::{Pose, Room, Vec3};
use vlc_par::Pool;
use vlc_trace::Probe;

/// Configuration for the single-bounce integration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NlosConfig {
    /// Floor-patch edge length in meters for the numerical integration.
    /// 5 cm keeps the quadrature error well under 1 % for room-scale
    /// geometries while remaining fast.
    pub patch_size_m: f64,
}

impl Default for NlosConfig {
    fn default() -> Self {
        NlosConfig { patch_size_m: 0.05 }
    }
}

/// Single-bounce (floor) path gain from a ceiling transmitter to a
/// (typically also ceiling-mounted, downward-facing) receiver photodiode.
///
/// For each floor patch `dA` at point `w`:
///
/// `dH = (m+1)/(2π·d1²) · cosᵐ(φ1)·cos(ψ1) · ρ · Apd·g(ψ2)/(π·d2²) ·
///       cos(φ2)·cos(ψ2) · dA`
///
/// where `d1, φ1, ψ1` describe the source→patch leg (ψ1 against the floor
/// normal), `ρ` is the floor reflectance, and `d2, φ2, ψ2` the
/// patch→receiver leg with the patch re-emitting as an order-1 Lambertian.
///
/// Runs on `pool` (so one pool can serve many gain evaluations instead of
/// being rebuilt per call), recording a `channel.nlos.floor` span under
/// `probe.span` with one `channel.nlos.floor.row` child per quadrature row.
///
/// The quadrature is structured as one partial sum per floor *row* (fixed
/// `iy`), summed over rows in row order — on the sequential path too — so
/// fanning rows out over workers reassociates nothing and the integral,
/// like the span tree, is identical for any worker count.
#[allow(clippy::too_many_arguments)]
pub fn floor_bounce_gain(
    tx: &Pose,
    rx: &Pose,
    lambertian_m: f64,
    optics: &RxOptics,
    room: &Room,
    cfg: &NlosConfig,
    pool: &Pool,
    probe: Probe<'_>,
) -> f64 {
    assert!(cfg.patch_size_m > 0.0, "patch size must be positive");
    let da = cfg.patch_size_m * cfg.patch_size_m;
    let (nx, ny) = floor_grid(room, cfg);
    let profile = optics.profile();
    // Split patch x coordinates once per call — the same `(ix + 0.5)·patch`
    // expression the scalar reference evaluates per patch, hoisted out of
    // the row sweep.
    let xs: Vec<f64> = (0..nx)
        .map(|ix| (ix as f64 + 0.5) * cfg.patch_size_m)
        .collect();
    let floor = probe.span.child("channel.nlos.floor");
    floor.attr("rows", &ny.to_string());
    let row_sums = pool.map_indexed(ny, |iy| {
        let _row = floor.child_indexed("channel.nlos.floor.row", iy);
        let wy = (iy as f64 + 0.5) * cfg.patch_size_m;
        let mut row = 0.0;
        let tail = nx - nx % LANE;
        for base in (0..tail).step_by(LANE) {
            let lane = floor_row_lane(
                tx,
                rx,
                &xs[base..base + LANE],
                wy,
                lambertian_m,
                &profile,
                room.floor_reflectance,
            );
            // Lane results fold into the row strictly in patch order: the
            // batch reorders computation, never the fixed-order sum.
            for &c in &lane {
                row += c;
            }
        }
        for &x in &xs[tail..] {
            let w = Vec3::new(x, wy, 0.0);
            row += patch_contribution_fused(
                tx,
                rx,
                w,
                Vec3::UP,
                lambertian_m,
                &profile,
                room.floor_reflectance,
            );
        }
        row
    });
    row_sums.iter().sum::<f64>() * da
}

/// Scalar bit-identity reference for [`floor_bounce_gain`]: the historical
/// sequential per-patch loop, retained verbatim (the repo's fast-vs-scalar
/// reference pattern) so `tests/soa_identity.rs` can pin the lane kernel
/// against it bitwise.
pub fn floor_bounce_gain_scalar(
    tx: &Pose,
    rx: &Pose,
    lambertian_m: f64,
    optics: &RxOptics,
    room: &Room,
    cfg: &NlosConfig,
) -> f64 {
    assert!(cfg.patch_size_m > 0.0, "patch size must be positive");
    let da = cfg.patch_size_m * cfg.patch_size_m;
    let (nx, ny) = floor_grid(room, cfg);
    let mut row_sums = Vec::with_capacity(ny);
    for iy in 0..ny {
        let mut row = 0.0;
        for ix in 0..nx {
            let w = floor_patch_center(cfg, ix, iy);
            row += patch_contribution(tx, rx, w, lambertian_m, optics, room.floor_reflectance);
        }
        row_sums.push(row);
    }
    row_sums.iter().sum::<f64>() * da
}

/// Single-bounce *wall* path gain from a transmitter to a receiver: the
/// sum over all four walls of the room, each tiled into diffuse Lambertian
/// reflectors with the same reflectance as the floor.
///
/// For an upward-facing data receiver the floor bounce is invisible (light
/// would arrive from behind the detector plane), so walls are the only
/// first-order NLOS contribution to the *data* channel. The tests quantify
/// it at well under a percent of the LOS gain for the paper's narrow-beam
/// geometry — the validation behind Eq. 12's LOS-only SINR.
///
/// Runs on `pool`, recording a `channel.nlos.wall` span under `probe.span`
/// with one `channel.nlos.wall.col` child per wall column. Work items are
/// the vertical wall *columns* (one per `(wall, iu)`), each summed
/// bottom-up; column partials are added in column order on every path, so
/// the result is bitwise identical for any worker count (see
/// [`floor_bounce_gain`]).
#[allow(clippy::too_many_arguments)]
pub fn wall_bounce_gain(
    tx: &Pose,
    rx: &Pose,
    lambertian_m: f64,
    optics: &RxOptics,
    room: &Room,
    cfg: &NlosConfig,
    pool: &Pool,
    probe: Probe<'_>,
) -> f64 {
    assert!(cfg.patch_size_m > 0.0, "patch size must be positive");
    let da = cfg.patch_size_m * cfg.patch_size_m;
    let (columns, nz) = wall_columns(room, cfg);
    let profile = optics.profile();
    // Split patch z coordinates once per call, shared by every column.
    let zs: Vec<f64> = (0..nz)
        .map(|iz| (iz as f64 + 0.5) * cfg.patch_size_m)
        .collect();
    let wall = probe.span.child("channel.nlos.wall");
    wall.attr("cols", &columns.len().to_string());
    let column_sums = pool.map_indexed(columns.len(), |c| {
        let _col = wall.child_indexed("channel.nlos.wall.col", c);
        let (origin, axis, normal, iu) = columns[c];
        // The reference `wall_patch_center` evaluates
        // `(origin + axis·u) + Z·z` left-associated; hoisting the
        // column-constant first addend changes nothing bitwise.
        let base_w = origin + axis * ((iu as f64 + 0.5) * cfg.patch_size_m);
        let mut col = 0.0;
        let mut lane = [0.0f64; LANE];
        let tail = nz - nz % LANE;
        for base in (0..tail).step_by(LANE) {
            for (l, slot) in lane.iter_mut().enumerate() {
                let w = base_w + Vec3::Z * zs[base + l];
                *slot = patch_contribution_fused(
                    tx,
                    rx,
                    w,
                    normal,
                    lambertian_m,
                    &profile,
                    room.floor_reflectance,
                );
            }
            for &contribution in &lane {
                col += contribution;
            }
        }
        for &z in &zs[tail..] {
            let w = base_w + Vec3::Z * z;
            col += patch_contribution_fused(
                tx,
                rx,
                w,
                normal,
                lambertian_m,
                &profile,
                room.floor_reflectance,
            );
        }
        col
    });
    column_sums.iter().sum::<f64>() * da
}

/// Scalar bit-identity reference for [`wall_bounce_gain`] — see
/// [`floor_bounce_gain_scalar`].
pub fn wall_bounce_gain_scalar(
    tx: &Pose,
    rx: &Pose,
    lambertian_m: f64,
    optics: &RxOptics,
    room: &Room,
    cfg: &NlosConfig,
) -> f64 {
    assert!(cfg.patch_size_m > 0.0, "patch size must be positive");
    let da = cfg.patch_size_m * cfg.patch_size_m;
    let (columns, nz) = wall_columns(room, cfg);
    let mut column_sums = Vec::with_capacity(columns.len());
    for &(origin, axis, normal, iu) in &columns {
        let mut col = 0.0;
        for iz in 0..nz {
            let w = wall_patch_center(cfg, origin, axis, iu, iz);
            col += surface_patch_contribution(
                tx,
                rx,
                w,
                normal,
                lambertian_m,
                optics,
                room.floor_reflectance,
            );
        }
        column_sums.push(col);
    }
    column_sums.iter().sum::<f64>() * da
}

/// The floor quadrature grid `(nx, ny)` for a room and patch size.
pub(crate) fn floor_grid(room: &Room, cfg: &NlosConfig) -> (usize, usize) {
    let nx = (room.width / cfg.patch_size_m).ceil() as usize;
    let ny = (room.depth / cfg.patch_size_m).ceil() as usize;
    (nx, ny)
}

/// Center of floor patch `(ix, iy)`.
pub(crate) fn floor_patch_center(cfg: &NlosConfig, ix: usize, iy: usize) -> Vec3 {
    Vec3::new(
        (ix as f64 + 0.5) * cfg.patch_size_m,
        (iy as f64 + 0.5) * cfg.patch_size_m,
        0.0,
    )
}

/// The four walls' vertical columns flattened into one indexed work list
/// (`(origin, horizontal axis, inward normal, iu)` per column) plus the
/// per-column patch count `nz`.
pub(crate) fn wall_columns(
    room: &Room,
    cfg: &NlosConfig,
) -> (Vec<(Vec3, Vec3, Vec3, usize)>, usize) {
    // Each wall: (origin, horizontal axis, extent along it, inward normal).
    let walls: [(Vec3, Vec3, f64, Vec3); 4] = [
        (Vec3::ZERO, Vec3::X, room.width, Vec3::Y), // y = 0
        (
            Vec3::new(0.0, room.depth, 0.0),
            Vec3::X,
            room.width,
            -Vec3::Y,
        ), // y = depth
        (Vec3::ZERO, Vec3::Y, room.depth, Vec3::X), // x = 0
        (
            Vec3::new(room.width, 0.0, 0.0),
            Vec3::Y,
            room.depth,
            -Vec3::X,
        ), // x = width
    ];
    let nz = (room.height / cfg.patch_size_m).ceil() as usize;
    let columns: Vec<(Vec3, Vec3, Vec3, usize)> = walls
        .iter()
        .flat_map(|&(origin, axis, extent, normal)| {
            let nu = (extent / cfg.patch_size_m).ceil() as usize;
            (0..nu).map(move |iu| (origin, axis, normal, iu))
        })
        .collect();
    (columns, nz)
}

/// Center of wall patch `(iu, iz)` on the column anchored at `origin`.
pub(crate) fn wall_patch_center(
    cfg: &NlosConfig,
    origin: Vec3,
    axis: Vec3,
    iu: usize,
    iz: usize,
) -> Vec3 {
    origin
        + axis * ((iu as f64 + 0.5) * cfg.patch_size_m)
        + Vec3::Z * ((iz as f64 + 0.5) * cfg.patch_size_m)
}

/// Source→patch leg of the single-bounce integrand, *including* the surface
/// reflectance: `(m+1)/(2π·d1²)·cosᵐ(φ1)·cos(ψ1) · ρ`, or exactly `0.0`
/// when the patch is out of the emitter's half-space (the same early-outs
/// as the fused integrand). The scalar references build their integrand
/// from this leg and [`patch_rx_leg`].
///
/// The fused product `first_leg · ρ · second_leg` evaluates left-to-right
/// as `(first_leg · ρ) · second_leg`, so splitting the integrand here keeps
/// the scalar references bitwise identical to the fused kernels.
pub(crate) fn patch_tx_leg(tx: &Pose, w: Vec3, normal: Vec3, m: f64, reflectance: f64) -> f64 {
    let v1 = w - tx.position;
    let d1_sq = v1.norm_sq();
    if d1_sq < 1e-9 {
        return 0.0;
    }
    let cos_phi1 = tx.cos_irradiation(w);
    let cos_psi1 = (-v1.normalized()).dot(normal);
    if cos_phi1 <= 0.0 || cos_psi1 <= 0.0 {
        return 0.0;
    }
    let first_leg = (m + 1.0) / (2.0 * std::f64::consts::PI * d1_sq) * cos_phi1.powf(m) * cos_psi1;
    first_leg * reflectance
}

/// Patch→RX leg of the single-bounce integrand: the patch re-emits as an
/// order-1 Lambertian toward the photodiode,
/// `Apd·g(ψ2)/(π·d2²)·cos(φ2)·cos(ψ2)`, or exactly `0.0` on the same
/// early-outs as the fused integrand.
pub(crate) fn patch_rx_leg(rx: &Pose, w: Vec3, normal: Vec3, optics: &RxOptics) -> f64 {
    let v2 = rx.position - w;
    let d2_sq = v2.norm_sq();
    if d2_sq < 1e-9 {
        return 0.0;
    }
    let cos_phi2 = v2.normalized().dot(normal);
    let cos_psi2 = rx.cos_incidence(w);
    if cos_phi2 <= 0.0 || cos_psi2 <= 0.0 {
        return 0.0;
    }
    let psi2 = cos_psi2.clamp(-1.0, 1.0).acos();
    let g = optics.gain(psi2);
    if g == 0.0 {
        return 0.0;
    }
    optics.collection_area_m2 * g / (std::f64::consts::PI * d2_sq) * cos_phi2 * cos_psi2
}

/// Four floor patches of one row, branch-free: the geometry pass
/// (differences, squared norms, square roots, divisions, dot products)
/// runs unconditionally across the lane so it vectorizes; only the
/// `cosᵐ(φ1)` power is guarded, and every reference early-out becomes a
/// skip that leaves the lane slot at literal `0.0` — exactly the value
/// [`patch_contribution_fused`] returns on that path (division by a
/// sub-threshold norm produces non-finite lanes the guards discard). The
/// floor specialization folds the `UP`-normal dot products to single
/// components; the dropped `±0` cross-terms can only flip the sign of a
/// *zero* cosine, and both signed zeros fail the same `> 0` guard. Pinned
/// bitwise against the scalar reference by `tests/soa_identity.rs`.
fn floor_row_lane(
    tx: &Pose,
    rx: &Pose,
    xs: &[f64],
    wy: f64,
    m: f64,
    profile: &RxProfile,
    reflectance: f64,
) -> [f64; LANE] {
    let tp = tx.position;
    let tb = tx.boresight;
    let rp = rx.position;
    let rb = rx.boresight;
    let mut d1_sq = [0.0f64; LANE];
    let mut cos_phi1 = [0.0f64; LANE];
    let mut cos_psi1 = [0.0f64; LANE];
    let mut d2_sq = [0.0f64; LANE];
    let mut cos_phi2 = [0.0f64; LANE];
    let mut cos_psi2 = [0.0f64; LANE];
    for l in 0..LANE {
        // TX → patch leg: v1 = w − tx, dir1 = v1/‖v1‖, the reference's
        // operand order component for component (w.z is literal 0.0).
        let (vx, vy, vz) = (xs[l] - tp.x, wy - tp.y, 0.0 - tp.z);
        let dsq = vx * vx + vy * vy + vz * vz;
        let d = dsq.sqrt();
        let (ux, uy, uz) = (vx / d, vy / d, vz / d);
        d1_sq[l] = dsq;
        cos_phi1[l] = tb.x * ux + tb.y * uy + tb.z * uz;
        cos_psi1[l] = -uz;
        // Patch → RX leg.
        let (sx, sy, sz) = (rp.x - xs[l], rp.y - wy, rp.z - 0.0);
        let dsq2 = sx * sx + sy * sy + sz * sz;
        let d2 = dsq2.sqrt();
        let (ex, ey, ez) = (sx / d2, sy / d2, sz / d2);
        d2_sq[l] = dsq2;
        cos_phi2[l] = ez;
        cos_psi2[l] = rb.x * (-ex) + rb.y * (-ey) + rb.z * (-ez);
    }
    let mut out = [0.0f64; LANE];
    for l in 0..LANE {
        if d1_sq[l] < 1e-9 || cos_phi1[l] <= 0.0 || cos_psi1[l] <= 0.0 {
            continue;
        }
        let first_leg =
            (m + 1.0) / (2.0 * std::f64::consts::PI * d1_sq[l]) * cos_phi1[l].powf(m) * cos_psi1[l];
        let tx_leg = first_leg * reflectance;
        if tx_leg == 0.0 || d2_sq[l] < 1e-9 || cos_phi2[l] <= 0.0 || cos_psi2[l] <= 0.0 {
            continue;
        }
        let g = profile.gain_from_cos_fast(cos_psi2[l]);
        if g == 0.0 {
            continue;
        }
        out[l] = tx_leg
            * (profile.collection_area_m2 * g / (std::f64::consts::PI * d2_sq[l])
                * cos_phi2[l]
                * cos_psi2[l]);
    }
    out
}

/// The fused single-bounce integrand behind the lane kernels: TX leg and
/// RX leg with the shared geometry computed once each (one squared norm +
/// one square root per leg, where the reference normalizes each ray two to
/// three times) and the concentrator peak from the [`RxProfile`].
///
/// Bitwise identical to `patch_tx_leg · patch_rx_leg` — every early-out,
/// operand, and association is replicated; the only representational
/// deltas are signs of zero in negated ray components, which can only flip
/// the sign of a *zero* cosine, and both signed zeros take the same `≤ 0`
/// early-out. Pinned by `tests/soa_identity.rs`.
pub(crate) fn patch_contribution_fused(
    tx: &Pose,
    rx: &Pose,
    w: Vec3,
    normal: Vec3,
    m: f64,
    profile: &RxProfile,
    reflectance: f64,
) -> f64 {
    let v1 = w - tx.position;
    let d1_sq = v1.norm_sq();
    if d1_sq < 1e-9 {
        return 0.0;
    }
    // d² ≥ 1e-9 ⟹ ‖v1‖ ≥ 3.2e-5, so the reference `try_normalized` /
    // `normalized` paths are always in their non-degenerate branch here.
    let dir1 = v1 / d1_sq.sqrt();
    let cos_phi1 = tx.boresight.dot(dir1);
    let cos_psi1 = (-dir1).dot(normal);
    if cos_phi1 <= 0.0 || cos_psi1 <= 0.0 {
        return 0.0;
    }
    let first_leg = (m + 1.0) / (2.0 * std::f64::consts::PI * d1_sq) * cos_phi1.powf(m) * cos_psi1;
    let tx_leg = first_leg * reflectance;
    if tx_leg == 0.0 {
        return 0.0;
    }
    tx_leg * patch_rx_leg_profiled(rx, w, normal, profile)
}

/// Fused patch→RX leg with a precomputed [`RxProfile`] — bitwise identical
/// to [`patch_rx_leg`] (same argument as [`patch_contribution_fused`]).
pub(crate) fn patch_rx_leg_profiled(rx: &Pose, w: Vec3, normal: Vec3, profile: &RxProfile) -> f64 {
    let v2 = rx.position - w;
    let d2_sq = v2.norm_sq();
    if d2_sq < 1e-9 {
        return 0.0;
    }
    let dir2 = v2 / d2_sq.sqrt();
    let cos_phi2 = dir2.dot(normal);
    let cos_psi2 = rx.boresight.dot(-dir2);
    if cos_phi2 <= 0.0 || cos_psi2 <= 0.0 {
        return 0.0;
    }
    let g = profile.gain_from_cos_fast(cos_psi2);
    if g == 0.0 {
        return 0.0;
    }
    profile.collection_area_m2 * g / (std::f64::consts::PI * d2_sq) * cos_phi2 * cos_psi2
}

/// Contribution density (per m² of floor) of one patch center `w`: the
/// TX leg (with reflectance) times the RX leg, exactly the fused integrand
/// of the original single-routine quadrature (`0.0 · x` and `x · 0.0` are
/// `+0.0` for the finite non-negative legs, so the early-out paths are
/// preserved bit for bit).
fn patch_contribution(
    tx: &Pose,
    rx: &Pose,
    w: Vec3,
    m: f64,
    optics: &RxOptics,
    reflectance: f64,
) -> f64 {
    surface_patch_contribution(tx, rx, w, Vec3::UP, m, optics, reflectance)
}

/// Contribution density of one diffuse patch with an arbitrary surface
/// normal (`Vec3::UP` recovers the floor case).
fn surface_patch_contribution(
    tx: &Pose,
    rx: &Pose,
    w: Vec3,
    normal: Vec3,
    m: f64,
    optics: &RxOptics,
    reflectance: f64,
) -> f64 {
    let tx_leg = patch_tx_leg(tx, w, normal, m, reflectance);
    if tx_leg == 0.0 {
        return 0.0;
    }
    tx_leg * patch_rx_leg(rx, w, normal, optics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lambertian::{lambertian_order, los_gain};
    use vlc_geom::TxGrid;

    fn setup() -> (Room, f64, RxOptics) {
        (
            Room::paper_testbed(),
            lambertian_order(15f64.to_radians()),
            RxOptics::paper(),
        )
    }

    #[test]
    fn neighbor_txs_have_positive_nlos_coupling() {
        let (room, m, optics) = setup();
        let grid = TxGrid::paper(&room);
        let tx = grid.pose(1); // TX2
        let rx = grid.pose(2); // TX3, 0.5 m away, photodiode facing down
        let h = floor_bounce_gain(
            &tx,
            &rx,
            m,
            &optics,
            &room,
            &NlosConfig::default(),
            &Pool::from_env(),
            Probe::off(),
        );
        assert!(h > 0.0, "h = {h}");
    }

    #[test]
    fn nlos_is_orders_weaker_than_los() {
        // The reflected pilot is "a very weak signal" (paper §7.1) — it
        // should be far below a direct TX→RX link.
        let (room, m, optics) = setup();
        let grid = TxGrid::paper(&room);
        let tx = grid.pose(1);
        let neighbor = grid.pose(2);
        let floor_rx = Pose::face_up(neighbor.position.x, neighbor.position.y - 0.25, 0.0);
        let h_nlos = floor_bounce_gain(
            &tx,
            &neighbor,
            m,
            &optics,
            &room,
            &NlosConfig::default(),
            &Pool::from_env(),
            Probe::off(),
        );
        let h_los = los_gain(&tx, &floor_rx, m, &optics);
        assert!(h_nlos < h_los / 10.0, "nlos {h_nlos} vs los {h_los}");
    }

    #[test]
    fn coupling_decays_with_tx_separation() {
        let (room, m, optics) = setup();
        let grid = TxGrid::paper(&room);
        let tx = grid.pose(0); // TX1 (corner)
        let cfg = NlosConfig::default();
        let near = floor_bounce_gain(
            &tx,
            &grid.pose(1),
            m,
            &optics,
            &room,
            &cfg,
            &Pool::from_env(),
            Probe::off(),
        );
        let far = floor_bounce_gain(
            &tx,
            &grid.pose(5),
            m,
            &optics,
            &room,
            &cfg,
            &Pool::from_env(),
            Probe::off(),
        );
        assert!(near > far, "near {near} far {far}");
    }

    #[test]
    fn gain_scales_linearly_with_reflectance() {
        let (room, m, optics) = setup();
        let grid = TxGrid::paper(&room);
        let cfg = NlosConfig::default();
        let dark = Room {
            floor_reflectance: 0.3,
            ..room
        };
        let h_bright = floor_bounce_gain(
            &grid.pose(1),
            &grid.pose(2),
            m,
            &optics,
            &room,
            &cfg,
            &Pool::from_env(),
            Probe::off(),
        );
        let h_dark = floor_bounce_gain(
            &grid.pose(1),
            &grid.pose(2),
            m,
            &optics,
            &dark,
            &cfg,
            &Pool::from_env(),
            Probe::off(),
        );
        assert!((h_bright / h_dark - 0.6 / 0.3).abs() < 1e-9);
    }

    #[test]
    fn refinement_converges() {
        // Halving the patch size should change the integral by < 5 %.
        let (room, m, optics) = setup();
        let grid = TxGrid::paper(&room);
        let coarse = floor_bounce_gain(
            &grid.pose(1),
            &grid.pose(2),
            m,
            &optics,
            &room,
            &NlosConfig { patch_size_m: 0.10 },
            &Pool::from_env(),
            Probe::off(),
        );
        let fine = floor_bounce_gain(
            &grid.pose(1),
            &grid.pose(2),
            m,
            &optics,
            &room,
            &NlosConfig { patch_size_m: 0.05 },
            &Pool::from_env(),
            Probe::off(),
        );
        assert!(
            ((coarse - fine) / fine).abs() < 0.05,
            "coarse {coarse} fine {fine}"
        );
    }

    #[test]
    fn pilot_detectable_on_less_reflective_floor() {
        // Paper §9: the pilot remains detectable with less-reflective floor
        // materials. Verify the gain degrades gracefully, not to zero.
        let (room, m, optics) = setup();
        let grid = TxGrid::paper(&room);
        let dull = Room {
            floor_reflectance: 0.15,
            ..room
        };
        let h = floor_bounce_gain(
            &grid.pose(1),
            &grid.pose(2),
            m,
            &optics,
            &dull,
            &NlosConfig::default(),
            &Pool::from_env(),
            Probe::off(),
        );
        assert!(h > 0.0);
    }

    #[test]
    fn wall_bounce_is_negligible_for_the_data_channel() {
        // The Eq. 12 validation: for an interior receiver, the summed
        // wall-bounce gain is well under 1 % of the LOS gain of its serving
        // TX — the LOS-only SINR model is sound.
        let (room, m, optics) = setup();
        let grid = TxGrid::paper(&room);
        let rx = Pose::face_up(0.92, 0.92, 0.0);
        let tx = grid.pose(7); // TX8, the serving TX
        let h_los = los_gain(&tx, &rx, m, &optics);
        let h_wall = wall_bounce_gain(
            &tx,
            &rx,
            m,
            &optics,
            &room,
            &NlosConfig::default(),
            &Pool::from_env(),
            Probe::off(),
        );
        assert!(h_wall >= 0.0);
        assert!(
            h_wall < 0.01 * h_los,
            "wall bounce {h_wall:e} not negligible vs LOS {h_los:e}"
        );
    }

    #[test]
    fn wall_bounce_grows_near_a_wall() {
        // A receiver hugging a wall collects more wall-reflected light than
        // one at the room center (same TX offset geometry).
        let (room, m, optics) = setup();
        let cfg = NlosConfig { patch_size_m: 0.1 };
        let tx_near = Pose::ceiling(0.75, 0.25, room.height);
        let rx_near = Pose::face_up(0.75, 0.15, 0.0); // 15 cm from the wall
        let tx_mid = Pose::ceiling(1.75, 1.5, room.height);
        let rx_mid = Pose::face_up(1.75, 1.4, 0.0); // room center-ish
        let near = wall_bounce_gain(
            &tx_near,
            &rx_near,
            m,
            &optics,
            &room,
            &cfg,
            &Pool::from_env(),
            Probe::off(),
        );
        let mid = wall_bounce_gain(
            &tx_mid,
            &rx_mid,
            m,
            &optics,
            &room,
            &cfg,
            &Pool::from_env(),
            Probe::off(),
        );
        assert!(near > mid, "near-wall {near:e} !> centered {mid:e}");
    }

    #[test]
    fn upward_receiver_cannot_see_the_floor_bounce() {
        // The geometric reason walls are the only first-order NLOS term for
        // the data channel: floor-reflected light reaches an upward-facing
        // receiver from behind its detector plane.
        let (room, m, optics) = setup();
        let tx = Pose::ceiling(0.75, 0.75, room.height);
        let rx = Pose::face_up(1.25, 0.75, 0.0);
        let h_floor = floor_bounce_gain(
            &tx,
            &rx,
            m,
            &optics,
            &room,
            &NlosConfig::default(),
            &Pool::from_env(),
            Probe::off(),
        );
        assert_eq!(h_floor, 0.0);
    }

    #[test]
    fn lane_kernels_match_scalar_references_bitwise() {
        let (room, m, optics) = setup();
        let grid = TxGrid::paper(&room);
        let cfg = NlosConfig { patch_size_m: 0.07 }; // odd grid → scalar tail
        for (tx, rx) in [
            (grid.pose(1), grid.pose(2)),
            (grid.pose(0), grid.pose(5)),
            (
                Pose::ceiling(0.75, 0.25, room.height),
                Pose::face_up(0.75, 0.15, 0.0),
            ),
        ] {
            let floor_fast = floor_bounce_gain(
                &tx,
                &rx,
                m,
                &optics,
                &room,
                &cfg,
                &Pool::from_env(),
                Probe::off(),
            );
            let floor_ref = floor_bounce_gain_scalar(&tx, &rx, m, &optics, &room, &cfg);
            assert_eq!(floor_fast.to_bits(), floor_ref.to_bits());
            let wall_fast = wall_bounce_gain(
                &tx,
                &rx,
                m,
                &optics,
                &room,
                &cfg,
                &Pool::from_env(),
                Probe::off(),
            );
            let wall_ref = wall_bounce_gain_scalar(&tx, &rx, m, &optics, &room, &cfg);
            assert_eq!(wall_fast.to_bits(), wall_ref.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_patch_size_panics() {
        let (room, m, optics) = setup();
        let grid = TxGrid::paper(&room);
        floor_bounce_gain(
            &grid.pose(0),
            &grid.pose(1),
            m,
            &optics,
            &room,
            &NlosConfig { patch_size_m: 0.0 },
            &Pool::from_env(),
            Probe::off(),
        );
    }
}

//! Time-division pilot scheduling for channel sounding (paper §3.2).
//!
//! The controller sends pilot signals "in a time-division scheme to each
//! LED of the array": one TX sounds per slot while every receiver measures
//! it. A full sweep of N TXs takes N slots; the schedule also supports
//! sounding only a subset (e.g. the TXs near the last known beamspots) to
//! cut the sounding overhead for fast re-adaptation.

use crate::protocol::TxId;

/// A time-division pilot schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PilotSchedule {
    /// The TX sounding in each slot, in slot order.
    pub slots: Vec<TxId>,
    /// Duration of one sounding slot in seconds (pilot chips + guard).
    pub slot_duration_s: f64,
}

impl PilotSchedule {
    /// A full sweep over `n_tx` transmitters.
    pub fn full_sweep(n_tx: usize, slot_duration_s: f64) -> Self {
        assert!(slot_duration_s > 0.0, "slot duration must be positive");
        PilotSchedule {
            slots: (0..n_tx).collect(),
            slot_duration_s,
        }
    }

    /// A partial sweep over selected TXs (fast re-sounding).
    pub fn subset(txs: Vec<TxId>, slot_duration_s: f64) -> Self {
        assert!(slot_duration_s > 0.0, "slot duration must be positive");
        assert!(!txs.is_empty(), "schedule needs at least one TX");
        PilotSchedule {
            slots: txs,
            slot_duration_s,
        }
    }

    /// The slot in which `tx` sounds, if any.
    pub fn slot_of(&self, tx: TxId) -> Option<usize> {
        self.slots.iter().position(|&t| t == tx)
    }

    /// Total sounding time for a full round.
    pub fn round_duration_s(&self) -> f64 {
        self.slots.len() as f64 * self.slot_duration_s
    }

    /// The sounding overhead as a fraction of an adaptation period.
    pub fn overhead(&self, adaptation_period_s: f64) -> f64 {
        assert!(adaptation_period_s > 0.0, "period must be positive");
        self.round_duration_s() / adaptation_period_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sweep_covers_every_tx_once() {
        let s = PilotSchedule::full_sweep(36, 1e-3);
        assert_eq!(s.slots.len(), 36);
        for tx in 0..36 {
            assert_eq!(s.slot_of(tx), Some(tx));
        }
    }

    #[test]
    fn subset_schedule_is_shorter() {
        let full = PilotSchedule::full_sweep(36, 1e-3);
        let fast = PilotSchedule::subset(vec![7, 8, 13, 14], 1e-3);
        assert!(fast.round_duration_s() < full.round_duration_s() / 8.0);
        assert_eq!(fast.slot_of(13), Some(2));
        assert_eq!(fast.slot_of(0), None);
    }

    #[test]
    fn overhead_fraction() {
        let s = PilotSchedule::full_sweep(36, 1e-3);
        // 36 ms of sounding per 1 s adaptation period → 3.6 %.
        assert!((s.overhead(1.0) - 0.036).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_subset_panics() {
        PilotSchedule::subset(vec![], 1e-3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_slot_duration_panics() {
        PilotSchedule::full_sweep(4, 0.0);
    }
}

//! TX-to-host mapping: which BeagleBone drives which transmitters.
//!
//! The testbed drives four TX PHYs per BeagleBone Black (paper §7.1: "The
//! VLC PHY of four TXs is managed by 1 BBB, so 9 BBBs are used in total").
//! TXs sharing a BBB share its clock: they are inherently synchronized with
//! each other, while TXs on different BBBs are not — the distinction behind
//! the three rows of Table 5. The grid is partitioned into 2 × 2 blocks,
//! which puts TX2/TX8 on one BBB and TX3/TX9 on another, exactly as in the
//! paper's §8.1 experiment.

/// Maps grid TXs to their hosting embedded computer.
#[derive(Debug, Clone, PartialEq)]
pub struct BbbHostMap {
    cols: usize,
    rows: usize,
}

impl BbbHostMap {
    /// The paper's 6 × 6 deployment: nine BBBs, each hosting a 2 × 2 block.
    pub fn paper() -> Self {
        BbbHostMap { cols: 6, rows: 6 }
    }

    /// A map for an arbitrary grid (must have even dimensions so 2 × 2
    /// blocks tile it).
    pub fn new(cols: usize, rows: usize) -> Self {
        assert!(
            cols.is_multiple_of(2) && rows.is_multiple_of(2) && cols > 0 && rows > 0,
            "grid {cols}×{rows} cannot be tiled by 2×2 BBB blocks"
        );
        BbbHostMap { cols, rows }
    }

    /// Number of hosts.
    pub fn n_hosts(&self) -> usize {
        (self.cols / 2) * (self.rows / 2)
    }

    /// The host index of a TX (zero-based grid index, row-major).
    ///
    /// # Panics
    /// Panics on an out-of-range TX index.
    pub fn host_of(&self, tx: usize) -> usize {
        assert!(tx < self.cols * self.rows, "TX {tx} out of range");
        let row = tx / self.cols;
        let col = tx % self.cols;
        (row / 2) * (self.cols / 2) + col / 2
    }

    /// All TXs hosted by one BBB.
    pub fn txs_of(&self, host: usize) -> Vec<usize> {
        assert!(host < self.n_hosts(), "host {host} out of range");
        (0..self.cols * self.rows)
            .filter(|&t| self.host_of(t) == host)
            .collect()
    }

    /// True when two TXs share a clock (same BBB).
    pub fn same_host(&self, a: usize, b: usize) -> bool {
        self.host_of(a) == self.host_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_map_has_nine_hosts_of_four() {
        let m = BbbHostMap::paper();
        assert_eq!(m.n_hosts(), 9);
        for host in 0..9 {
            assert_eq!(m.txs_of(host).len(), 4, "host {host}");
        }
    }

    #[test]
    fn tx2_tx8_share_a_host_but_tx3_tx9_live_elsewhere() {
        // Paper §8.1: TX2 and TX8 are managed by the same BBB; TX3 and TX9
        // by another. (Zero-based: 1 & 7 vs 2 & 8.)
        let m = BbbHostMap::paper();
        assert!(m.same_host(1, 7));
        assert!(m.same_host(2, 8));
        assert!(!m.same_host(1, 2));
        assert!(!m.same_host(7, 8));
    }

    #[test]
    fn blocks_are_2x2_neighbors() {
        let m = BbbHostMap::paper();
        let block = m.txs_of(0);
        // Top-left block: TX1, TX2, TX7, TX8 (zero-based 0, 1, 6, 7).
        assert_eq!(block, vec![0, 1, 6, 7]);
    }

    #[test]
    fn every_tx_has_exactly_one_host() {
        let m = BbbHostMap::paper();
        let mut count = vec![0usize; m.n_hosts()];
        for tx in 0..36 {
            count[m.host_of(tx)] += 1;
        }
        assert!(count.iter().all(|&c| c == 4));
    }

    #[test]
    #[should_panic(expected = "cannot be tiled")]
    fn odd_grid_panics() {
        BbbHostMap::new(5, 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_tx_panics() {
        BbbHostMap::paper().host_of(36);
    }
}

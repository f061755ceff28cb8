//! Block interleaving for burst-error resilience.
//!
//! The paper's Reed–Solomon code corrects up to 8 byte errors *per
//! 216-byte chunk*; a burst longer than that (an occluder sweeping through
//! the beam, an impulse on the mains) kills the chunk outright. A block
//! interleaver writes the coded bytes row-wise into a `depth × width`
//! matrix and transmits column-wise, so a burst of `b` consecutive channel
//! bytes lands as at most `⌈b/depth⌉` errors in any one chunk. This is a
//! natural companion to the paper's FEC that the BBB could have afforded
//! (it is pure byte shuffling).

use crate::codec::CodecError;

/// A block interleaver of fixed, positive depth. The depth is private so
/// that [`Interleaver::new`] is the only way to build one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interleaver {
    /// Number of rows — the factor by which bursts are diluted.
    depth: usize,
}

impl Interleaver {
    /// Creates an interleaver, or [`CodecError::InvalidParameters`] when
    /// `depth` is zero.
    pub fn new(depth: usize) -> Result<Self, CodecError> {
        if depth == 0 {
            return Err(CodecError::InvalidParameters {
                param: "depth",
                value: depth,
                allowed: "1..",
            });
        }
        Ok(Interleaver { depth })
    }

    /// Number of rows — the factor by which bursts are diluted.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Interleaves `data` (any length; a trailing partial column is kept in
    /// order). The output length always equals the input length.
    pub fn interleave(&self, data: &[u8]) -> Vec<u8> {
        self.permute(data, false)
    }

    /// Inverts [`Interleaver::interleave`].
    pub fn deinterleave(&self, data: &[u8]) -> Vec<u8> {
        self.permute(data, true)
    }

    /// Appends the interleaving of `data` to `out` — zero-alloc twin of
    /// [`Interleaver::interleave`] once `out` has capacity.
    pub fn interleave_into(&self, data: &[u8], out: &mut Vec<u8>) {
        self.permute_into(data, false, out)
    }

    /// Appends the deinterleaving of `data` to `out` — zero-alloc twin of
    /// [`Interleaver::deinterleave`].
    pub fn deinterleave_into(&self, data: &[u8], out: &mut Vec<u8>) {
        self.permute_into(data, true, out)
    }

    /// [`Interleaver::permute`] writing into a caller buffer (appended).
    fn permute_into(&self, data: &[u8], invert: bool, out: &mut Vec<u8>) {
        let d = self.depth;
        if d == 1 || data.len() < 2 * d {
            out.extend_from_slice(data);
            return;
        }
        let width = data.len() / d;
        let body = width * d;
        let base = out.len();
        out.resize(base + data.len(), 0);
        let block = &mut out[base..];
        for i in 0..body {
            let (row, col) = (i / width, i % width);
            let j = col * d + row;
            if invert {
                block[i] = data[j];
            } else {
                block[j] = data[i];
            }
        }
        block[body..].copy_from_slice(&data[body..]);
    }

    /// Row-wise write, column-wise read over a `depth × width` matrix of
    /// the longest full block; leftover bytes pass through in place.
    fn permute(&self, data: &[u8], invert: bool) -> Vec<u8> {
        let d = self.depth;
        if d == 1 || data.len() < 2 * d {
            return data.to_vec();
        }
        let width = data.len() / d;
        let body = width * d;
        let mut out = vec![0u8; data.len()];
        for i in 0..body {
            let (row, col) = (i / width, i % width);
            let j = col * d + row;
            if invert {
                out[i] = data[j];
            } else {
                out[j] = data[i];
            }
        }
        out[body..].copy_from_slice(&data[body..]);
        out
    }

    /// The idealized maximum channel-burst length (in bytes) a following
    /// Reed–Solomon decoder still corrects, assuming one burst per
    /// interleaver block and a block spanning at least `depth` chunks:
    /// each chunk then sees at most `⌈burst/depth⌉` errors, so the
    /// tolerable burst is `depth × t`. For shorter streams the joint
    /// budget `n_chunks × t` binds first (see the tests).
    pub fn burst_tolerance(&self, rs_t: usize) -> usize {
        self.depth * rs_t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rs::ReedSolomon;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_exact_block() {
        let il = Interleaver::new(4).unwrap();
        let data: Vec<u8> = (0..32).collect();
        let shuffled = il.interleave(&data);
        assert_ne!(shuffled, data, "interleaver was a no-op");
        assert_eq!(il.deinterleave(&shuffled), data);
    }

    #[test]
    fn depth_one_is_identity() {
        let il = Interleaver::new(1).unwrap();
        let data = vec![5u8, 4, 3, 2, 1];
        assert_eq!(il.interleave(&data), data);
    }

    #[test]
    fn a_burst_spreads_across_the_block() {
        // Depth 8 over 64 bytes: an 8-byte channel burst must hit each
        // de-interleaved row at most once.
        let il = Interleaver::new(8).unwrap();
        let data: Vec<u8> = (0..64).collect();
        let mut on_air = il.interleave(&data);
        for b in on_air.iter_mut().take(8) {
            *b ^= 0xFF; // the burst
        }
        let received = il.deinterleave(&on_air);
        // Errors per 8-byte row of the original layout:
        for row in 0..8 {
            let errors = (0..8)
                .filter(|&col| received[row * 8 + col] != data[row * 8 + col])
                .count();
            assert!(errors <= 1, "row {row} took {errors} errors from one burst");
        }
    }

    #[test]
    fn interleaving_rescues_rs_from_a_long_burst() {
        // Two RS chunks (432 coded bytes) with depth-16 interleaving: a
        // 14-byte burst (1.75× one chunk's t = 8 budget) splits across the
        // chunks and still decodes. (The joint budget over two chunks is
        // 2·t = 16 errors; bursts beyond that are unrecoverable no matter
        // the interleaving.)
        let rs = ReedSolomon::paper();
        let il = Interleaver::new(16).unwrap();
        let payload: Vec<u8> = (0..400).map(|i| (i % 251) as u8).collect();
        let coded = rs.encode_payload(&payload);
        let mut on_air = il.interleave(&coded);
        for b in on_air.iter_mut().skip(100).take(14) {
            *b ^= 0xA5;
        }
        let mut received = il.deinterleave(&on_air);
        let (decoded, fixed) = rs
            .decode_payload(&mut received, 400)
            .expect("interleaving dilutes the burst");
        assert_eq!(decoded, payload);
        assert_eq!(fixed, 14, "burst errors corrected: {fixed}");

        // Control: the same burst without interleaving kills a chunk.
        let mut bare = rs.encode_payload(&payload);
        for b in bare.iter_mut().skip(100).take(14) {
            *b ^= 0xA5;
        }
        assert!(rs.decode_payload(&mut bare, 400).is_err());
    }

    #[test]
    fn burst_tolerance_formula() {
        assert_eq!(Interleaver::new(16).unwrap().burst_tolerance(8), 128);
        assert_eq!(Interleaver::new(1).unwrap().burst_tolerance(8), 8);
    }

    #[test]
    fn zero_depth_is_rejected() {
        assert_eq!(
            Interleaver::new(0),
            Err(CodecError::InvalidParameters {
                param: "depth",
                value: 0,
                allowed: "1..",
            })
        );
        assert_eq!(Interleaver::new(3).map(|il| il.depth()), Ok(3));
    }

    proptest! {
        #[test]
        fn prop_roundtrip_any_length(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            depth in 1usize..12,
        ) {
            let il = Interleaver::new(depth).unwrap();
            let shuffled = il.interleave(&data);
            prop_assert_eq!(shuffled.len(), data.len());
            prop_assert_eq!(il.deinterleave(&shuffled), data);
        }

        #[test]
        fn prop_into_twins_match_allocating(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            depth in 1usize..12,
            prefix in proptest::collection::vec(any::<u8>(), 0..8),
        ) {
            // The `_into` twins append after any existing prefix and must
            // reproduce the allocating implementations byte for byte.
            let il = Interleaver::new(depth).unwrap();
            let mut fwd = prefix.clone();
            il.interleave_into(&data, &mut fwd);
            prop_assert_eq!(&fwd[prefix.len()..], &il.interleave(&data)[..]);
            let mut rev = prefix.clone();
            il.deinterleave_into(&data, &mut rev);
            prop_assert_eq!(&rev[prefix.len()..], &il.deinterleave(&data)[..]);
        }

        #[test]
        fn prop_interleave_is_a_permutation(
            len in 2usize..300,
            depth in 2usize..10,
        ) {
            let data: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
            let il = Interleaver::new(depth).unwrap();
            let mut shuffled = il.interleave(&data);
            let mut orig = data.clone();
            shuffled.sort_unstable();
            orig.sort_unstable();
            prop_assert_eq!(shuffled, orig);
        }
    }
}

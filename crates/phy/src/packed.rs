//! Bit-packed Manchester chip streams — the PHY fast path.
//!
//! The scalar pipeline models every chip as a [`Chip`] enum inside a `Vec`,
//! which costs 16 heap pushes per encoded byte and a branchy pair-match per
//! decoded bit. This module packs chips into `u64` words (HIGH = 1, chip
//! `i` at word `i / 64`, bit `i % 64`) so that:
//!
//! * encoding is one 256-entry byte → `u16` LUT lookup per byte
//!   ([`MANCHESTER_LUT`]), appended with two shifts;
//! * the mid-bit transition check is a word-wide XOR against the even-bit
//!   mask (`w ^ (w >> 1)` must light every even bit);
//! * the pre-FEC chip-error count is a `count_ones` over whole words.
//!
//! Every operation is bit-identical to its scalar counterpart in
//! [`crate::manchester`]; `crates/phy/tests/packed_identity.rs` pins the
//! equivalence with proptests. Buffers are reusable ([`PackedChips::clear`]
//! keeps capacity), so steady-state encode/decode performs zero heap
//! allocations.

use crate::manchester::Chip;

/// Byte → 16 Manchester chips, packed LSB-first in transmission order.
///
/// Bit `2t` of `MANCHESTER_LUT[b]` is the first chip of transmitted bit
/// `t` (the byte's bit `7 - t`; bytes go out MSB-first) and bit `2t + 1`
/// the second chip: a `1` bit maps to `HIGH, LOW` (`0b01` at chips
/// `2t, 2t+1`), a `0` bit to `LOW, HIGH` (`0b10`).
pub const MANCHESTER_LUT: [u16; 256] = manchester_lut();

const fn manchester_lut() -> [u16; 256] {
    let mut lut = [0u16; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut t = 0usize;
        let mut v = 0u16;
        while t < 8 {
            if (b >> (7 - t)) & 1 == 1 {
                v |= 1 << (2 * t); // HIGH, LOW
            } else {
                v |= 1 << (2 * t + 1); // LOW, HIGH
            }
            t += 1;
        }
        lut[b] = v;
        b += 1;
    }
    lut
}

/// Even-bit mask: the first chip of every Manchester pair.
pub(crate) const EVEN: u64 = 0x5555_5555_5555_5555;

/// Compacts the even-positioned bits of `x` (bits 0, 2, 4, …) into the low
/// 32 bits of the result — the inverse of a Morton interleave.
#[inline]
const fn compress_even(mut x: u64) -> u32 {
    x &= EVEN;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    x = (x | (x >> 16)) & 0x0000_0000_ffff_ffff;
    x as u32
}

/// A chip stream packed one bit per chip (HIGH = 1) into `u64` words.
///
/// ```
/// use vlc_phy::packed::PackedChips;
///
/// let mut chips = PackedChips::new();
/// chips.encode_bytes(b"VLC");
/// assert_eq!(chips.len(), 3 * 16);
/// let mut out = Vec::new();
/// assert!(chips.decode_bytes_into(&mut out));
/// assert_eq!(out, b"VLC");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedChips {
    words: Vec<u64>,
    len: usize,
}

impl PackedChips {
    /// An empty stream.
    pub fn new() -> Self {
        PackedChips::default()
    }

    /// An empty stream with room for `chips` chips without reallocating.
    pub fn with_capacity(chips: usize) -> Self {
        PackedChips {
            words: Vec::with_capacity(chips.div_ceil(64)),
            len: 0,
        }
    }

    /// Removes all chips, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Number of chips in the stream.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the stream holds no chips.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying words; chip `i` is bit `i % 64` of word `i / 64`.
    /// Bits at positions `>= len()` are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Chip `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of bounds.
    pub fn get(&self, i: usize) -> Chip {
        assert!(i < self.len, "chip index {i} out of bounds ({})", self.len);
        if (self.words[i >> 6] >> (i & 63)) & 1 == 1 {
            Chip::High
        } else {
            Chip::Low
        }
    }

    /// Appends one chip.
    pub fn push(&mut self, chip: Chip) {
        let (w, off) = (self.len >> 6, self.len & 63);
        if w == self.words.len() {
            self.words.push(0);
        }
        if chip == Chip::High {
            self.words[w] |= 1u64 << off;
        }
        self.len += 1;
    }

    /// Appends `n <= 64` chips given LSB-first in `word`, assuming the
    /// stream length is currently a multiple of 64 (e.g. built solely
    /// through this method after a [`Self::clear`]). Bits at positions
    /// `>= n` must be zero.
    pub(crate) fn push_word_aligned(&mut self, word: u64, n: usize) {
        debug_assert!(self.len.is_multiple_of(64), "stream not word-aligned");
        debug_assert!(n <= 64);
        debug_assert!(n == 64 || word >> n == 0, "stray bits past n");
        self.words.push(word);
        self.len += n;
    }

    /// Appends 16 chips given LSB-first (bit 0 is the next chip on air).
    #[inline]
    fn push_u16(&mut self, v: u16) {
        let (w, off) = (self.len >> 6, self.len & 63);
        if w == self.words.len() {
            self.words.push(0);
        }
        self.words[w] |= (v as u64) << off;
        if off > 48 {
            if w + 1 == self.words.len() {
                self.words.push(0);
            }
            self.words[w + 1] |= (v as u64) >> (64 - off);
        }
        self.len += 16;
    }

    /// Appends the Manchester encoding of `data` (16 chips per byte),
    /// the packed equivalent of [`crate::manchester::manchester_encode`].
    pub fn encode_bytes(&mut self, data: &[u8]) {
        self.words.reserve(data.len().div_ceil(4) + 1);
        for &b in data {
            self.push_u16(MANCHESTER_LUT[b as usize]);
        }
    }

    /// Word-wise Manchester decode into `out` (cleared first), the packed
    /// equivalent of [`crate::manchester::manchester_decode`]. Returns
    /// `false` — like the scalar `None` — when the stream is not a whole
    /// number of bytes or any chip pair lacks a mid-bit transition.
    pub fn decode_bytes_into(&self, out: &mut Vec<u8>) -> bool {
        out.clear();
        if !self.len.is_multiple_of(16) {
            return false;
        }
        for (wi, &w) in self.words.iter().enumerate() {
            let chips_here = (self.len - wi * 64).min(64);
            if chips_here == 0 {
                break;
            }
            let pair_mask = if chips_here == 64 {
                EVEN
            } else {
                EVEN & ((1u64 << chips_here) - 1)
            };
            // Mid-bit transition check: each pair's two chips must differ.
            if (w ^ (w >> 1)) & pair_mask != pair_mask {
                return false;
            }
            // The first chip of each pair is the transmitted bit.
            let bits = compress_even(w);
            let mut k = 0;
            while k * 16 < chips_here {
                // Bits arrive MSB-first: reverse to recover the byte.
                out.push(((bits >> (8 * k)) as u8).reverse_bits());
                k += 1;
            }
        }
        true
    }

    /// Number of chip positions where `self` and `other` differ
    /// (XOR + `count_ones`; the pre-FEC chip-error count).
    ///
    /// # Panics
    /// Panics when the lengths differ.
    pub fn diff_count(&self, other: &PackedChips) -> usize {
        assert_eq!(self.len, other.len, "chip stream lengths differ");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Appends every chip of `other` (word-wise; the packed equivalent of
    /// `Vec::extend_from_slice` on scalar chips).
    pub fn extend_from(&mut self, other: &PackedChips) {
        let n_words = other.len.div_ceil(64);
        self.words.reserve(n_words + 1);
        if self.len & 63 == 0 {
            self.words.extend_from_slice(&other.words[..n_words]);
            self.len += other.len;
            return;
        }
        for wi in 0..n_words {
            let w = other.words[wi];
            let chips_here = (other.len - wi * 64).min(64);
            let (sw, off) = (self.len >> 6, self.len & 63);
            if sw == self.words.len() {
                self.words.push(0);
            }
            self.words[sw] |= w << off;
            if chips_here > 64 - off {
                if sw + 1 == self.words.len() {
                    self.words.push(0);
                }
                self.words[sw + 1] |= w >> (64 - off);
            }
            self.len += chips_here;
        }
    }

    /// Builds a packed stream from scalar chips.
    pub fn from_chips(chips: &[Chip]) -> Self {
        let mut out = PackedChips::with_capacity(chips.len());
        for &c in chips {
            out.push(c);
        }
        out
    }

    /// Expands to scalar chips (for interop with the reference path).
    pub fn to_chips(&self) -> Vec<Chip> {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

/// Encodes bytes into a fresh packed stream (allocating counterpart of
/// [`PackedChips::encode_bytes`]).
pub fn packed_encode(data: &[u8]) -> PackedChips {
    let mut out = PackedChips::with_capacity(data.len() * 16);
    out.encode_bytes(data);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manchester::{manchester_decode, manchester_encode};

    /// [`PackedChips::decode_bytes_into`] in the scalar decoder's shape.
    fn decoded(p: &PackedChips) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        p.decode_bytes_into(&mut out).then_some(out)
    }

    #[test]
    fn lut_matches_scalar_encoder() {
        for b in 0..=255u8 {
            let scalar = manchester_encode(&[b]);
            let lut = MANCHESTER_LUT[b as usize];
            for (j, &chip) in scalar.iter().enumerate() {
                let bit = (lut >> j) & 1;
                assert_eq!(bit == 1, chip == Chip::High, "byte {b:#04x} chip {j}");
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let data = [0x00, 0xFF, 0x55, 0xAA, 0x13, 0x37, 0x7E];
        let packed = packed_encode(&data);
        assert_eq!(packed.len(), data.len() * 16);
        assert_eq!(decoded(&packed), Some(data.to_vec()));
        assert_eq!(packed.to_chips(), manchester_encode(&data));
    }

    #[test]
    fn invalid_pair_is_rejected_like_scalar() {
        let mut chips = manchester_encode(&[0x42]);
        chips[3] = chips[2]; // destroy a transition
        let packed = PackedChips::from_chips(&chips);
        assert_eq!(manchester_decode(&chips), None);
        assert_eq!(decoded(&packed), None);
    }

    #[test]
    fn misaligned_length_is_rejected() {
        let mut p = packed_encode(&[0xAB]);
        p.push(Chip::High);
        assert_eq!(decoded(&p), None);
        p.push(Chip::Low);
        // 18 chips: whole chip pairs, but not whole bytes.
        assert_eq!(decoded(&p), None);
    }

    #[test]
    fn diff_count_counts_flips() {
        let a = packed_encode(&[0xAA; 8]);
        let mut b = a.clone();
        assert_eq!(a.diff_count(&b), 0);
        b.words[0] ^= 0b1001;
        b.words[1] ^= 1 << 63;
        assert_eq!(a.diff_count(&b), 3);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut p = packed_encode(&[0x11; 100]);
        let cap = p.words.capacity();
        p.clear();
        assert!(p.is_empty());
        p.encode_bytes(&[0x22; 100]);
        assert_eq!(p.words.capacity(), cap, "clear must keep the allocation");
        assert_eq!(decoded(&p), Some(vec![0x22; 100]));
    }

    #[test]
    fn push_across_word_boundaries() {
        // 4 bytes = 64 chips: exactly one word; the 5th byte spills.
        let p = packed_encode(&[0xAA, 0xAA, 0xAA, 0x55, 0x7E]);
        assert_eq!(p.words().len(), 2);
        assert_eq!(
            p.to_chips(),
            manchester_encode(&[0xAA, 0xAA, 0xAA, 0x55, 0x7E])
        );
    }

    #[test]
    fn extend_from_matches_scalar_concat() {
        // Aligned (4 bytes = one whole word) and misaligned (odd chip) tails.
        let preamble = packed_encode(&[0xAA, 0xAA, 0xAA, 0x55]);
        let body = packed_encode(&[0x13, 0x37, 0xC0, 0xFF, 0xEE]);
        let mut joined = preamble.clone();
        joined.extend_from(&body);
        let mut scalar = manchester_encode(&[0xAA, 0xAA, 0xAA, 0x55]);
        scalar.extend(manchester_encode(&[0x13, 0x37, 0xC0, 0xFF, 0xEE]));
        assert_eq!(joined.to_chips(), scalar);

        let mut odd = PackedChips::new();
        odd.push(Chip::High);
        odd.extend_from(&body);
        let mut scalar_odd = vec![Chip::High];
        scalar_odd.extend(manchester_encode(&[0x13, 0x37, 0xC0, 0xFF, 0xEE]));
        assert_eq!(odd.to_chips(), scalar_odd);
    }

    #[test]
    fn count_high_is_half_for_manchester() {
        let p = packed_encode(&[0xC3, 0x00, 0xFF]);
        let high: u32 = p.words().iter().map(|w| w.count_ones()).sum();
        assert_eq!(high as usize, p.len() / 2);
    }
}

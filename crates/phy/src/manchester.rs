//! Manchester coding (paper §3.3).
//!
//! To avoid flicker and keep HIGH/LOW equiprobable, DenseVLC Manchester-codes
//! its OOK stream: a `LOW → HIGH` transition encodes a binary 0 and a
//! `HIGH → LOW` transition a binary 1. Every bit therefore occupies two
//! chips and the long-run average light level is exactly the bias.

/// One Manchester chip: the LED is at the HIGH or LOW symbol level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chip {
    /// LED at `Il = Ib − Isw/2`.
    Low,
    /// LED at `Ih = Ib + Isw/2`.
    High,
}

impl Chip {
    /// The chip's amplitude as ±1 around the bias (HIGH = +1).
    pub fn amplitude(self) -> f64 {
        match self {
            Chip::High => 1.0,
            Chip::Low => -1.0,
        }
    }
}

/// Encodes bytes MSB-first into Manchester chips: bit 0 → `[Low, High]`,
/// bit 1 → `[High, Low]`.
///
/// ```
/// use vlc_phy::manchester::{manchester_encode, manchester_decode, dc_balance};
///
/// let chips = manchester_encode(b"VLC");
/// assert_eq!(chips.len(), 3 * 16);           // two chips per bit
/// assert_eq!(dc_balance(&chips), 0.0);       // no flicker, ever
/// assert_eq!(manchester_decode(&chips).unwrap(), b"VLC");
/// ```
pub fn manchester_encode(data: &[u8]) -> Vec<Chip> {
    let mut chips = Vec::with_capacity(data.len() * 16);
    for &byte in data {
        for bit in (0..8).rev() {
            if (byte >> bit) & 1 == 1 {
                chips.push(Chip::High);
                chips.push(Chip::Low);
            } else {
                chips.push(Chip::Low);
                chips.push(Chip::High);
            }
        }
    }
    chips
}

/// Decodes Manchester chips back to bytes. Requires a whole number of bytes
/// (16 chips each) and valid mid-bit transitions.
///
/// Returns `None` when the chip stream has an invalid length or contains a
/// chip pair without a transition (`Low,Low` / `High,High`), which real
/// receivers treat as a symbol error.
pub fn manchester_decode(chips: &[Chip]) -> Option<Vec<u8>> {
    if !chips.len().is_multiple_of(16) {
        return None;
    }
    let mut out = Vec::with_capacity(chips.len() / 16);
    for byte_chips in chips.chunks(16) {
        let mut byte = 0u8;
        for pair in byte_chips.chunks(2) {
            let bit = match (pair[0], pair[1]) {
                (Chip::Low, Chip::High) => false,
                (Chip::High, Chip::Low) => true,
                _ => return None,
            };
            byte = (byte << 1) | u8::from(bit);
        }
        out.push(byte);
    }
    Some(out)
}

/// The DC balance of a chip stream: mean amplitude (0.0 = perfectly
/// balanced, the no-flicker requirement).
pub fn dc_balance(chips: &[Chip]) -> f64 {
    if chips.is_empty() {
        return 0.0;
    }
    chips.iter().map(|c| c.amplitude()).sum::<f64>() / chips.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_known_byte() {
        // 0xA0 = 1010 0000: 1→HL, 0→LH.
        let chips = manchester_encode(&[0xA0]);
        use Chip::*;
        assert_eq!(
            chips,
            vec![
                High, Low, Low, High, High, Low, Low, High, // 1010
                Low, High, Low, High, Low, High, Low, High, // 0000
            ]
        );
    }

    #[test]
    fn roundtrip_bytes() {
        let data = [0x00, 0xFF, 0x55, 0xAA, 0x13, 0x37];
        let chips = manchester_encode(&data);
        assert_eq!(manchester_decode(&chips), Some(data.to_vec()));
    }

    #[test]
    fn every_stream_is_dc_balanced() {
        for data in [&[0u8][..], &[0xFF; 8][..], &[1, 2, 3][..]] {
            let chips = manchester_encode(data);
            assert_eq!(dc_balance(&chips), 0.0, "data {data:?}");
        }
    }

    #[test]
    fn invalid_pairs_are_rejected() {
        use Chip::*;
        let bad = vec![
            Low, Low, High, Low, Low, High, High, Low, Low, High, Low, High, Low, High, Low, High,
        ];
        assert_eq!(manchester_decode(&bad), None);
    }

    #[test]
    fn misaligned_length_is_rejected() {
        let chips = manchester_encode(&[0x42]);
        assert_eq!(manchester_decode(&chips[..15]), None);
    }

    #[test]
    fn amplitude_convention() {
        assert_eq!(Chip::High.amplitude(), 1.0);
        assert_eq!(Chip::Low.amplitude(), -1.0);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let chips = manchester_encode(&data);
            prop_assert_eq!(manchester_decode(&chips), Some(data.clone()));
            // Two chips per bit, eight bits per byte.
            prop_assert_eq!(chips.len(), data.len() * 16);
            // DC balance is exact for any input.
            prop_assert!(dc_balance(&chips).abs() < 1e-15);
        }
    }
}

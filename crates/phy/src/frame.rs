//! The DenseVLC frame structure (paper Table 3).
//!
//! The controller multicasts frames over Ethernet to the TXs; each VLC
//! frame then carries, in order: an 8-byte TX-ID bitmask selecting which of
//! the (up to 64) transmitters must radiate the frame, a 32-symbol pilot
//! used by the NLOS synchronization, a 32-symbol preamble, then the MAC
//! portion — SFD (1 B), Length (2 B), Dst (2 B), Src (2 B), Protocol (2 B),
//! the payload, and `⌈x/200⌉ × 16` Reed–Solomon parity bytes.

use crate::codec::{CodecError, CodecStack, Correction};
use crate::rs::{ReedSolomon, RsCodec, RsError};
use serde::{Deserialize, Serialize};
use std::fmt;
use vlc_telemetry::Registry;

/// Start-of-frame delimiter value.
pub const SFD: u8 = 0x7E;
/// Pilot length in chips (paper: 32 symbols).
pub const PILOT_SYMBOLS: usize = 32;
/// Preamble length in chips (paper: 32 symbols).
pub const PREAMBLE_SYMBOLS: usize = 32;
/// Maximum payload the 2-byte length field supports.
pub const MAX_PAYLOAD: usize = u16::MAX as usize;

/// Errors raised while parsing a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrameError {
    /// The byte stream ended before the fixed header completed.
    Truncated,
    /// The SFD byte was wrong (frame sync lost).
    BadSfd {
        /// The byte found instead of [`SFD`].
        found: u8,
    },
    /// The payload + parity region doesn't match the length field.
    LengthMismatch {
        /// Bytes declared by the header.
        declared: usize,
        /// Bytes actually present.
        available: usize,
    },
    /// Reed–Solomon failed to correct the payload.
    Uncorrectable,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated before header end"),
            FrameError::BadSfd { found } => write!(f, "bad SFD byte {found:#04x}"),
            FrameError::LengthMismatch {
                declared,
                available,
            } => {
                write!(
                    f,
                    "length field says {declared} B but {available} B present"
                )
            }
            FrameError::Uncorrectable => write!(f, "Reed-Solomon could not repair payload"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<RsError> for FrameError {
    fn from(_: RsError) -> Self {
        FrameError::Uncorrectable
    }
}

impl From<CodecError> for FrameError {
    // The frame layer validates the coded region's length before handing
    // it to the stack, so a surviving stack error — either variant — means
    // the payload could not be recovered.
    fn from(_: CodecError) -> Self {
        FrameError::Uncorrectable
    }
}

/// The MAC-level header fields of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameHeader {
    /// Destination address (receiver ID).
    pub dst: u16,
    /// Source address (controller / leading-TX ID).
    pub src: u16,
    /// Protocol discriminator (data, ACK, channel report, …).
    pub protocol: u16,
}

/// A DenseVLC MAC frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame {
    /// Bitmask of TX IDs that must radiate this frame (bit `i` = TX `i`).
    pub tx_id_mask: u64,
    /// Header fields.
    pub header: FrameHeader,
    /// The application payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Creates a frame addressed from `src` to `dst`.
    ///
    /// # Panics
    /// Panics if the payload exceeds the 2-byte length field.
    pub fn new(tx_id_mask: u64, header: FrameHeader, payload: Vec<u8>) -> Self {
        assert!(
            payload.len() <= MAX_PAYLOAD,
            "payload exceeds the length field"
        );
        Frame {
            tx_id_mask,
            header,
            payload,
        }
    }

    /// True when TX `tx` (zero-based) is selected to radiate this frame.
    pub fn selects_tx(&self, tx: usize) -> bool {
        tx < 64 && (self.tx_id_mask >> tx) & 1 == 1
    }

    /// Builds a TX-ID mask from a list of zero-based TX indices.
    ///
    /// # Panics
    /// Panics on an index ≥ 64 (the 8-byte field's limit).
    pub fn mask_for(txs: &[usize]) -> u64 {
        let mut mask = 0u64;
        for &t in txs {
            assert!(t < 64, "TX index {t} does not fit the 8-byte ID field");
            mask |= 1 << t;
        }
        mask
    }

    /// Serializes the MAC portion (from SFD; the pilot and preamble are
    /// waveform-level and prepended by the modulator): SFD, Length, Dst,
    /// Src, Protocol, RS-coded payload.
    pub fn to_bytes(&self, rs: &ReedSolomon) -> Vec<u8> {
        let coded = rs.encode_payload(&self.payload);
        let mut out = Vec::with_capacity(17 + coded.len());
        out.extend_from_slice(&self.tx_id_mask.to_be_bytes());
        out.push(SFD);
        out.extend_from_slice(&(self.payload.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.header.dst.to_be_bytes());
        out.extend_from_slice(&self.header.src.to_be_bytes());
        out.extend_from_slice(&self.header.protocol.to_be_bytes());
        out.extend_from_slice(&coded);
        out
    }

    /// Parses and error-corrects a byte stream produced by
    /// [`Frame::to_bytes`]. Returns the frame and the number of RS-corrected
    /// byte errors.
    pub fn from_bytes(bytes: &[u8], rs: &ReedSolomon) -> Result<(Frame, usize), FrameError> {
        const FIXED: usize = 8 + 1 + 2 + 2 + 2 + 2;
        if bytes.len() < FIXED {
            return Err(FrameError::Truncated);
        }
        let tx_id_mask = u64::from_be_bytes(bytes[0..8].try_into().expect("8 bytes"));
        if bytes[8] != SFD {
            return Err(FrameError::BadSfd { found: bytes[8] });
        }
        let payload_len = u16::from_be_bytes([bytes[9], bytes[10]]) as usize;
        let dst = u16::from_be_bytes([bytes[11], bytes[12]]);
        let src = u16::from_be_bytes([bytes[13], bytes[14]]);
        let protocol = u16::from_be_bytes([bytes[15], bytes[16]]);
        let n_chunks = payload_len.div_ceil(crate::rs::PAPER_CHUNK);
        let coded_len = payload_len + n_chunks * rs.parity_len();
        let available = bytes.len() - FIXED;
        if available != coded_len {
            return Err(FrameError::LengthMismatch {
                declared: coded_len,
                available,
            });
        }
        let mut coded = bytes[FIXED..].to_vec();
        let (payload, corrected) = rs.decode_payload(&mut coded, payload_len)?;
        Ok((
            Frame {
                tx_id_mask,
                header: FrameHeader { dst, src, protocol },
                payload,
            },
            corrected,
        ))
    }

    /// Byte offset of the RS-coded payload region ([`SFD`] byte and header
    /// fields precede it; the 8-byte TX mask comes first).
    pub const FIXED_LEN: usize = 8 + 1 + 2 + 2 + 2 + 2;

    /// Serializes a frame's parts into `out` (appended) through any
    /// [`CodecStack`] — the generic zero-alloc twin of [`Frame::to_bytes`]:
    /// same fixed header, with the payload region coded by the stack.
    pub fn encode_parts_with<S: CodecStack + ?Sized>(
        tx_id_mask: u64,
        header: &FrameHeader,
        payload: &[u8],
        stack: &mut S,
        out: &mut Vec<u8>,
    ) {
        assert!(
            payload.len() <= MAX_PAYLOAD,
            "payload exceeds the length field"
        );
        out.extend_from_slice(&tx_id_mask.to_be_bytes());
        out.push(SFD);
        out.extend_from_slice(&(payload.len() as u16).to_be_bytes());
        out.extend_from_slice(&header.dst.to_be_bytes());
        out.extend_from_slice(&header.src.to_be_bytes());
        out.extend_from_slice(&header.protocol.to_be_bytes());
        stack.encode_into(payload, out);
    }

    /// Parses a wire stream through any [`CodecStack`] — the generic
    /// zero-alloc twin of [`Frame::from_bytes`]: identical field decoding
    /// and errors, with the coded region's length validated against
    /// [`CodecStack::encoded_len`] before the stack decodes it into
    /// `payload_out` (cleared first). Returns the TX mask, header, and
    /// corrected symbol count.
    pub fn decode_parts_with<S: CodecStack + ?Sized>(
        bytes: &[u8],
        stack: &mut S,
        payload_out: &mut Vec<u8>,
    ) -> Result<(u64, FrameHeader, usize), FrameError> {
        payload_out.clear();
        if bytes.len() < Self::FIXED_LEN {
            return Err(FrameError::Truncated);
        }
        let tx_id_mask = u64::from_be_bytes(bytes[0..8].try_into().expect("8 bytes"));
        if bytes[8] != SFD {
            return Err(FrameError::BadSfd { found: bytes[8] });
        }
        let payload_len = u16::from_be_bytes([bytes[9], bytes[10]]) as usize;
        let dst = u16::from_be_bytes([bytes[11], bytes[12]]);
        let src = u16::from_be_bytes([bytes[13], bytes[14]]);
        let protocol = u16::from_be_bytes([bytes[15], bytes[16]]);
        let coded_len = stack.encoded_len(payload_len);
        let available = bytes.len() - Self::FIXED_LEN;
        if available != coded_len {
            return Err(FrameError::LengthMismatch {
                declared: coded_len,
                available,
            });
        }
        let corrected = stack.decode_into(&bytes[Self::FIXED_LEN..], payload_len, payload_out)?;
        Ok((tx_id_mask, FrameHeader { dst, src, protocol }, corrected))
    }

    /// Serializes a frame's parts into `out` (appended) through a reusable
    /// [`RsCodec`] — the zero-alloc twin of [`Frame::to_bytes`], producing
    /// byte-identical wire bytes without owning a [`Frame`]. Routed through
    /// [`Frame::encode_parts_with`] over the RS stack adapter.
    pub fn encode_parts_into(
        tx_id_mask: u64,
        header: &FrameHeader,
        payload: &[u8],
        codec: &mut RsCodec,
        out: &mut Vec<u8>,
    ) {
        let mut stack = RsParts {
            codec,
            scratch: None,
        };
        Frame::encode_parts_with(tx_id_mask, header, payload, &mut stack, out);
    }

    /// Parses and error-corrects a wire stream into caller-owned buffers —
    /// the zero-alloc twin of [`Frame::from_bytes`]: identical field
    /// decoding, identical errors, and the corrected payload lands in
    /// `payload_out` (cleared first; `coded_scratch` holds the working
    /// copy of the RS region). Returns the TX mask, header, and corrected
    /// byte count. Routed through [`Frame::decode_parts_with`] over the RS
    /// stack adapter.
    pub fn decode_parts_into(
        bytes: &[u8],
        codec: &mut RsCodec,
        coded_scratch: &mut Vec<u8>,
        payload_out: &mut Vec<u8>,
    ) -> Result<(u64, FrameHeader, usize), FrameError> {
        let mut stack = RsParts {
            codec,
            scratch: Some(coded_scratch),
        };
        Frame::decode_parts_with(bytes, &mut stack, payload_out)
    }

    /// [`Self::to_bytes`] with telemetry: counts the frame into
    /// `phy.frames_encoded`.
    pub fn to_bytes_traced(&self, rs: &ReedSolomon, telemetry: &Registry) -> Vec<u8> {
        telemetry.counter("phy.frames_encoded").inc();
        self.to_bytes(rs)
    }

    /// [`Self::from_bytes`] with telemetry. Successful decodes count into
    /// `phy.frames_decoded` and their repaired bytes into
    /// `phy.rs_symbols_corrected`; a Reed–Solomon failure counts into
    /// `phy.rs_uncorrectable` (plus an `rs_uncorrectable` event); any other
    /// parse failure — bad SFD, truncation, length mismatch, i.e. loss of
    /// frame integrity before FEC even runs — counts into
    /// `phy.frame_sync_errors`.
    pub fn from_bytes_traced(
        bytes: &[u8],
        rs: &ReedSolomon,
        telemetry: &Registry,
    ) -> Result<(Frame, usize), FrameError> {
        let result = Frame::from_bytes(bytes, rs);
        match &result {
            Ok((_, corrected)) => {
                telemetry.counter("phy.frames_decoded").inc();
                telemetry
                    .counter("phy.rs_symbols_corrected")
                    .add(*corrected as u64);
            }
            Err(FrameError::Uncorrectable) => {
                telemetry.counter("phy.rs_uncorrectable").inc();
                telemetry.event("phy.frame", "rs_uncorrectable", &[]);
            }
            Err(_) => {
                telemetry.counter("phy.frame_sync_errors").inc();
            }
        }
        result
    }

    /// Total on-air MAC bytes for a payload of `payload_len` (header fields
    /// plus RS overhead; excludes pilot/preamble chips).
    pub fn wire_len(payload_len: usize, rs: &ReedSolomon) -> usize {
        let n_chunks = payload_len.div_ceil(crate::rs::PAPER_CHUNK);
        8 + 1 + 2 + 2 + 2 + 2 + payload_len + n_chunks * rs.parity_len()
    }

    /// [`Frame::wire_len`] for any [`CodecStack`]: fixed header plus the
    /// stack's coded length.
    pub fn wire_len_with<S: CodecStack + ?Sized>(payload_len: usize, stack: &S) -> usize {
        Self::FIXED_LEN + stack.encoded_len(payload_len)
    }
}

/// The historical RS parts path as a [`CodecStack`]: borrows the caller's
/// [`RsCodec`] and (for decode) external coded scratch, so
/// [`Frame::encode_parts_into`] / [`Frame::decode_parts_into`] keep their
/// exact signatures and buffer contracts while running on the same generic
/// code as every other stack.
struct RsParts<'a> {
    codec: &'a mut RsCodec,
    /// Working copy of the coded region; `None` on the encode-only path.
    scratch: Option<&'a mut Vec<u8>>,
}

impl CodecStack for RsParts<'_> {
    fn name(&self) -> &str {
        "rs"
    }

    fn encoded_len(&self, payload_len: usize) -> usize {
        let n_chunks = payload_len.div_ceil(crate::rs::PAPER_CHUNK);
        payload_len + n_chunks * self.codec.parity_len()
    }

    fn correction(&self) -> Correction {
        let t = self.codec.correction_capacity();
        Correction {
            t_per_block: t,
            block_len: crate::rs::PAPER_CHUNK + self.codec.parity_len(),
            burst_tolerance: t,
        }
    }

    fn encode_into(&mut self, payload: &[u8], out: &mut Vec<u8>) {
        self.codec.encode_payload_into(payload, out);
    }

    fn decode_into(
        &mut self,
        coded: &[u8],
        payload_len: usize,
        payload_out: &mut Vec<u8>,
    ) -> Result<usize, CodecError> {
        let scratch = self
            .scratch
            .as_deref_mut()
            .expect("decode requires coded scratch");
        scratch.clear();
        scratch.extend_from_slice(coded);
        let corrected = self.codec.decode_payload_in_place(scratch, payload_len)?;
        self.codec
            .extract_payload_into(scratch, payload_len, payload_out);
        Ok(corrected)
    }

    fn encode_ref(&self, payload: &[u8]) -> Vec<u8> {
        self.codec.reference().encode_payload(payload)
    }

    fn decode_ref(&self, coded: &[u8], payload_len: usize) -> Result<(Vec<u8>, usize), CodecError> {
        let mut buf = coded.to_vec();
        Ok(self
            .codec
            .reference()
            .decode_payload(&mut buf, payload_len)?)
    }
}

/// Well-known protocol discriminators used by the MAC.
pub mod protocol {
    /// Downlink user data.
    pub const DATA: u16 = 0x0001;
    /// Channel-measurement pilot announcement.
    pub const PILOT: u16 = 0x0002;
    /// Uplink channel-quality report (over WiFi).
    pub const CHANNEL_REPORT: u16 = 0x0003;
    /// Uplink MAC acknowledgement (over WiFi).
    pub const ACK: u16 = 0x0004;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rs() -> ReedSolomon {
        ReedSolomon::paper()
    }

    fn sample_frame(payload: Vec<u8>) -> Frame {
        Frame::new(
            Frame::mask_for(&[1, 7, 8]),
            FrameHeader {
                dst: 0x0102,
                src: 0xfffe,
                protocol: protocol::DATA,
            },
            payload,
        )
    }

    #[test]
    fn roundtrip_without_errors() {
        let frame = sample_frame((0..300u16).map(|i| (i % 256) as u8).collect());
        let bytes = frame.to_bytes(&rs());
        let (parsed, fixed) = Frame::from_bytes(&bytes, &rs()).expect("clean frame");
        assert_eq!(parsed, frame);
        assert_eq!(fixed, 0);
    }

    #[test]
    fn wire_len_matches_serialization() {
        for len in [0usize, 1, 199, 200, 201, 450] {
            let frame = sample_frame(vec![0xab; len]);
            assert_eq!(
                frame.to_bytes(&rs()).len(),
                Frame::wire_len(len, &rs()),
                "len {len}"
            );
        }
    }

    #[test]
    fn rs_repairs_payload_corruption() {
        let frame = sample_frame((0..200u8).collect());
        let mut bytes = frame.to_bytes(&rs());
        // Flip three payload bytes (region after the 17-byte fixed part).
        bytes[20] ^= 0x41;
        bytes[60] ^= 0x01;
        bytes[199] ^= 0xff;
        let (parsed, fixed) = Frame::from_bytes(&bytes, &rs()).expect("repairable");
        assert_eq!(parsed.payload, frame.payload);
        assert_eq!(fixed, 3);
    }

    #[test]
    fn too_much_corruption_is_flagged() {
        let frame = sample_frame((0..200u8).collect());
        let mut bytes = frame.to_bytes(&rs());
        for i in 0..30 {
            bytes[17 + i * 7] ^= 0x5a;
        }
        match Frame::from_bytes(&bytes, &rs()) {
            Err(FrameError::Uncorrectable) => {}
            Ok((parsed, _)) => assert_eq!(parsed.payload, frame.payload),
            Err(e) => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn bad_sfd_is_reported() {
        let frame = sample_frame(vec![1, 2, 3]);
        let mut bytes = frame.to_bytes(&rs());
        bytes[8] = 0x00;
        assert_eq!(
            Frame::from_bytes(&bytes, &rs()),
            Err(FrameError::BadSfd { found: 0x00 })
        );
    }

    #[test]
    fn truncation_is_reported() {
        assert_eq!(
            Frame::from_bytes(&[0u8; 5], &rs()),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn length_mismatch_is_reported() {
        let frame = sample_frame(vec![9; 50]);
        let mut bytes = frame.to_bytes(&rs());
        bytes.pop();
        assert!(matches!(
            Frame::from_bytes(&bytes, &rs()),
            Err(FrameError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn tx_mask_selects_correct_txs() {
        let frame = sample_frame(vec![]);
        assert!(frame.selects_tx(1));
        assert!(frame.selects_tx(7));
        assert!(frame.selects_tx(8));
        assert!(!frame.selects_tx(0));
        assert!(!frame.selects_tx(63));
        assert!(!frame.selects_tx(64)); // out of field range, never selected
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn mask_for_rejects_large_index() {
        Frame::mask_for(&[64]);
    }

    #[test]
    fn parts_codec_matches_owned_frame_path() {
        let mut codec = RsCodec::paper();
        let frame = sample_frame((0..300u16).map(|i| (i % 256) as u8).collect());
        let mut wire = Vec::new();
        Frame::encode_parts_into(
            frame.tx_id_mask,
            &frame.header,
            &frame.payload,
            &mut codec,
            &mut wire,
        );
        assert_eq!(wire, frame.to_bytes(&rs()));
        wire[20] ^= 0x41;
        wire[260] ^= 0x7f;
        let mut scratch = Vec::new();
        let mut payload = Vec::new();
        let (mask, header, corrected) =
            Frame::decode_parts_into(&wire, &mut codec, &mut scratch, &mut payload)
                .expect("repairable");
        let (parsed, fixed) = Frame::from_bytes(&wire, &rs()).expect("repairable");
        assert_eq!(mask, parsed.tx_id_mask);
        assert_eq!(header, parsed.header);
        assert_eq!(corrected, fixed);
        assert_eq!(payload, parsed.payload);
    }

    #[test]
    fn parts_codec_reports_same_errors() {
        let mut codec = RsCodec::paper();
        let mut scratch = Vec::new();
        let mut payload = Vec::new();
        let frame = sample_frame(vec![1, 2, 3]);
        let mut bytes = frame.to_bytes(&rs());
        bytes[8] = 0x00;
        assert_eq!(
            Frame::decode_parts_into(&bytes, &mut codec, &mut scratch, &mut payload),
            Err(FrameError::BadSfd { found: 0x00 })
        );
        assert_eq!(
            Frame::decode_parts_into(&[0u8; 5], &mut codec, &mut scratch, &mut payload),
            Err(FrameError::Truncated)
        );
        let mut short = frame.to_bytes(&rs());
        short.pop();
        assert!(matches!(
            Frame::decode_parts_into(&short, &mut codec, &mut scratch, &mut payload),
            Err(FrameError::LengthMismatch { .. })
        ));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            payload in proptest::collection::vec(any::<u8>(), 0..600),
            dst in any::<u16>(),
            src in any::<u16>(),
            proto in any::<u16>(),
            mask in any::<u64>(),
        ) {
            let frame = Frame::new(mask, FrameHeader { dst, src, protocol: proto }, payload);
            let bytes = frame.to_bytes(&rs());
            let (parsed, fixed) = Frame::from_bytes(&bytes, &rs()).expect("clean");
            prop_assert_eq!(parsed, frame);
            prop_assert_eq!(fixed, 0);
        }
    }
}

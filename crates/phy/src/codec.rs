//! The pluggable FEC stack behind the frame pipeline.
//!
//! The paper fixes its PHY at Manchester + RS(216, 200); this module makes
//! the byte-level FEC layer a trait so the frame pipeline (and the
//! `codec_campaign` bench harness) can run the same wire format over
//! alternative codes. A [`CodecStack`] owns all of its scratch, encodes a
//! payload into caller buffers and decodes it back, and reports its
//! overhead and correction guarantees.
//!
//! Every stack keeps the repo's twin discipline: the `&mut self` methods
//! ([`CodecStack::encode_into`] / [`CodecStack::decode_into`]) are the
//! zero-alloc workspace path (0 heap allocations per frame once warm —
//! proven in `crates/phy/tests/zero_alloc.rs`), while
//! [`CodecStack::encode_ref`] / [`CodecStack::decode_ref`] are allocating
//! reference implementations pinned equivalent by the proptests in
//! `crates/phy/tests/codec_identity.rs`.
//!
//! The stock catalogue ([`registry`]):
//!
//! | name          | scheme                                   | overhead on 200 B |
//! |---------------|------------------------------------------|-------------------|
//! | `rs`          | the paper's chunked RS(216, 200)         | 16 B              |
//! | `rs+il16`     | RS(216, 200) under a depth-16 interleave | 16 B              |
//! | `conv_k7+crc32` | rate-1/2 K=7 convolutional over payload‖CRC-32 | 208 B      |
//! | `crc32`       | uncoded, CRC-32 detect-only baseline     | 4 B               |

use crate::conv::{self, ConvWorkspace};
use crate::crc::{crc32, CRC_LEN};
use crate::interleave::Interleaver;
use crate::rs::{RsCodec, RsError, RsParams};
use std::fmt;

/// Errors surfaced by a [`CodecStack`] decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The stack could not recover the payload (too many errors, or an
    /// integrity check failed).
    Uncorrectable,
    /// The coded stream does not have the length the stack expects for the
    /// declared payload length (truncation / chip deletion).
    BadLength {
        /// Offending coded length in bytes.
        len: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Uncorrectable => write!(f, "codec stack could not recover the payload"),
            CodecError::BadLength { len } => write!(f, "invalid coded stream length {len}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<RsError> for CodecError {
    fn from(e: RsError) -> Self {
        match e {
            RsError::TooManyErrors => CodecError::Uncorrectable,
            RsError::BadBlockLength { len } => CodecError::BadLength { len },
        }
    }
}

/// A stack's correction-capacity metadata, as advertised guarantees (what
/// the code *promises*, not what it may opportunistically achieve).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Correction {
    /// Guaranteed correctable byte errors per coded block of
    /// [`Correction::block_len`] bytes. 0 for detect-only stacks and for
    /// codes (like the convolutional stack) whose guarantee is statistical
    /// rather than per-block.
    pub t_per_block: usize,
    /// Coded block size in bytes over which `t_per_block` applies; 0 when
    /// no block-level guarantee exists.
    pub block_len: usize,
    /// Longest single channel byte-burst guaranteed recoverable (one burst
    /// per frame); 0 when nothing is guaranteed.
    pub burst_tolerance: usize,
}

/// A pluggable FEC codec stack over caller buffers.
///
/// Contract:
/// * `encode_into(payload, out)` **appends** exactly
///   `encoded_len(payload.len())` bytes to `out`.
/// * `decode_into(coded, payload_len, payload_out)` **appends** exactly
///   `payload_len` recovered bytes to `payload_out` on success and appends
///   nothing on error; `coded` must be `encoded_len(payload_len)` bytes or
///   the stack returns [`CodecError::BadLength`]. The `Ok` value counts
///   corrected symbols in the stack's native unit (bytes for the RS
///   stacks, channel bits for the convolutional stack, always 0 for the
///   detect-only baseline).
/// * `decode(encode(payload)) == payload` for every payload up to the
///   frame layer's maximum — pinned for all registered stacks by
///   `crates/phy/tests/codec_identity.rs`.
pub trait CodecStack {
    /// Stable identifier used in campaign reports and obs streams.
    fn name(&self) -> &str;

    /// Coded length in bytes for a `payload_len`-byte payload.
    fn encoded_len(&self, payload_len: usize) -> usize;

    /// Advertised correction guarantees.
    fn correction(&self) -> Correction;

    /// Appends the coded payload to `out` (workspace path).
    fn encode_into(&mut self, payload: &[u8], out: &mut Vec<u8>);

    /// Recovers the payload from `coded`, appending it to `payload_out`;
    /// returns the corrected-symbol count (workspace path).
    fn decode_into(
        &mut self,
        coded: &[u8],
        payload_len: usize,
        payload_out: &mut Vec<u8>,
    ) -> Result<usize, CodecError>;

    /// Allocating reference twin of [`CodecStack::encode_into`].
    fn encode_ref(&self, payload: &[u8]) -> Vec<u8>;

    /// Allocating reference twin of [`CodecStack::decode_into`].
    fn decode_ref(&self, coded: &[u8], payload_len: usize) -> Result<(Vec<u8>, usize), CodecError>;
}

/// The paper's stack: chunked RS(216, 200) (or any `nroots`), no
/// interleaving — [`RsCodec`] behind the [`CodecStack`] trait. The frame
/// pipeline runs on this implementation; `e2e` identity tests pin it
/// bit-identical to the pre-trait code path.
#[derive(Debug, Clone)]
pub struct RsStack {
    codec: RsCodec,
    scratch: Vec<u8>,
}

impl RsStack {
    /// A stack with `nroots` parity bytes per chunk.
    pub fn new(nroots: usize) -> Self {
        RsStack {
            codec: RsCodec::new(nroots),
            scratch: Vec::new(),
        }
    }

    /// The paper's RS(216, 200) stack.
    pub fn paper() -> Self {
        RsStack::new(RsParams::PAPER.nroots)
    }
}

impl CodecStack for RsStack {
    fn name(&self) -> &str {
        "rs"
    }

    fn encoded_len(&self, payload_len: usize) -> usize {
        payload_len + payload_len.div_ceil(RsParams::PAPER.chunk) * self.codec.parity_len()
    }

    fn correction(&self) -> Correction {
        let t = self.codec.correction_capacity();
        Correction {
            t_per_block: t,
            block_len: RsParams::PAPER.chunk + self.codec.parity_len(),
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
        self.scratch.clear();
        self.scratch.extend_from_slice(coded);
        let corrected = self
            .codec
            .decode_payload_in_place(&mut self.scratch, payload_len)?;
        self.codec
            .extract_payload_into(&self.scratch, payload_len, payload_out);
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

/// RS under a block interleaver: same overhead as [`RsStack`], but a
/// channel burst is diluted across `depth` chunks, stretching the
/// guaranteed burst tolerance from `t` to `depth × t` bytes (verified
/// empirically by `crates/phy/tests/burst_tolerance.rs`).
#[derive(Debug, Clone)]
pub struct InterleavedRsStack {
    codec: RsCodec,
    il: Interleaver,
    name: String,
    scratch: Vec<u8>,
}

impl InterleavedRsStack {
    /// A stack with `nroots` parity bytes per chunk under a `depth`-row
    /// interleaver.
    pub fn new(nroots: usize, depth: usize) -> Self {
        InterleavedRsStack {
            codec: RsCodec::new(nroots),
            il: Interleaver::new(depth),
            name: format!("rs+il{depth}"),
            scratch: Vec::new(),
        }
    }

    /// The paper's RS parameters under a depth-16 interleaver.
    pub fn paper16() -> Self {
        InterleavedRsStack::new(RsParams::PAPER.nroots, 16)
    }
}

impl CodecStack for InterleavedRsStack {
    fn name(&self) -> &str {
        &self.name
    }

    fn encoded_len(&self, payload_len: usize) -> usize {
        payload_len + payload_len.div_ceil(RsParams::PAPER.chunk) * self.codec.parity_len()
    }

    fn correction(&self) -> Correction {
        let t = self.codec.correction_capacity();
        Correction {
            t_per_block: t,
            block_len: RsParams::PAPER.chunk + self.codec.parity_len(),
            burst_tolerance: self.il.burst_tolerance(t),
        }
    }

    fn encode_into(&mut self, payload: &[u8], out: &mut Vec<u8>) {
        self.scratch.clear();
        self.codec.encode_payload_into(payload, &mut self.scratch);
        self.il.interleave_into(&self.scratch, out);
    }

    fn decode_into(
        &mut self,
        coded: &[u8],
        payload_len: usize,
        payload_out: &mut Vec<u8>,
    ) -> Result<usize, CodecError> {
        if coded.len() != self.encoded_len(payload_len) {
            return Err(CodecError::BadLength { len: coded.len() });
        }
        self.scratch.clear();
        self.il.deinterleave_into(coded, &mut self.scratch);
        let corrected = self
            .codec
            .decode_payload_in_place(&mut self.scratch, payload_len)?;
        self.codec
            .extract_payload_into(&self.scratch, payload_len, payload_out);
        Ok(corrected)
    }

    fn encode_ref(&self, payload: &[u8]) -> Vec<u8> {
        self.il
            .interleave(&self.codec.reference().encode_payload(payload))
    }

    fn decode_ref(&self, coded: &[u8], payload_len: usize) -> Result<(Vec<u8>, usize), CodecError> {
        if coded.len() != self.encoded_len(payload_len) {
            return Err(CodecError::BadLength { len: coded.len() });
        }
        let mut buf = self.il.deinterleave(coded);
        Ok(self
            .codec
            .reference()
            .decode_payload(&mut buf, payload_len)?)
    }
}

/// A rate-1/2 constraint-length-7 convolutional code over `payload ‖
/// CRC-32`: the Viterbi decoder always produces *some* bit stream, so the
/// CRC is what turns a wrong path into a detected failure. Roughly 2×
/// overhead buys correction of scattered bit errors well past the RS
/// stacks' byte budget — but no hard per-block guarantee (see
/// [`Correction`]).
#[derive(Debug, Clone, Default)]
pub struct ConvStack {
    ws: ConvWorkspace,
    buf: Vec<u8>,
}

impl ConvStack {
    /// Creates the stack (buffers grow on first use).
    pub fn new() -> Self {
        ConvStack::default()
    }
}

impl CodecStack for ConvStack {
    fn name(&self) -> &str {
        "conv_k7+crc32"
    }

    fn encoded_len(&self, payload_len: usize) -> usize {
        conv::coded_len(payload_len + CRC_LEN)
    }

    fn correction(&self) -> Correction {
        // Free distance 10 corrects scattered bit errors, but any dense
        // burst defeats the code's 6-bit memory: no byte-level guarantee.
        Correction {
            t_per_block: 0,
            block_len: 0,
            burst_tolerance: 0,
        }
    }

    fn encode_into(&mut self, payload: &[u8], out: &mut Vec<u8>) {
        self.buf.clear();
        self.buf.extend_from_slice(payload);
        self.buf.extend_from_slice(&crc32(payload).to_be_bytes());
        self.ws.encode_into(&self.buf, out);
    }

    fn decode_into(
        &mut self,
        coded: &[u8],
        payload_len: usize,
        payload_out: &mut Vec<u8>,
    ) -> Result<usize, CodecError> {
        self.buf.clear();
        let corrected = self
            .ws
            .decode_into(coded, payload_len + CRC_LEN, &mut self.buf)
            .ok_or(CodecError::BadLength { len: coded.len() })?;
        let (msg, tail) = self.buf.split_at(payload_len);
        if tail != crc32(msg).to_be_bytes() {
            return Err(CodecError::Uncorrectable);
        }
        payload_out.extend_from_slice(msg);
        Ok(corrected)
    }

    fn encode_ref(&self, payload: &[u8]) -> Vec<u8> {
        let mut msg = payload.to_vec();
        msg.extend_from_slice(&crc32(payload).to_be_bytes());
        conv::conv_encode(&msg)
    }

    fn decode_ref(&self, coded: &[u8], payload_len: usize) -> Result<(Vec<u8>, usize), CodecError> {
        let (mut msg, corrected) = conv::viterbi_decode(coded, payload_len + CRC_LEN)
            .ok_or(CodecError::BadLength { len: coded.len() })?;
        let tail = msg.split_off(payload_len);
        if tail != crc32(&msg).to_be_bytes() {
            return Err(CodecError::Uncorrectable);
        }
        Ok((msg, corrected))
    }
}

/// The uncoded baseline: `payload ‖ CRC-32`, 4 bytes of overhead, zero
/// correction — every corrupted frame is a detected loss. This is the
/// frontier's origin point: any FEC stack must beat it on PER to justify
/// its overhead.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrcStack;

impl CrcStack {
    /// Creates the stack.
    pub fn new() -> Self {
        CrcStack
    }
}

impl CodecStack for CrcStack {
    fn name(&self) -> &str {
        "crc32"
    }

    fn encoded_len(&self, payload_len: usize) -> usize {
        payload_len + CRC_LEN
    }

    fn correction(&self) -> Correction {
        Correction {
            t_per_block: 0,
            block_len: 0,
            burst_tolerance: 0,
        }
    }

    fn encode_into(&mut self, payload: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(payload);
        out.extend_from_slice(&crc32(payload).to_be_bytes());
    }

    fn decode_into(
        &mut self,
        coded: &[u8],
        payload_len: usize,
        payload_out: &mut Vec<u8>,
    ) -> Result<usize, CodecError> {
        if coded.len() != payload_len + CRC_LEN {
            return Err(CodecError::BadLength { len: coded.len() });
        }
        let (msg, tail) = coded.split_at(payload_len);
        if tail != crc32(msg).to_be_bytes() {
            return Err(CodecError::Uncorrectable);
        }
        payload_out.extend_from_slice(msg);
        Ok(0)
    }

    fn encode_ref(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(payload.len() + CRC_LEN);
        out.extend_from_slice(payload);
        out.extend_from_slice(&crc32(payload).to_be_bytes());
        out
    }

    fn decode_ref(&self, coded: &[u8], payload_len: usize) -> Result<(Vec<u8>, usize), CodecError> {
        let mut out = Vec::new();
        let corrected = CrcStack.decode_into(coded, payload_len, &mut out)?;
        Ok((out, corrected))
    }
}

/// Every stock stack, in presentation order. The campaign harness, the
/// identity proptests, and the zero-alloc proofs all iterate this list, so
/// a stack added here is automatically swept and gated.
pub fn registry() -> Vec<Box<dyn CodecStack>> {
    vec![
        Box::new(RsStack::paper()),
        Box::new(InterleavedRsStack::paper16()),
        Box::new(ConvStack::new()),
        Box::new(CrcStack::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let names: Vec<String> = registry().iter().map(|s| s.name().to_string()).collect();
        assert_eq!(names, ["rs", "rs+il16", "conv_k7+crc32", "crc32"]);
    }

    #[test]
    fn encoded_len_matches_encode_output() {
        for stack in registry().iter_mut() {
            for len in [0usize, 1, 17, 199, 200, 201, 517] {
                let payload: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
                let mut out = Vec::new();
                stack.encode_into(&payload, &mut out);
                assert_eq!(
                    out.len(),
                    stack.encoded_len(len),
                    "stack {} len {len}",
                    stack.name()
                );
                assert_eq!(out, stack.encode_ref(&payload), "stack {}", stack.name());
            }
        }
    }

    #[test]
    fn rs_stack_matches_bare_codec() {
        // The trait wrapper must be byte-identical to driving RsCodec by
        // hand — the frame pipeline's bit-identity depends on it.
        let mut stack = RsStack::paper();
        let mut codec = RsCodec::paper();
        let payload: Vec<u8> = (0..300).map(|i| (i % 256) as u8).collect();
        let mut via_stack = Vec::new();
        stack.encode_into(&payload, &mut via_stack);
        let mut via_codec = Vec::new();
        codec.encode_payload_into(&payload, &mut via_codec);
        assert_eq!(via_stack, via_codec);

        via_stack[5] ^= 0x40;
        via_stack[250] ^= 0x11;
        let mut got = Vec::new();
        let corrected = stack
            .decode_into(&via_stack, 300, &mut got)
            .expect("repairable");
        assert_eq!(got, payload);
        assert_eq!(corrected, 2);
    }

    #[test]
    fn interleaved_stack_survives_a_burst_the_bare_stack_cannot() {
        let mut bare = RsStack::paper();
        let mut il = InterleavedRsStack::paper16();
        let payload: Vec<u8> = (0..400).map(|i| (i % 251) as u8).collect();
        let corrupt = |stack: &mut dyn CodecStack| {
            let mut coded = Vec::new();
            stack.encode_into(&payload, &mut coded);
            for b in coded.iter_mut().skip(100).take(14) {
                *b ^= 0xA5;
            }
            let mut out = Vec::new();
            stack.decode_into(&coded, 400, &mut out).map(|c| (out, c))
        };
        assert_eq!(corrupt(&mut bare), Err(CodecError::Uncorrectable));
        let (decoded, corrected) = corrupt(&mut il).expect("interleaving dilutes the burst");
        assert_eq!(decoded, payload);
        assert_eq!(corrected, 14);
    }

    #[test]
    fn conv_stack_corrects_bit_errors_and_detects_garbage() {
        let mut stack = ConvStack::new();
        let payload: Vec<u8> = (0..120u8).collect();
        let mut coded = Vec::new();
        stack.encode_into(&payload, &mut coded);
        // Scattered bit errors: corrected, and counted in bits.
        for &i in &[10usize, 300, 700, 1200] {
            coded[i >> 3] ^= 1 << (7 - (i & 7));
        }
        let mut out = Vec::new();
        let corrected = stack
            .decode_into(&coded, 120, &mut out)
            .expect("sparse errors");
        assert_eq!(out, payload);
        assert_eq!(corrected, 4);
        // A dense burst sails through Viterbi but the CRC rejects it.
        for i in 400..440usize {
            coded[i >> 3] ^= 1 << (7 - (i & 7));
        }
        out.clear();
        assert_eq!(
            stack.decode_into(&coded, 120, &mut out),
            Err(CodecError::Uncorrectable)
        );
        assert!(out.is_empty(), "failed decode must not emit payload bytes");
    }

    #[test]
    fn crc_stack_detects_any_corruption() {
        let mut stack = CrcStack::new();
        let payload = b"goodput over glass".to_vec();
        let mut coded = Vec::new();
        stack.encode_into(&payload, &mut coded);
        let mut out = Vec::new();
        assert_eq!(stack.decode_into(&coded, payload.len(), &mut out), Ok(0));
        assert_eq!(out, payload);
        coded[3] ^= 1;
        out.clear();
        assert_eq!(
            stack.decode_into(&coded, payload.len(), &mut out),
            Err(CodecError::Uncorrectable)
        );
    }

    #[test]
    fn truncation_is_bad_length_for_every_stack() {
        for stack in registry().iter_mut() {
            let payload = vec![7u8; 150];
            let mut coded = Vec::new();
            stack.encode_into(&payload, &mut coded);
            coded.pop();
            let mut out = Vec::new();
            assert_eq!(
                stack.decode_into(&coded, 150, &mut out),
                Err(CodecError::BadLength {
                    len: stack.encoded_len(150) - 1
                }),
                "stack {}",
                stack.name()
            );
        }
    }

    #[test]
    fn correction_metadata_is_consistent() {
        for stack in registry() {
            let c = stack.correction();
            if c.t_per_block > 0 {
                assert!(c.block_len > 0, "stack {}", stack.name());
                assert!(
                    c.burst_tolerance >= c.t_per_block,
                    "stack {}: interleaving can only widen the burst budget",
                    stack.name()
                );
            }
        }
    }
}

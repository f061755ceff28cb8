//! VLC physical layer for the DenseVLC reproduction.
//!
//! DenseVLC's PHY (paper §3.3, §7) is a modified On-Off-Keying scheme:
//! the LED current swings around the illumination bias, Manchester coding
//! keeps average brightness constant, and a Reed–Solomon outer code protects
//! the payload (16 parity bytes per 200 payload bytes, Table 3). The
//! receiver front-end is a three-stage analog chain — transimpedance
//! amplifier, AC-coupled amplifier, 7th-order Butterworth anti-aliasing
//! filter — followed by a 1 Msps ADC, and link quality is estimated with
//! the M2M4 moments method. This crate implements all of it:
//!
//! * [`manchester`] — Manchester bit/chip coding.
//! * [`packed`] — the bit-packed fast path: chip streams as `u64` words
//!   with LUT encode and word-wise decode, bit-identical to [`manchester`].
//! * [`gf256`] + [`rs`] — GF(2⁸) arithmetic and the Reed–Solomon
//!   encoder/decoder (t = 8 symbol corrections per 216-byte block).
//! * [`frame`] — the Table 3 frame layout: TX-ID mask, pilot, preamble,
//!   SFD, header fields, payload, per-chunk RS parity.
//! * [`waveform`] — symbol-level OOK waveform synthesis and slicing.
//! * [`frontend`] — the analog receive chain as discrete-time filters plus
//!   the quantizing ADC.
//! * [`snr`] — the M2M4 SNR estimator (paper §7.2).
//! * [`fft`] + [`ofdm`] — the §9 extension: an in-tree radix-2 FFT and a
//!   DCO-OFDM modem for intensity-modulated VLC.
//! * [`interleave`] — a block interleaver diluting channel bursts across
//!   Reed–Solomon chunks.
//! * [`codec`] — the pluggable [`codec::CodecStack`] trait the frame
//!   pipeline runs on, with the stock stack catalogue (paper RS,
//!   interleaved RS, convolutional+CRC, CRC-only baseline).
//! * [`conv`] + [`crc`] — the primitives behind the alternative stacks: a
//!   K=7 rate-1/2 convolutional code with Viterbi decoding, and CRC-32.
//!
//! The frame path has two tiers. The scalar functions —
//! [`manchester_encode`]/[`manchester_decode`], [`Frame::to_bytes`]/
//! [`Frame::from_bytes`], and [`waveform`]'s `render`, `mix_into`,
//! `slice_chips` and `correlate_pattern` — are the reference the packed
//! tier is pinned to, bit for bit. The packed tier is what the frame
//! pipeline runs: [`PackedChips`], [`Frame::encode_parts_with`]/
//! [`Frame::decode_parts_with`] over a [`CodecStack`], and [`waveform`]'s
//! chip runs, superposition, packed slicer and preamble correlator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod conv;
pub mod crc;
pub mod fft;
pub mod frame;
pub mod frontend;
pub mod gf256;
pub mod interleave;
pub mod manchester;
pub mod ofdm;
pub mod packed;
pub mod rs;
pub mod snr;
pub mod waveform;

pub use codec::{CodecError, CodecStack, Correction, CrcStack, InterleavedRsStack, RsStack};
pub use frame::{Frame, FrameError, FrameHeader};
pub use manchester::{manchester_decode, manchester_encode, Chip};
pub use packed::{packed_encode, PackedChips};
pub use rs::{ReedSolomon, RsCodec, RsError, RsParams};
pub use snr::m2m4_snr;

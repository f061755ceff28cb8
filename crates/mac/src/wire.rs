//! Compact wire encoding for the WiFi-uplink messages.
//!
//! The paper minimizes uplink signaling: channel reports are fit "in a
//! frame with minimal length and sent when the channel is idle" (§7.2).
//! This module provides that minimal framing for the two uplink message
//! types — channel reports and MAC ACKs — with explicit byte layouts, so
//! the report overhead can be accounted for and the encoding tested.
//!
//! Layouts (big-endian):
//!
//! * Report: `0x52 ('R') | rx:u8 | n_tx:u16 | n_tx × snr_centi_db:i16`
//!   — SNRs quantized to 0.01 dB, floor −80 dB (encodes "not heard").
//! * ACK: `0x41 ('A') | rx:u8 | seq:u32 | ok:u8`

use crate::protocol::{Ack, ChannelReport};
use std::fmt;

const REPORT_TAG: u8 = b'R';
const ACK_TAG: u8 = b'A';
/// SNRs below this floor encode as "not heard" (0 linear on decode).
const SNR_FLOOR_CENTI_DB: i16 = -8000;

/// Errors raised while decoding an uplink message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the message completed.
    Truncated,
    /// Unknown leading tag byte.
    UnknownTag {
        /// The offending byte.
        tag: u8,
    },
    /// The declared TX count disagrees with the buffer length.
    LengthMismatch,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "uplink message truncated"),
            WireError::UnknownTag { tag } => write!(f, "unknown uplink tag {tag:#04x}"),
            WireError::LengthMismatch => write!(f, "uplink length mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

/// An uplink message.
#[derive(Debug, Clone, PartialEq)]
pub enum Uplink {
    /// A channel report.
    Report(ChannelReport),
    /// A MAC acknowledgement.
    Ack(Ack),
}

/// Encodes a channel report (SNRs quantized to 0.01 dB).
pub fn encode_report(report: &ChannelReport) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 2 * report.snr_per_tx.len());
    out.push(REPORT_TAG);
    out.push(report.rx as u8);
    out.extend_from_slice(&(report.snr_per_tx.len() as u16).to_be_bytes());
    for &snr in &report.snr_per_tx {
        let centi_db = if snr <= 0.0 {
            SNR_FLOOR_CENTI_DB
        } else {
            // Values at or below the −80 dB floor collapse onto the floor
            // sentinel and decode as "not heard".
            let v = (100.0 * 10.0 * snr.log10()).round();
            v.clamp(SNR_FLOOR_CENTI_DB as f64, i16::MAX as f64) as i16
        };
        out.extend_from_slice(&centi_db.to_be_bytes());
    }
    out
}

/// Encodes a MAC acknowledgement.
pub fn encode_ack(ack: &Ack) -> Vec<u8> {
    let mut out = Vec::with_capacity(7);
    out.push(ACK_TAG);
    out.push(ack.rx as u8);
    out.extend_from_slice(&ack.seq.to_be_bytes());
    out.push(u8::from(ack.ok));
    out
}

/// Decodes an uplink message.
pub fn decode(bytes: &[u8]) -> Result<Uplink, WireError> {
    let (&tag, rest) = bytes.split_first().ok_or(WireError::Truncated)?;
    match tag {
        REPORT_TAG => {
            if rest.len() < 3 {
                return Err(WireError::Truncated);
            }
            let rx = rest[0] as usize;
            let n_tx = u16::from_be_bytes([rest[1], rest[2]]) as usize;
            let body = &rest[3..];
            if body.len() != 2 * n_tx {
                return Err(WireError::LengthMismatch);
            }
            let snr_per_tx = body
                .chunks_exact(2)
                .map(|c| {
                    let centi_db = i16::from_be_bytes([c[0], c[1]]);
                    if centi_db <= SNR_FLOOR_CENTI_DB {
                        0.0
                    } else {
                        10f64.powf(centi_db as f64 / 1000.0)
                    }
                })
                .collect();
            Ok(Uplink::Report(ChannelReport { rx, snr_per_tx }))
        }
        ACK_TAG => {
            if rest.len() != 6 {
                return Err(WireError::Truncated);
            }
            Ok(Uplink::Ack(Ack {
                rx: rest[0] as usize,
                seq: u32::from_be_bytes([rest[1], rest[2], rest[3], rest[4]]),
                ok: rest[5] != 0,
            }))
        }
        tag => Err(WireError::UnknownTag { tag }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrip_preserves_snrs_within_quantization() {
        let report = ChannelReport {
            rx: 2,
            snr_per_tx: vec![0.0, 1.0, 123.4, 1e-9, 5e4],
        };
        let bytes = encode_report(&report);
        // 4-byte header + 2 bytes per TX — "minimal length" indeed.
        assert_eq!(bytes.len(), 4 + 2 * 5);
        let Uplink::Report(decoded) = decode(&bytes).expect("valid") else {
            panic!("wrong variant");
        };
        assert_eq!(decoded.rx, 2);
        for (orig, got) in report.snr_per_tx.iter().zip(&decoded.snr_per_tx) {
            if *orig <= 0.0 || *orig < 1e-8 {
                assert_eq!(*got, 0.0, "sub-floor SNR must decode as unheard");
            } else {
                let err_db = (10.0 * (got / orig).log10()).abs();
                assert!(err_db < 0.011, "quantization error {err_db} dB");
            }
        }
    }

    #[test]
    fn ack_roundtrip() {
        for ok in [true, false] {
            let ack = Ack {
                rx: 3,
                seq: 0xDEAD_BEEF,
                ok,
            };
            let bytes = encode_ack(&ack);
            assert_eq!(bytes.len(), 7);
            assert_eq!(decode(&bytes), Ok(Uplink::Ack(ack)));
        }
    }

    #[test]
    fn full_grid_report_is_76_bytes() {
        // The 36-TX report fits one small WiFi frame: 4 + 72 bytes.
        let report = ChannelReport {
            rx: 0,
            snr_per_tx: vec![1.0; 36],
        };
        assert_eq!(encode_report(&report).len(), 76);
    }

    #[test]
    fn truncated_and_garbage_inputs_are_rejected() {
        assert_eq!(decode(&[]), Err(WireError::Truncated));
        assert_eq!(decode(&[b'R', 0]), Err(WireError::Truncated));
        assert_eq!(decode(&[b'A', 0, 0]), Err(WireError::Truncated));
        assert_eq!(
            decode(&[0x7F, 1, 2]),
            Err(WireError::UnknownTag { tag: 0x7F })
        );
        // Report declaring 4 TXs but carrying 2.
        let mut bad = encode_report(&ChannelReport {
            rx: 0,
            snr_per_tx: vec![1.0; 2],
        });
        bad[2] = 0;
        bad[3] = 4;
        assert_eq!(decode(&bad), Err(WireError::LengthMismatch));
    }

    #[test]
    fn huge_snrs_clamp_instead_of_wrapping() {
        let report = ChannelReport {
            rx: 0,
            snr_per_tx: vec![1e30],
        };
        let Uplink::Report(decoded) = decode(&encode_report(&report)).expect("valid") else {
            panic!("wrong variant");
        };
        assert!(decoded.snr_per_tx[0].is_finite());
        assert!(decoded.snr_per_tx[0] > 1e3);
    }
}

//! Reed–Solomon coding over GF(2⁸).
//!
//! DenseVLC protects each 200-byte payload chunk with 16 Reed–Solomon
//! parity bytes (Table 3), i.e. a shortened RS(216, 200) block that corrects
//! up to `t = 8` byte errors. The implementation is the classic pipeline:
//! systematic LFSR encoding, syndrome computation, Berlekamp–Massey for the
//! error locator, Chien search for positions, and Forney's formula for
//! magnitudes.
//!
//! Two tiers run it. [`ReedSolomon`] is the scalar oracle: it evaluates
//! every syndrome over the whole block. [`RsCodec`], the frame pipeline's
//! workspace, holds the LFSR in one `u128` and checks parity first: it
//! re-encodes the block's data and compares the result with the block's
//! parity bytes, which is all a clean block costs. Only on a mismatch does
//! it compute syndromes, over the `nroots`-byte remainder `r(x) mod g(x)`
//! (the XOR of the two parities) rather than the block, because
//! `g(αʲ) = 0` makes `r(αʲ)` equal the remainder's value there. Field
//! arithmetic is exact, so both tiers return the same corrections and
//! errors byte for byte.

use crate::codec::CodecError;
use crate::gf256::Gf256;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The paper's parity budget: 16 bytes per chunk.
pub const PAPER_PARITY: usize = RsParams::PAPER.nroots;
/// The paper's chunk size: 200 payload bytes.
pub const PAPER_CHUNK: usize = RsParams::PAPER.chunk;

/// A Reed–Solomon parameter set: the single definition that every paper
/// constructor ([`ReedSolomon::paper`], [`RsCodec::paper`]) builds from,
/// so the Table 3 constants cannot drift apart (pinned by
/// `paper_constructors_share_one_definition`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RsParams {
    /// Parity symbols appended to each chunk.
    pub nroots: usize,
    /// Payload bytes per chunk.
    pub chunk: usize,
}

impl RsParams {
    /// The paper's RS(216, 200): 16 parity bytes per 200-byte chunk, t = 8.
    pub const PAPER: RsParams = RsParams {
        nroots: 16,
        chunk: 200,
    };

    /// Coded length of the chunked-payload layout: every ≤ `chunk`-byte
    /// piece carries `nroots` parity bytes.
    pub const fn coded_len(&self, payload_len: usize) -> usize {
        payload_len + payload_len.div_ceil(self.chunk) * self.nroots
    }
}

/// Errors surfaced by the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RsError {
    /// More errors than the code can correct (or a miscorrection trap).
    TooManyErrors,
    /// The input block is shorter than the parity or longer than 255 bytes.
    BadBlockLength {
        /// Offending block length.
        len: usize,
    },
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsError::TooManyErrors => write!(f, "uncorrectable Reed-Solomon block"),
            RsError::BadBlockLength { len } => write!(f, "invalid RS block length {len}"),
        }
    }
}

impl std::error::Error for RsError {}

/// A Reed–Solomon encoder/decoder with `nroots` parity symbols.
///
/// ```
/// use vlc_phy::rs::ReedSolomon;
///
/// let rs = ReedSolomon::paper(); // RS(216, 200), corrects 8 byte errors
/// let mut block = rs.encode(b"hello, beamspot");
/// block[3] ^= 0xFF; // channel corruption
/// let fixed = rs.decode(&mut block).unwrap();
/// assert_eq!(fixed, 1);
/// assert_eq!(&block[..15], b"hello, beamspot");
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    gf: Gf256,
    nroots: usize,
    /// Generator polynomial, high-degree first, `nroots + 1` coefficients.
    generator: Vec<u8>,
}

impl ReedSolomon {
    /// Creates a codec with the given number of parity symbols, or
    /// [`CodecError::InvalidParameters`] when `nroots` is outside `1..255`.
    pub fn new(nroots: usize) -> Result<Self, CodecError> {
        if !(1..255).contains(&nroots) {
            return Err(CodecError::InvalidParameters {
                param: "nroots",
                value: nroots,
                allowed: "1..255",
            });
        }
        let gf = Gf256::new();
        // g(x) = Π_{i=0}^{nroots-1} (x − α^i); minus is plus in GF(2⁸).
        let mut generator = vec![1u8];
        for i in 0..nroots {
            generator = gf.poly_mul(&generator, &[1, gf.alpha_pow(i)]);
        }
        Ok(ReedSolomon {
            gf,
            nroots,
            generator,
        })
    }

    /// The paper's RS(216, 200) configuration (t = 8), built from
    /// [`RsParams::PAPER`].
    pub fn paper() -> Self {
        ReedSolomon::new(RsParams::PAPER.nroots).expect("the paper's RS parameters are valid")
    }

    /// Number of parity symbols.
    pub fn parity_len(&self) -> usize {
        self.nroots
    }

    /// Maximum number of correctable byte errors per block.
    pub fn correction_capacity(&self) -> usize {
        self.nroots / 2
    }

    /// Encodes `data`, returning `data ‖ parity`.
    ///
    /// # Panics
    /// Panics if the resulting block would exceed 255 bytes.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        assert!(
            data.len() + self.nroots <= 255,
            "RS block would exceed 255 bytes ({} data + {} parity)",
            data.len(),
            self.nroots
        );
        let mut parity = vec![0u8; self.nroots];
        for &b in data {
            let feedback = b ^ parity[0];
            parity.rotate_left(1);
            parity[self.nroots - 1] = 0;
            if feedback != 0 {
                for (p, &g) in parity.iter_mut().zip(&self.generator[1..]) {
                    *p ^= self.gf.mul(feedback, g);
                }
            }
        }
        let mut out = data.to_vec();
        out.extend_from_slice(&parity);
        out
    }

    /// Decodes a block in place, returning the number of corrected byte
    /// errors, or an error when the block is uncorrectable.
    pub fn decode(&self, block: &mut [u8]) -> Result<usize, RsError> {
        let n = block.len();
        if n <= self.nroots || n > 255 {
            return Err(RsError::BadBlockLength { len: n });
        }
        // Syndromes S_j = r(α^j), j = 0..nroots-1.
        let synd: Vec<u8> = (0..self.nroots)
            .map(|j| self.gf.poly_eval(block, self.gf.alpha_pow(j)))
            .collect();
        if synd.iter().all(|&s| s == 0) {
            return Ok(0);
        }

        // Berlekamp–Massey: find the error locator Λ (low-degree first).
        let lambda = self.berlekamp_massey(&synd);
        let n_errors = lambda.len() - 1;
        if n_errors == 0 || n_errors > self.correction_capacity() {
            return Err(RsError::TooManyErrors);
        }

        // Chien search over the block's positions: byte index i (0 = first
        // transmitted) corresponds to the x^(n-1-i) coefficient, i.e.
        // locator root α^{-(n-1-i)}.
        let mut positions = Vec::new();
        for i in 0..n {
            let power = n - 1 - i;
            let x_inv = self.gf.alpha_pow((255 - (power % 255)) % 255);
            if self.eval_low_first(&lambda, x_inv) == 0 {
                positions.push(i);
            }
        }
        if positions.len() != n_errors {
            return Err(RsError::TooManyErrors);
        }

        // Forney: Ω(x) = [S(x)·Λ(x)] mod x^nroots (low-degree first).
        let omega = self.omega(&synd, &lambda);
        // Λ'(x): formal derivative (char 2 keeps only odd-degree terms).
        let lambda_deriv: Vec<u8> = lambda
            .iter()
            .enumerate()
            .skip(1)
            .step_by(2)
            .map(|(_, &c)| c)
            .collect::<Vec<u8>>();
        for &i in &positions {
            let power = n - 1 - i;
            let x = self.gf.alpha_pow(power % 255);
            let x_inv = self.gf.inv(x);
            let num = self.eval_low_first(&omega, x_inv);
            // Λ'(X⁻¹) from the odd coefficients: Σ Λ_{2k+1} (X⁻¹)^{2k}.
            let mut den = 0u8;
            let x_inv_sq = self.gf.mul(x_inv, x_inv);
            let mut xp = 1u8;
            for &c in &lambda_deriv {
                den ^= self.gf.mul(c, xp);
                xp = self.gf.mul(xp, x_inv_sq);
            }
            if den == 0 {
                return Err(RsError::TooManyErrors);
            }
            // fcr = 0 ⇒ magnitude = X · Ω(X⁻¹) / Λ'(X⁻¹).
            let magnitude = self.gf.mul(x, self.gf.div(num, den));
            block[i] ^= magnitude;
        }

        // Re-check the syndromes to trap miscorrections.
        let ok = (0..self.nroots).all(|j| self.gf.poly_eval(block, self.gf.alpha_pow(j)) == 0);
        if ok {
            Ok(positions.len())
        } else {
            Err(RsError::TooManyErrors)
        }
    }

    /// Berlekamp–Massey over the syndromes; returns Λ low-degree first.
    fn berlekamp_massey(&self, synd: &[u8]) -> Vec<u8> {
        // Three buffers for the whole run: the update is in place
        // (`add_shifted_in_place`) and the Λ backup swaps through `tmp`
        // instead of allocating a fresh `Vec` every iteration.
        let mut lambda = Vec::with_capacity(synd.len() + 2);
        let mut prev = Vec::with_capacity(synd.len() + 2);
        let mut tmp = Vec::with_capacity(synd.len() + 2);
        lambda.push(1u8);
        prev.push(1u8);
        let mut l = 0usize;
        let mut m = 1usize;
        let mut b = 1u8;
        for n in 0..synd.len() {
            // Discrepancy δ = S_n + Σ_{i=1}^{L} Λ_i S_{n−i}.
            let mut delta = synd[n];
            for i in 1..=l.min(lambda.len() - 1) {
                delta ^= self.gf.mul(lambda[i], synd[n - i]);
            }
            if delta == 0 {
                m += 1;
            } else if 2 * l <= n {
                tmp.clear();
                tmp.extend_from_slice(&lambda);
                let coeff = self.gf.div(delta, b);
                add_shifted_in_place(&self.gf, &mut lambda, &prev, coeff, m);
                std::mem::swap(&mut prev, &mut tmp);
                l = n + 1 - l;
                b = delta;
                m = 1;
            } else {
                let coeff = self.gf.div(delta, b);
                add_shifted_in_place(&self.gf, &mut lambda, &prev, coeff, m);
                m += 1;
            }
        }
        lambda.truncate(l + 1);
        lambda
    }

    /// Ω(x) = S(x)·Λ(x) mod x^nroots, low-degree first.
    fn omega(&self, synd: &[u8], lambda: &[u8]) -> Vec<u8> {
        let mut omega = vec![0u8; self.nroots];
        for (i, &s) in synd.iter().enumerate() {
            for (j, &lj) in lambda.iter().enumerate() {
                if i + j < self.nroots {
                    omega[i + j] ^= self.gf.mul(s, lj);
                }
            }
        }
        omega
    }

    /// Evaluates a low-degree-first polynomial at `x`.
    fn eval_low_first(&self, poly: &[u8], x: u8) -> u8 {
        let mut acc = 0u8;
        for &c in poly.iter().rev() {
            acc = self.gf.mul(acc, x) ^ c;
        }
        acc
    }

    /// Encodes a payload of arbitrary length as consecutive ≤ 200-byte
    /// chunks, each followed by its 16 parity bytes — the paper's
    /// `⌈x/200⌉ × 16 B` overhead rule.
    pub fn encode_payload(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(payload.len() + self.nroots);
        if payload.is_empty() {
            return out;
        }
        for chunk in payload.chunks(PAPER_CHUNK) {
            out.extend_from_slice(&self.encode(chunk));
        }
        out
    }

    /// Decodes a payload produced by [`ReedSolomon::encode_payload`],
    /// given the original payload length. Returns the payload and the total
    /// number of corrected byte errors.
    pub fn decode_payload(
        &self,
        coded: &mut [u8],
        payload_len: usize,
    ) -> Result<(Vec<u8>, usize), RsError> {
        let n_chunks = payload_len.div_ceil(PAPER_CHUNK);
        let expected = payload_len + n_chunks * self.nroots;
        if coded.len() != expected {
            return Err(RsError::BadBlockLength { len: coded.len() });
        }
        let mut payload = Vec::with_capacity(payload_len);
        let mut corrected = 0;
        let mut offset = 0;
        let mut remaining = payload_len;
        for _ in 0..n_chunks {
            let chunk_len = remaining.min(PAPER_CHUNK);
            let block_len = chunk_len + self.nroots;
            let block = &mut coded[offset..offset + block_len];
            corrected += self.decode(block)?;
            payload.extend_from_slice(&block[..chunk_len]);
            offset += block_len;
            remaining -= chunk_len;
        }
        Ok((payload, corrected))
    }
}

/// `a(x) += coeff · x^shift · b(x)` (all low-degree first), in place.
///
/// The only growth is `resize` up to `b.len() + shift`, which never
/// reallocates once the buffer's capacity covers the codec's locator
/// degree bound — the fix for the per-iteration `Vec` the old
/// `add_shifted` allocated inside every Berlekamp–Massey step.
fn add_shifted_in_place(gf: &Gf256, a: &mut Vec<u8>, b: &[u8], coeff: u8, shift: usize) {
    if a.len() < b.len() + shift {
        a.resize(b.len() + shift, 0);
    }
    for (i, &bi) in b.iter().enumerate() {
        a[i + shift] ^= gf.mul(coeff, bi);
    }
}

/// The most parity bytes [`RsCodec`]'s 128-bit LFSR register holds.
pub const MAX_CODEC_PARITY: usize = 16;

/// A reusable Reed–Solomon workspace: the same code as [`ReedSolomon`]
/// (outputs are byte-identical — pinned by proptests in
/// `crates/phy/tests/packed_identity.rs` and
/// `crates/phy/tests/codec_identity.rs`) with every per-block allocation
/// hoisted into the struct and the parity register held in one `u128`.
///
/// The register keeps parity byte 0 (the highest-degree coefficient) in
/// its top byte, so each data byte costs one row of a 256-entry `u128`
/// table and one shift:
/// `fb = b ^ (p >> 120) as u8; p = (p << 8) ^ ROW[fb]`, where `ROW[f]`
/// holds `f · g(x)`'s low `nroots` coefficients. That bounds `nroots` at
/// [`MAX_CODEC_PARITY`]. Decoding runs in three stages:
///
/// 1. **Parity check.** Re-encode the block's data and compare with its
///    parity bytes. A systematic block is a codeword exactly when its
///    parity equals the parity of its data, so equal means `Ok(0)` — the
///    only work a clean block costs.
/// 2. **Remainder syndromes.** On a mismatch the XOR of the two parities
///    is `r(x) mod g(x)`, and since `g(αʲ) = 0`, `r(αʲ) = (r mod g)(αʲ)`:
///    the `nroots` syndromes are evaluated over `nroots` bytes, not the
///    whole block.
/// 3. **Correction.** Berlekamp–Massey, Chien search (over the
///    `α^{-p}` table) and Forney (over the `α^p` table) as in
///    [`ReedSolomon::decode`]; the miscorrection trap afterwards is the
///    same parity compare as stage 1.
///
/// After warm-up (first corrected block), `encode_into` /
/// `decode_in_place` perform zero heap allocations — demonstrated by the
/// counting-allocator test in `crates/phy/tests/zero_alloc.rs`.
#[derive(Debug, Clone)]
pub struct RsCodec {
    rs: ReedSolomon,
    /// Row `f` holds `f · generator[1..]`, coefficient `i` in bits
    /// `120 − 8i ..= 127 − 8i` (4 KiB, on the heap).
    feedback_tab: Box<[u128; 256]>,
    /// `α^p` for `p < 255` (syndrome roots and Forney's X).
    root: [u8; 255],
    /// `α^{(255 - p) mod 255}` for `p < 255` (Chien's X⁻¹).
    inv_root: [u8; 255],
    // Scratch (capacities established in `new`, reused per block).
    synd: Vec<u8>,
    lambda: Vec<u8>,
    prev: Vec<u8>,
    tmp: Vec<u8>,
    omega: Vec<u8>,
    lambda_deriv: Vec<u8>,
    positions: Vec<usize>,
}

impl RsCodec {
    /// Creates a workspace with `nroots` parity symbols, or
    /// [`CodecError::InvalidParameters`] when `nroots` is outside
    /// `1..=`[`MAX_CODEC_PARITY`].
    pub fn new(nroots: usize) -> Result<Self, CodecError> {
        if !(1..=MAX_CODEC_PARITY).contains(&nroots) {
            return Err(CodecError::InvalidParameters {
                param: "nroots",
                value: nroots,
                allowed: "1..=16",
            });
        }
        let rs = ReedSolomon::new(nroots)?;
        let mut feedback_tab = Box::new([0u128; 256]);
        for (f, row) in feedback_tab.iter_mut().enumerate() {
            for (i, &g) in rs.generator[1..].iter().enumerate() {
                *row |= u128::from(rs.gf.mul(f as u8, g)) << (120 - 8 * i);
            }
        }
        let mut root = [0u8; 255];
        let mut inv_root = [0u8; 255];
        for p in 0..255usize {
            root[p] = rs.gf.alpha_pow(p);
            inv_root[p] = rs.gf.alpha_pow((255 - p) % 255);
        }
        // Locator/scratch degree bound: Berlekamp–Massey can transiently
        // grow Λ to `b.len() + shift` ≤ nroots + 1; syndromes and Ω hold
        // nroots entries; Chien can flag at most 255 candidate positions.
        let poly_cap = 2 * nroots + 4;
        Ok(RsCodec {
            rs,
            feedback_tab,
            root,
            inv_root,
            synd: Vec::with_capacity(nroots),
            lambda: Vec::with_capacity(poly_cap),
            prev: Vec::with_capacity(poly_cap),
            tmp: Vec::with_capacity(poly_cap),
            omega: Vec::with_capacity(nroots),
            lambda_deriv: Vec::with_capacity(nroots),
            positions: Vec::with_capacity(255),
        })
    }

    /// The paper's RS(216, 200) workspace (t = 8), built from
    /// [`RsParams::PAPER`] — the same definition as [`ReedSolomon::paper`].
    pub fn paper() -> Self {
        RsCodec::new(RsParams::PAPER.nroots).expect("the paper's RS parameters are valid")
    }

    /// Number of parity symbols.
    pub fn parity_len(&self) -> usize {
        self.rs.nroots
    }

    /// Maximum number of correctable byte errors per block.
    pub fn correction_capacity(&self) -> usize {
        self.rs.correction_capacity()
    }

    /// The scalar codec this workspace mirrors.
    pub fn reference(&self) -> &ReedSolomon {
        &self.rs
    }

    /// Appends `data ‖ parity` to `out` — allocation-free counterpart of
    /// [`ReedSolomon::encode`], the LFSR running in one `u128` register.
    ///
    /// # Panics
    /// Panics if the resulting block would exceed 255 bytes.
    pub fn encode_into(&mut self, data: &[u8], out: &mut Vec<u8>) {
        let nroots = self.rs.nroots;
        assert!(
            data.len() + nroots <= 255,
            "RS block would exceed 255 bytes ({} data + {} parity)",
            data.len(),
            nroots
        );
        let parity = self.lfsr(data).to_be_bytes();
        out.extend_from_slice(data);
        out.extend_from_slice(&parity[..nroots]);
    }

    /// The parity register after shifting `data` through the LFSR:
    /// `data(x) · x^nroots mod g(x)`, parity byte 0 in the top byte.
    fn lfsr(&self, data: &[u8]) -> u128 {
        let tab = &*self.feedback_tab;
        data.iter().fold(0u128, |p, &b| {
            (p << 8) ^ tab[usize::from(b ^ (p >> 120) as u8)]
        })
    }

    /// `r(x) mod g(x)` of a whole block (at least one data byte), in the
    /// register layout: the parity of its data XOR its parity bytes. Zero
    /// exactly when the block is a codeword.
    fn remainder(&self, block: &[u8]) -> u128 {
        let (data, parity) = block.split_at(block.len() - self.rs.nroots);
        let mut bytes = [0u8; MAX_CODEC_PARITY];
        bytes[..parity.len()].copy_from_slice(parity);
        self.lfsr(data) ^ u128::from_be_bytes(bytes)
    }

    /// Appends the chunked encoding of `payload` (the
    /// [`ReedSolomon::encode_payload`] layout) to `out`.
    pub fn encode_payload_into(&mut self, payload: &[u8], out: &mut Vec<u8>) {
        for chunk in payload.chunks(PAPER_CHUNK) {
            self.encode_into(chunk, out);
        }
    }

    /// Decodes a block in place — allocation-free counterpart of
    /// [`ReedSolomon::decode`], byte-identical in corrections and errors.
    pub fn decode_in_place(&mut self, block: &mut [u8]) -> Result<usize, RsError> {
        let nroots = self.rs.nroots;
        let n = block.len();
        if n <= nroots || n > 255 {
            return Err(RsError::BadBlockLength { len: n });
        }
        // Parity check: a clean block costs one re-encode.
        let rem = self.remainder(block);
        if rem == 0 {
            return Ok(0);
        }
        self.remainder_syndromes(rem);

        // Berlekamp–Massey, in place over the struct scratch.
        self.berlekamp_massey();
        let gf = &self.rs.gf;
        let n_errors = self.lambda.len() - 1;
        if n_errors == 0 || n_errors > self.rs.correction_capacity() {
            return Err(RsError::TooManyErrors);
        }

        // Chien search over the block's positions.
        self.positions.clear();
        for i in 0..n {
            let power = n - 1 - i;
            let x_inv = self.inv_root[power % 255];
            if eval_low_first(gf, &self.lambda, x_inv) == 0 {
                self.positions.push(i);
            }
        }
        if self.positions.len() != n_errors {
            return Err(RsError::TooManyErrors);
        }

        // Forney: Ω(x) = [S(x)·Λ(x)] mod x^nroots (low-degree first).
        self.omega.clear();
        self.omega.resize(nroots, 0);
        for (i, &s) in self.synd.iter().enumerate() {
            for (j, &lj) in self.lambda.iter().enumerate() {
                if i + j < nroots {
                    self.omega[i + j] ^= gf.mul(s, lj);
                }
            }
        }
        // Λ'(x): formal derivative (char 2 keeps only odd-degree terms).
        self.lambda_deriv.clear();
        self.lambda_deriv
            .extend(self.lambda.iter().skip(1).step_by(2));
        for &i in &self.positions {
            let power = n - 1 - i;
            let x = self.root[power % 255];
            let x_inv = gf.inv(x);
            let num = eval_low_first(gf, &self.omega, x_inv);
            let mut den = 0u8;
            let x_inv_sq = gf.mul(x_inv, x_inv);
            let mut xp = 1u8;
            for &c in &self.lambda_deriv {
                den ^= gf.mul(c, xp);
                xp = gf.mul(xp, x_inv_sq);
            }
            if den == 0 {
                return Err(RsError::TooManyErrors);
            }
            let magnitude = gf.mul(x, gf.div(num, den));
            block[i] ^= magnitude;
        }

        // Re-check the parity to trap miscorrections.
        if self.remainder(block) == 0 {
            Ok(self.positions.len())
        } else {
            Err(RsError::TooManyErrors)
        }
    }

    /// Corrects every chunk of an [`RsCodec::encode_payload_into`] stream
    /// in place, returning the total corrected byte count. The payload
    /// stays interleaved with its parity in `coded`; pull it out with
    /// [`RsCodec::extract_payload_into`].
    pub fn decode_payload_in_place(
        &mut self,
        coded: &mut [u8],
        payload_len: usize,
    ) -> Result<usize, RsError> {
        let n_chunks = payload_len.div_ceil(PAPER_CHUNK);
        let expected = payload_len + n_chunks * self.rs.nroots;
        if coded.len() != expected {
            return Err(RsError::BadBlockLength { len: coded.len() });
        }
        let mut corrected = 0;
        let mut offset = 0;
        let mut remaining = payload_len;
        for _ in 0..n_chunks {
            let chunk_len = remaining.min(PAPER_CHUNK);
            let block_len = chunk_len + self.rs.nroots;
            corrected += self.decode_in_place(&mut coded[offset..offset + block_len])?;
            offset += block_len;
            remaining -= chunk_len;
        }
        Ok(corrected)
    }

    /// Appends the payload bytes of a (decoded) chunked stream to `out`,
    /// skipping the per-chunk parity.
    pub fn extract_payload_into(&self, coded: &[u8], payload_len: usize, out: &mut Vec<u8>) {
        let mut offset = 0;
        let mut remaining = payload_len;
        while remaining > 0 {
            let chunk_len = remaining.min(PAPER_CHUNK);
            out.extend_from_slice(&coded[offset..offset + chunk_len]);
            offset += chunk_len + self.rs.nroots;
            remaining -= chunk_len;
        }
    }

    /// Fills `self.synd` with `S_j = r(α^j) = (r mod g)(α^j)`,
    /// `j = 0..nroots`, evaluated over the `nroots` bytes of the block's
    /// remainder `rem` (see [`RsCodec::remainder`]).
    fn remainder_syndromes(&mut self, rem: u128) {
        let nroots = self.rs.nroots;
        let rem = rem.to_be_bytes();
        self.synd.clear();
        for &x in &self.root[..nroots] {
            self.synd.push(self.rs.gf.poly_eval(&rem[..nroots], x));
        }
    }

    /// Berlekamp–Massey over `self.synd` into `self.lambda`, reusing the
    /// `prev`/`tmp` scratch — zero allocations once capacities are warm.
    fn berlekamp_massey(&mut self) {
        let RsCodec {
            rs,
            synd,
            lambda,
            prev,
            tmp,
            ..
        } = self;
        let gf = &rs.gf;
        lambda.clear();
        lambda.push(1u8);
        prev.clear();
        prev.push(1u8);
        let mut l = 0usize;
        let mut m = 1usize;
        let mut b = 1u8;
        for n in 0..synd.len() {
            let mut delta = synd[n];
            for i in 1..=l.min(lambda.len() - 1) {
                delta ^= gf.mul(lambda[i], synd[n - i]);
            }
            if delta == 0 {
                m += 1;
            } else if 2 * l <= n {
                tmp.clear();
                tmp.extend_from_slice(lambda);
                let coeff = gf.div(delta, b);
                add_shifted_in_place(gf, lambda, prev, coeff, m);
                std::mem::swap(prev, tmp);
                l = n + 1 - l;
                b = delta;
                m = 1;
            } else {
                let coeff = gf.div(delta, b);
                add_shifted_in_place(gf, lambda, prev, coeff, m);
                m += 1;
            }
        }
        lambda.truncate(l + 1);
    }
}

/// Evaluates a low-degree-first polynomial at `x` (free-function twin of
/// [`ReedSolomon::eval_low_first`] for use with split borrows).
fn eval_low_first(gf: &Gf256, poly: &[u8], x: u8) -> u8 {
    let mut acc = 0u8;
    for &c in poly.iter().rev() {
        acc = gf.mul(acc, x) ^ c;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn paper_constructors_share_one_definition() {
        // Both paper constructors must flow from RsParams::PAPER: same
        // parity budget, same correction capacity, identical generator
        // behavior (byte-identical encodings), and the legacy constants
        // must alias the shared definition.
        let rs = ReedSolomon::paper();
        let mut codec = RsCodec::paper();
        assert_eq!(rs.parity_len(), RsParams::PAPER.nroots);
        assert_eq!(codec.parity_len(), RsParams::PAPER.nroots);
        assert_eq!(rs.correction_capacity(), RsParams::PAPER.nroots / 2);
        assert_eq!(codec.correction_capacity(), rs.correction_capacity());
        assert_eq!(PAPER_PARITY, RsParams::PAPER.nroots);
        assert_eq!(PAPER_CHUNK, RsParams::PAPER.chunk);
        let data: Vec<u8> = (0..200u8).collect();
        let mut out = Vec::new();
        codec.encode_into(&data, &mut out);
        assert_eq!(out, rs.encode(&data));
        assert_eq!(
            RsParams::PAPER.coded_len(517),
            rs.encode_payload(&vec![0u8; 517]).len()
        );
    }

    #[test]
    fn encode_is_systematic() {
        let rs = ReedSolomon::paper();
        let data: Vec<u8> = (0..200u8).collect();
        let coded = rs.encode(&data);
        assert_eq!(coded.len(), 216);
        assert_eq!(&coded[..200], &data[..]);
    }

    #[test]
    fn clean_block_decodes_with_zero_corrections() {
        let rs = ReedSolomon::paper();
        let data: Vec<u8> = (0..100u8).collect();
        let mut coded = rs.encode(&data);
        assert_eq!(rs.decode(&mut coded), Ok(0));
        assert_eq!(&coded[..100], &data[..]);
    }

    #[test]
    fn corrects_up_to_t_errors() {
        let rs = ReedSolomon::paper();
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<u8> = (0..200).map(|_| rng.gen()).collect();
        let clean = rs.encode(&data);
        for n_err in 1..=8usize {
            let mut coded = clean.clone();
            // Corrupt n_err distinct positions.
            let mut positions = std::collections::HashSet::new();
            while positions.len() < n_err {
                positions.insert(rng.gen_range(0..coded.len()));
            }
            for &p in &positions {
                coded[p] ^= rng.gen_range(1..=255u8);
            }
            let fixed = rs
                .decode(&mut coded)
                .unwrap_or_else(|e| panic!("decode failed at {n_err} errors: {e}"));
            assert_eq!(fixed, n_err);
            assert_eq!(&coded[..200], &data[..]);
        }
    }

    #[test]
    fn detects_more_than_t_errors() {
        // 9+ errors must not silently decode to the wrong data. (A tiny
        // residual miscorrection probability is inherent to RS; these seeds
        // are deterministic and known-good.)
        let rs = ReedSolomon::paper();
        let mut rng = StdRng::seed_from_u64(7);
        let data: Vec<u8> = (0..200).map(|_| rng.gen()).collect();
        for trial in 0..20 {
            let mut coded = rs.encode(&data);
            let mut positions = std::collections::HashSet::new();
            while positions.len() < 12 {
                positions.insert(rng.gen_range(0..coded.len()));
            }
            for &p in &positions {
                coded[p] ^= rng.gen_range(1..=255u8);
            }
            match rs.decode(&mut coded) {
                Err(RsError::TooManyErrors) => {}
                Ok(_) => {
                    assert_eq!(&coded[..200], &data[..], "miscorrection on trial {trial}");
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }

    #[test]
    fn shortened_blocks_work() {
        let rs = ReedSolomon::paper();
        for len in [1usize, 10, 50, 199] {
            let data: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
            let mut coded = rs.encode(&data);
            coded[len / 2] ^= 0xa5;
            assert_eq!(rs.decode(&mut coded), Ok(1), "len {len}");
            assert_eq!(&coded[..len], &data[..]);
        }
    }

    #[test]
    fn payload_roundtrip_multi_chunk() {
        let rs = ReedSolomon::paper();
        let payload: Vec<u8> = (0..517).map(|i| (i % 256) as u8).collect();
        let mut coded = rs.encode_payload(&payload);
        // 517 bytes → 3 chunks → 48 parity bytes.
        assert_eq!(coded.len(), 517 + 48);
        // One error per chunk.
        coded[10] ^= 1;
        coded[250] ^= 2;
        coded[500] ^= 3;
        let (decoded, fixed) = rs.decode_payload(&mut coded, 517).expect("decodable");
        assert_eq!(decoded, payload);
        assert_eq!(fixed, 3);
    }

    #[test]
    fn empty_payload_is_identity() {
        let rs = ReedSolomon::paper();
        assert!(rs.encode_payload(&[]).is_empty());
        let (decoded, fixed) = rs.decode_payload(&mut [], 0).expect("empty ok");
        assert!(decoded.is_empty());
        assert_eq!(fixed, 0);
    }

    #[test]
    fn bad_lengths_are_rejected() {
        let rs = ReedSolomon::paper();
        let mut short = vec![0u8; 16];
        assert_eq!(
            rs.decode(&mut short),
            Err(RsError::BadBlockLength { len: 16 })
        );
        let mut wrong = vec![0u8; 100];
        assert!(matches!(
            rs.decode_payload(&mut wrong, 200),
            Err(RsError::BadBlockLength { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "255")]
    fn oversized_block_panics_on_encode() {
        ReedSolomon::paper().encode(&vec![0u8; 240]);
    }

    #[test]
    fn bad_parameters_are_typed_errors() {
        let invalid = |value, allowed| {
            Err(CodecError::InvalidParameters {
                param: "nroots",
                value,
                allowed,
            })
        };
        assert_eq!(ReedSolomon::new(0).map(|_| ()), invalid(0, "1..255"));
        assert_eq!(ReedSolomon::new(255).map(|_| ()), invalid(255, "1..255"));
        assert!(ReedSolomon::new(254).is_ok());
        assert_eq!(RsCodec::new(0).map(|_| ()), invalid(0, "1..=16"));
        assert_eq!(RsCodec::new(17).map(|_| ()), invalid(17, "1..=16"));
        for nroots in 1..=MAX_CODEC_PARITY {
            assert_eq!(RsCodec::new(nroots).unwrap().parity_len(), nroots);
        }
    }

    #[test]
    fn remainder_syndromes_equal_block_syndromes() {
        // S_j over the nroots-byte remainder must equal the Horner
        // evaluation over the whole 216-byte block, for clean and
        // corrupted blocks alike.
        let rs = ReedSolomon::paper();
        let mut codec = RsCodec::paper();
        let mut rng = StdRng::seed_from_u64(216);
        for n_err in 0..=12usize {
            let data: Vec<u8> = (0..200).map(|_| rng.gen()).collect();
            let mut block = rs.encode(&data);
            for _ in 0..n_err {
                let p = rng.gen_range(0..block.len());
                block[p] ^= rng.gen_range(1..=255u8);
            }
            let rem = codec.remainder(&block);
            codec.remainder_syndromes(rem);
            let horner: Vec<u8> = (0..16)
                .map(|j| rs.gf.poly_eval(&block, rs.gf.alpha_pow(j)))
                .collect();
            assert_eq!(codec.synd, horner, "{n_err} errors");
            assert_eq!(rem == 0, horner.iter().all(|&s| s == 0));
        }
    }

    #[test]
    fn codec_encode_matches_scalar() {
        let rs = ReedSolomon::paper();
        let mut codec = RsCodec::paper();
        for len in [1usize, 10, 199, 200] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let mut out = Vec::new();
            codec.encode_into(&data, &mut out);
            assert_eq!(out, rs.encode(&data), "len {len}");
        }
    }

    #[test]
    fn codec_decode_matches_scalar_under_errors() {
        let rs = ReedSolomon::paper();
        let mut codec = RsCodec::paper();
        let mut rng = StdRng::seed_from_u64(99);
        let data: Vec<u8> = (0..200).map(|_| rng.gen()).collect();
        let clean = rs.encode(&data);
        for n_err in 0..=12usize {
            let mut a = clean.clone();
            let mut b = clean.clone();
            let mut positions = std::collections::HashSet::new();
            while positions.len() < n_err {
                positions.insert(rng.gen_range(0..a.len()));
            }
            for &p in &positions {
                let flip = rng.gen_range(1..=255u8);
                a[p] ^= flip;
                b[p] ^= flip;
            }
            assert_eq!(
                rs.decode(&mut a),
                codec.decode_in_place(&mut b),
                "result mismatch at {n_err} errors"
            );
            assert_eq!(a, b, "block mismatch at {n_err} errors");
        }
    }

    #[test]
    fn codec_payload_roundtrip_matches_scalar() {
        let rs = ReedSolomon::paper();
        let mut codec = RsCodec::paper();
        let payload: Vec<u8> = (0..517).map(|i| (i % 256) as u8).collect();
        let mut packed_out = Vec::new();
        codec.encode_payload_into(&payload, &mut packed_out);
        assert_eq!(packed_out, rs.encode_payload(&payload));
        packed_out[10] ^= 1;
        packed_out[250] ^= 2;
        packed_out[500] ^= 3;
        let mut scalar_coded = packed_out.clone();
        let corrected = codec
            .decode_payload_in_place(&mut packed_out, 517)
            .expect("decodable");
        let (scalar_payload, scalar_fixed) = rs
            .decode_payload(&mut scalar_coded, 517)
            .expect("decodable");
        assert_eq!(corrected, scalar_fixed);
        let mut extracted = Vec::new();
        codec.extract_payload_into(&packed_out, 517, &mut extracted);
        assert_eq!(extracted, scalar_payload);
        assert_eq!(extracted, payload);
    }

    #[test]
    fn codec_rejects_bad_lengths_like_scalar() {
        let mut codec = RsCodec::paper();
        let mut short = vec![0u8; 16];
        assert_eq!(
            codec.decode_in_place(&mut short),
            Err(RsError::BadBlockLength { len: 16 })
        );
        let mut wrong = vec![0u8; 100];
        assert!(matches!(
            codec.decode_payload_in_place(&mut wrong, 200),
            Err(RsError::BadBlockLength { .. })
        ));
    }

    proptest! {
        #[test]
        fn prop_roundtrip_with_up_to_t_errors(
            data in proptest::collection::vec(any::<u8>(), 1..=200),
            err_seed in any::<u64>(),
            n_err in 0usize..=8,
        ) {
            let rs = ReedSolomon::paper();
            let clean = rs.encode(&data);
            let mut coded = clean.clone();
            let mut rng = StdRng::seed_from_u64(err_seed);
            let mut positions = std::collections::HashSet::new();
            let n_err = n_err.min(coded.len());
            while positions.len() < n_err {
                positions.insert(rng.gen_range(0..coded.len()));
            }
            for &p in &positions {
                coded[p] ^= rng.gen_range(1..=255u8);
            }
            let fixed = rs.decode(&mut coded).expect("within capacity");
            prop_assert_eq!(fixed, n_err);
            prop_assert_eq!(&coded[..data.len()], &data[..]);
        }

        #[test]
        fn prop_parity_is_deterministic(data in proptest::collection::vec(any::<u8>(), 0..=200)) {
            let rs = ReedSolomon::paper();
            if data.is_empty() {
                return Ok(());
            }
            prop_assert_eq!(rs.encode(&data), rs.encode(&data));
        }
    }
}

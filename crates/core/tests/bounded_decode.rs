//! Decoding an untrusted `.eie` container is bounded by its length:
//! every prefix of a valid artifact and every single-byte corruption of
//! it (three flip masks per byte, both as-is — the checksum's job — and
//! with the payload checksum recomputed, so the corruption reaches the
//! container fields and the layer decoders) load within
//! `PER_BYTE · input_len + SLACK` peak live heap bytes, for every codec.
//!
//! The bound is the layer codecs' (`eie-compress`'s `bounded_decode`
//! test: at most 32 heap bytes per input byte) — the container adds
//! only per-layer bookkeeping, which `SLACK` covers.

#[path = "../../compress/tests/alloc_meter/mod.rs"]
mod alloc_meter;

use alloc_meter::{assert_bounded, peak_during, Counting};
use eie_core::compress::WeightCodecKind;
use eie_core::nn::zoo::random_sparse;
use eie_core::{CompiledModel, EieConfig};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak heap bytes per input byte.
const PER_BYTE: usize = 32;
/// Fixed allowance for constant-size decoder state.
const SLACK: usize = 64 << 10;
/// The container preamble: magic, version, flags, payload length, CRC.
const PREAMBLE_LEN: usize = 16;

/// CRC-32 (IEEE), the container's payload checksum.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

fn check(codec: WeightCodecKind, what: &str, bytes: &[u8]) {
    let (_, peak) = peak_during(|| CompiledModel::from_bytes(bytes));
    assert_bounded(
        &format!("{codec} container {what}"),
        bytes.len(),
        peak,
        PER_BYTE,
        SLACK,
    );
}

#[test]
fn every_truncation_and_bitflip_loads_within_the_bound() {
    let w1 = random_sparse(24, 16, 0.25, 1);
    let w2 = random_sparse(12, 24, 0.25, 2);
    for codec in WeightCodecKind::ALL {
        let config = EieConfig::default().with_num_pes(4).with_codec(codec);
        let bytes = CompiledModel::compile(config, &[&w1, &w2]).to_bytes();
        for cut in 0..=bytes.len() {
            check(codec, &format!("prefix {cut}"), &bytes[..cut]);
        }
        let mut corrupt = bytes.clone();
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                corrupt[pos] ^= flip;
                check(codec, &format!("flip {flip:#04x} at byte {pos}"), &corrupt);
                if pos >= PREAMBLE_LEN {
                    let mut resealed = corrupt.clone();
                    let crc = crc32(&resealed[PREAMBLE_LEN..]);
                    resealed[12..16].copy_from_slice(&crc.to_le_bytes());
                    check(
                        codec,
                        &format!("resealed flip {flip:#04x} at byte {pos}"),
                        &resealed,
                    );
                }
                corrupt[pos] ^= flip;
            }
        }
    }
}

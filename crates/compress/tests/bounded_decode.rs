//! Decoding untrusted bytes is bounded by their length: for every weight
//! codec, every prefix of a valid image and every single-byte corruption
//! of it (three flip masks per byte) decode within
//! `PER_BYTE · input_len + SLACK` peak live heap bytes, measured by a
//! counting global allocator — so a corrupt header cannot pass by being
//! lucky about overcommit.
//!
//! The bound: every decoded symbol costs at least one input bit, and a
//! symbol becomes one 2-byte entry plus one byte in each of the two
//! staging streams (codes, zero runs), so 4 bytes per bit is 32 per
//! input byte; `SLACK` covers fixed-size tables and headers.

#[path = "alloc_meter/mod.rs"]
mod alloc_meter;

use alloc_meter::{assert_bounded, peak_during, Counting};
use eie_compress::{compress, decode_any, CompressConfig, EncodedLayer, WeightCodecKind};
use eie_nn::zoo::random_sparse;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak heap bytes per input byte (see the module docs).
const PER_BYTE: usize = 32;
/// Fixed allowance for constant-size decoder state.
const SLACK: usize = 64 << 10;

fn sample() -> EncodedLayer {
    compress(&random_sparse(48, 32, 0.2, 3), CompressConfig::with_pes(2))
}

/// Decodes `bytes` with `kind`'s codec and through `decode_any`,
/// asserting the bound on both, and that a successful decode is valid.
fn check(kind: WeightCodecKind, what: &str, bytes: &[u8]) {
    let (decoded, peak) = peak_during(|| kind.codec().decode(bytes));
    assert_bounded(
        &format!("{kind} {what}"),
        bytes.len(),
        peak,
        PER_BYTE,
        SLACK,
    );
    if let Ok(layer) = decoded {
        layer.validate().expect("decode returned an invalid layer");
    }
    let (_, peak) = peak_during(|| decode_any(bytes));
    assert_bounded(
        &format!("decode_any {kind} {what}"),
        bytes.len(),
        peak,
        PER_BYTE,
        SLACK,
    );
}

#[test]
fn every_truncation_and_bitflip_decodes_within_the_bound() {
    let layer = sample();
    for kind in WeightCodecKind::ALL {
        let bytes = kind.codec().encode(&layer);
        for cut in 0..=bytes.len() {
            check(kind, &format!("prefix {cut}"), &bytes[..cut]);
        }
        let mut corrupt = bytes.clone();
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                corrupt[pos] ^= flip;
                check(kind, &format!("flip {flip:#04x} at byte {pos}"), &corrupt);
                corrupt[pos] ^= flip;
            }
        }
    }
}

#[test]
fn the_meter_sees_an_unbacked_reservation() {
    // The counting allocator is what makes the bound meaningful: a bare
    // reservation the OS would never back still counts in full.
    let (v, peak) = peak_during(|| Vec::<u8>::with_capacity(1 << 30));
    assert!(peak >= 1 << 30, "{peak}");
    drop(v);
}

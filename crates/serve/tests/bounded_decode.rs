//! Decoding untrusted wire bytes is bounded by their length: every
//! prefix of a valid frame and every single-byte corruption of it
//! (three flip masks per byte) go through `read_frame` and the body
//! decoder within `PER_BYTE · input_len + SLACK` peak live heap bytes,
//! measured by a counting global allocator.
//!
//! The bound: a body is read into a buffer that grows with the bytes
//! that arrive (one byte per byte, up to twice that while a growing
//! `Vec` moves), and every decoded field is no larger than its encoded
//! bytes; `SLACK` covers the body reader's first 64 KiB chunk, which a
//! length prefix may claim before its bytes arrive.

#[path = "../../compress/tests/alloc_meter/mod.rs"]
mod alloc_meter;

use alloc_meter::{assert_bounded, peak_during, Counting};
use eie_serve::protocol::{read_frame, ErrorCode, OutputReport, Request, Response};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak heap bytes per input byte.
const PER_BYTE: usize = 4;
/// The body reader's first chunk plus fixed decoder state.
const SLACK: usize = (64 << 10) + 4096;

/// Reads one frame from `wire` and decodes its body as a request or a
/// response, asserting the bound over both steps.
fn check(what: &str, wire: &[u8], request: bool) {
    let (_, peak) = peak_during(|| {
        let mut stream = wire;
        match read_frame(&mut stream) {
            Ok(Some(body)) if request => Request::from_body(&body).is_ok(),
            Ok(Some(body)) => Response::from_body(&body).is_ok(),
            _ => false,
        }
    });
    assert_bounded(what, wire.len(), peak, PER_BYTE, SLACK);
}

#[test]
fn every_truncation_and_bitflip_decodes_within_the_bound() {
    let input: Vec<f32> = (0..300).map(|i| (i % 17) as f32 * 0.25 - 2.0).collect();
    let frames = [
        (
            "infer request",
            Request::Infer {
                model: "alexnet".into(),
                input,
                deadline_us: 5_000,
                attempt: 1,
            }
            .to_frame(),
            true,
        ),
        ("stats request", Request::Stats.to_frame(), true),
        (
            "output response",
            Response::Output(OutputReport {
                outputs: (0..200).map(|i| i * 131 - 9000).collect(),
                queue_us: 12.5,
                latency_us: 340.0,
                coalesced: 8,
                worker: 1,
            })
            .to_frame(),
            false,
        ),
        (
            "error response",
            Response::Error {
                code: ErrorCode::UnknownModel,
                message: "no such model".into(),
            }
            .to_frame(),
            false,
        ),
    ];
    for (name, wire, request) in &frames {
        for cut in 0..=wire.len() {
            check(&format!("{name} prefix {cut}"), &wire[..cut], *request);
        }
        let mut corrupt = wire.clone();
        for pos in 0..wire.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                corrupt[pos] ^= flip;
                check(
                    &format!("{name} flip {flip:#04x} at byte {pos}"),
                    &corrupt,
                    *request,
                );
                corrupt[pos] ^= flip;
            }
        }
    }
}

//! The traced run's per-layer probes: the benchmark's own timed calls
//! into each layer's public functions, the same on every workload so a
//! layer's figures compare across runs whatever the traffic was.

use std::fs;
use std::hint::black_box;
use std::time::{Duration, Instant};

use eie_core::compress::{WeightCodecKind, LANE_WIDTH};
use eie_core::fixed::Q8p8;
use eie_core::{Backend, CompiledModel, NativeCpu};
use eie_serve::protocol::Response;
use eie_serve::{ModelRegistry, NetServer, ServerConfig};

use crate::fixtures::{Alexnet, Churn, ModelOrder, ALEXNET_NAME};
use crate::report::{metric, Metric};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::workloads::{connect, infer, Fallible};

/// Request ids of probe spans start here, apart from workload traffic.
const PROBE_RID: u64 = 1 << 60;
/// Sequential INFERs of the protocol probe.
const PROTOCOL_PROBES: usize = 64;
/// Timed repeats per kernel cell, batch 1 and batch 8.
const KERNEL_REPEATS: [(usize, usize); 2] = [(1, 21), (8, 9)];
/// Decodes per artifact, plan builds, registry replay length.
const DECODE_REPEATS: usize = 5;
const PLAN_REPEATS: usize = 3;
const REGISTRY_REPLAY_ROUNDS: usize = 5;
/// STREAM copy arrays: 32 MiB each, larger than a server CPU's
/// last-level cache, so the copy runs from memory.
const STREAM_WORDS: usize = 4 << 20;
const STREAM_REPEATS: usize = 9;

/// Layer labels of the AlexNet stack.
const LAYERS: [&str; 3] = ["fc6", "fc7", "fc8"];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times `f` `n` times; returns the median and the last result.
fn timed<T>(n: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let start = Instant::now();
        let out = black_box(f());
        times.push(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    (
        Duration::from_secs_f64(median(&times)),
        last.expect("at least one repeat"),
    )
}

/// Every probe, in a fixed order.
pub fn run_all(alex: &Alexnet, churn: &Churn, seed: u64, tracer: &Tracer) -> Fallible<Vec<Metric>> {
    let mut out = Vec::new();
    protocol(alex, tracer, &mut out)?;
    let stream_gbps = tracer.span("probe.stream", PROBE_RID, SpanId::NONE, stream_copy_gbps);
    out.push(metric("stream_copy_gbps", stream_gbps, "GB/s"));
    kernel(alex, tracer, &mut out)?;
    artifacts(churn, tracer, &mut out)?;
    plan(alex, tracer, &mut out)?;
    registry(churn, seed, tracer, &mut out)?;
    Ok(out)
}

/// Frame encode/decode, frame sizes and the network residual, from
/// sequential INFERs of the AlexNet model on one raw connection.
fn protocol(alex: &Alexnet, tracer: &Tracer, out: &mut Vec<Metric>) -> Fallible<()> {
    let registry = ModelRegistry::new(ServerConfig::default());
    registry.register_file(ALEXNET_NAME, &alex.path)?;
    let server = NetServer::bind("127.0.0.1:0", registry)?;
    let mut stream = connect(server.local_addr())?;
    let off = Tracer::new(false);
    for k in 0..4 {
        infer(
            &mut stream,
            ALEXNET_NAME,
            alex.cases.input(k),
            &off,
            0,
            SpanId::NONE,
        )?;
    }
    let (mut encode, mut decode, mut residual) = (Vec::new(), Vec::new(), Vec::new());
    let (mut request_bytes, mut response_bytes) = (0, 0);
    for k in 0..PROTOCOL_PROBES {
        let rid = PROBE_RID + k as u64;
        let root = tracer.open("probe.protocol", rid, SpanId::NONE);
        let ex = infer(
            &mut stream,
            ALEXNET_NAME,
            alex.cases.input(k),
            tracer,
            rid,
            root,
        )?;
        tracer.close(root);
        let Response::Output(report) = &ex.response else {
            return Err(format!("protocol probe answered {:?}", ex.response).into());
        };
        if !alex.cases.matches(k, &report.outputs) {
            return Err("protocol probe output differs from the golden output".into());
        }
        encode.push(us(ex.encode));
        decode.push(us(ex.decode));
        residual.push(us(ex.round_trip) - report.latency_us);
        (request_bytes, response_bytes) = (ex.request_bytes, ex.response_bytes);
    }
    drop(stream);
    server.stop();
    out.push(metric("frame_encode_us", median(&encode), "us"));
    out.push(metric("frame_decode_us", median(&decode), "us"));
    out.push(metric("request_frame_bytes", request_bytes as f64, "bytes"));
    out.push(metric(
        "response_frame_bytes",
        response_bytes as f64,
        "bytes",
    ));
    out.push(metric("net_residual_us", median(&residual), "us"));
    Ok(())
}

/// STREAM-style copy bandwidth: bytes read plus bytes written per
/// second, median over repeats.
pub fn stream_copy_gbps() -> f64 {
    let src: Vec<u64> = (0..STREAM_WORDS as u64).collect();
    let mut dst = vec![0u64; STREAM_WORDS];
    dst.copy_from_slice(&src);
    let (t, ()) = timed(STREAM_REPEATS, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    (2 * STREAM_WORDS * std::mem::size_of::<u64>()) as f64 / t.as_secs_f64() / 1e9
}

/// Activation shape of one batch against one layer.
struct ActShape {
    /// Non-zero activations over all items.
    nnz: usize,
    /// Live (lane block, column) pairs: the kernel's unit of work.
    live_blocks: usize,
    /// Columns with a non-zero in any item.
    live_cols: Vec<usize>,
}

fn act_shape(batch: &[Vec<Q8p8>]) -> ActShape {
    let cols = batch[0].len();
    let mut nnz = 0;
    let mut live_blocks = 0;
    let mut any = vec![false; cols];
    for block in batch.chunks(LANE_WIDTH) {
        let mut live = vec![false; cols];
        for item in block {
            for (j, a) in item.iter().enumerate() {
                if !a.is_zero() {
                    nnz += 1;
                    live[j] = true;
                    any[j] = true;
                }
            }
        }
        live_blocks += live.iter().filter(|&&l| l).count();
    }
    let live_cols = (0..cols).filter(|&j| any[j]).collect();
    ActShape {
        nnz,
        live_blocks,
        live_cols,
    }
}

/// The native kernel per layer at batch 1 and 8 on one thread, with
/// the bytes each call moves and the plan's shape.
fn kernel(alex: &Alexnet, tracer: &Tracer, out: &mut Vec<Metric>) -> Fallible<()> {
    let model = &alex.model;
    let backend = NativeCpu::with_threads(1);
    let mut inputs: Vec<Vec<Q8p8>> = alex.cases.inputs[..8]
        .iter()
        .map(|x| Q8p8::from_f32_slice(x))
        .collect();
    let mut lane_nnz = [0usize; 2];
    let mut lane_slots = [0usize; 2];
    for (li, label) in LAYERS.into_iter().enumerate() {
        let relu = li + 1 < LAYERS.len();
        let planned = model.planned_layer(li);
        let plan = model.plan(li);
        let layer = model.layer(li);
        let shape8 = act_shape(&inputs);
        out.push(metric(
            format!("act_nnz_share.{label}"),
            shape8.nnz as f64 / (inputs.len() * layer.cols()) as f64,
            "share",
        ));
        let entries: Vec<usize> = plan.slices().iter().map(|s| s.num_entries()).collect();
        let mean = entries.iter().sum::<usize>() as f64 / entries.len() as f64;
        let max = *entries.iter().max().expect("a plan has slices") as f64;
        out.push(metric(format!("pe_balance.{label}"), max / mean, "ratio"));
        let padding: usize = layer.slices().iter().map(|s| s.padding_entries()).sum();
        out.push(metric(
            format!("padding_share.{label}"),
            padding as f64 / layer.total_entries() as f64,
            "share",
        ));
        let mut next = Vec::new();
        for (slot, (n, repeats)) in KERNEL_REPEATS.into_iter().enumerate() {
            let batch = &inputs[..n];
            let shape = if n == inputs.len() {
                &shape8
            } else {
                &act_shape(batch)
            };
            lane_nnz[slot] += shape.nnz;
            lane_slots[slot] += shape.live_blocks * LANE_WIDTH;
            // Bytes one call moves: each live column's plan entries
            // (row u32 + weight i32) and its two extent reads per
            // slice, plus activations in and outputs out (Q8.8).
            let plan_bytes: usize = shape
                .live_cols
                .iter()
                .map(|&j| {
                    plan.slices()
                        .iter()
                        .map(|s| s.col(j).0.len() * 8 + 8)
                        .sum::<usize>()
                })
                .sum();
            let bytes = plan_bytes + n * (layer.cols() + layer.rows()) * 2;
            backend.run_layer_batch_planned(planned, batch, relu);
            let (t, runs) = timed(repeats, || {
                tracer.span("probe.kernel", PROBE_RID, SpanId::NONE, || {
                    backend.run_layer_batch_planned(planned, batch, relu)
                })
            });
            out.push(metric(format!("layer_us.{label}.b{n}"), us(t), "us"));
            out.push(metric(
                format!("layer_bytes.{label}.b{n}"),
                bytes as f64,
                "bytes",
            ));
            out.push(metric(
                format!("layer_gbps.{label}.b{n}"),
                bytes as f64 / t.as_secs_f64() / 1e9,
                "GB/s",
            ));
            if n == inputs.len() {
                next = runs.into_iter().map(|r| r.outputs).collect();
            }
        }
        inputs = next;
    }
    for (slot, (n, _)) in KERNEL_REPEATS.into_iter().enumerate() {
        out.push(metric(
            format!("lane_occupancy.b{n}"),
            lane_nnz[slot] as f64 / lane_slots[slot] as f64,
            "share",
        ));
    }
    for (k, outputs) in inputs.iter().enumerate() {
        let raw: Vec<i16> = outputs.iter().map(|q| q.raw()).collect();
        if !alex.cases.matches(k, &raw) {
            return Err("kernel probe output differs from the golden output".into());
        }
    }
    Ok(())
}

/// Artifact decode time and stored bytes per codec, over the churn
/// set's three layers.
fn artifacts(churn: &Churn, tracer: &Tracer, out: &mut Vec<Metric>) -> Fallible<()> {
    for codec in WeightCodecKind::ALL {
        let (mut decode_ms, mut stored) = (0.0, 0);
        for m in churn.models.iter().filter(|m| m.codec == codec) {
            let bytes = fs::read(&m.path)?;
            let (t, decoded) = timed(DECODE_REPEATS, || {
                tracer.span("probe.decode", PROBE_RID, SpanId::NONE, || {
                    CompiledModel::from_bytes(&bytes)
                })
            });
            if decoded?.layers() != churn.layers[m.layer].layers() {
                return Err(format!("{} decodes to different layers", m.name).into());
            }
            decode_ms += ms(t);
            stored += bytes.len();
        }
        out.push(metric(
            format!("artifact_decode_ms.{}", codec.name()),
            decode_ms,
            "ms",
        ));
        out.push(metric(
            format!("stored_bytes.{}", codec.name()),
            stored as f64,
            "bytes",
        ));
    }
    Ok(())
}

/// First `planned_layers()` on a freshly decoded AlexNet artifact.
fn plan(alex: &Alexnet, tracer: &Tracer, out: &mut Vec<Metric>) -> Fallible<()> {
    let bytes = fs::read(&alex.path)?;
    let mut times = Vec::new();
    let mut plan_bytes = 0;
    for _ in 0..PLAN_REPEATS {
        let model = CompiledModel::from_bytes(&bytes)?;
        let start = Instant::now();
        tracer.span("probe.plan", PROBE_RID, SpanId::NONE, || {
            black_box(model.planned_layers());
        });
        times.push(ms(start.elapsed()));
        plan_bytes = (0..model.num_layers())
            .map(|i| model.plan(i).resident_bytes())
            .sum();
    }
    out.push(metric("plan_build_ms", median(&times), "ms"));
    out.push(metric("plan_bytes", plan_bytes as f64, "bytes"));
    Ok(())
}

/// Replays the churn order against `ModelRegistry::acquire` in-process.
fn registry(churn: &Churn, seed: u64, tracer: &Tracer, out: &mut Vec<Metric>) -> Fallible<()> {
    let registry =
        ModelRegistry::new(ServerConfig::default()).with_budget_bytes(churn.budget_bytes());
    for m in &churn.models {
        registry.register_file(m.name.as_str(), &m.path)?;
    }
    let (mut cold, mut hit) = (Vec::new(), Vec::new());
    let mut order = ModelOrder::new(seed, churn.models.len());
    for m in (0..REGISTRY_REPLAY_ROUNDS).flat_map(|_| order.next_round()) {
        let name = &churn.models[m].name;
        let resident = registry.is_resident(name);
        let start = Instant::now();
        let lease = tracer.span("probe.acquire", PROBE_RID, SpanId::NONE, || {
            registry.acquire(name)
        })?;
        let t = start.elapsed();
        drop(lease);
        if resident {
            hit.push(us(t));
        } else {
            cold.push(ms(t));
        }
    }
    out.push(metric("acquire_cold_ms", median(&cold), "ms"));
    out.push(metric("acquire_hit_us", median(&hit), "us"));
    Ok(())
}

//! Kernel sweep: the reproducible perf baseline of the native hot path.
//!
//! Measures layer throughput across a batch-size sweep (1, 4, 8, 16,
//! 32) for two kernels:
//!
//! * **streaming** — per-call entry-stream decode, scoped threads (the
//!   pre-plan code path, kept alive as `NativeCpu::without_plans`),
//! * **plan** — pre-decoded [`LayerPlan`]s on the persistent pool, with
//!   fused batches on the batch-lane kernel (fixed-width
//!   `[i32; LANE_WIDTH]` MACs, per-layer column tiles; AVX2 when the
//!   host has it — the recorded `simd` field says which path ran).
//!
//! Both kernels are asserted bit-exact against each other here — at
//! batch 1 and at the largest swept batch — before any number is
//! recorded; the property tests pin the same equivalence against the
//! functional golden model.
//!
//! Output: a table + story on stdout (and `results/kernel_sweep.txt`),
//! plus the machine-readable **`BENCH_kernel.json`** at the repo root —
//! the recorded perf trajectory (schema `eie-kernel-sweep/v3`,
//! documented in `EXPERIMENTS.md`). Only a full-scale non-quick run
//! touches that file: `--quick` (the CI smoke: one layer, bounded
//! iterations, batches 1 and 8) writes
//! `results/kernel_sweep_quick.json`, and an `EIE_SCALE`'d run writes
//! `results/kernel_sweep_scaled.json`, so the committed scale-1 record
//! is never clobbered.

use std::fmt::Write as _;
use std::time::Instant;

use eie_bench::*;
use eie_core::baselines::TimingHarness;

/// One measured cell of the sweep.
struct Cell {
    layer: &'static str,
    rows: usize,
    cols: usize,
    pes: usize,
    threads: usize,
    /// Batch size of the run (1 = single-item path).
    batch: usize,
    /// `"streaming"` or `"plan"`.
    kernel: &'static str,
    us_per_frame: f64,
    frames_per_second: f64,
}

/// The per-(layer, threads) headline inputs.
struct Headline {
    layer: String,
    threads: usize,
    single_speedup: f64,
    batch: usize,
    batch_speedup: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let started = Instant::now();
    let config = paper_config();
    let harness = if quick {
        TimingHarness {
            min_runs: 2,
            max_runs: 4,
            target_total_us: 1e5,
        }
    } else {
        TimingHarness {
            min_runs: 3,
            max_runs: 9,
            target_total_us: 7e5,
        }
    };
    let available = NativeCpu::new().threads();
    let mut thread_counts = vec![1usize];
    if available > 1 && !quick {
        thread_counts.push(available);
    }
    let benchmarks: &[Benchmark] = if quick {
        &[Benchmark::Alex7]
    } else {
        &[Benchmark::Alex6, Benchmark::Alex7, Benchmark::NtWe]
    };
    let batches: &[usize] = if quick { &[1, 8] } else { &[1, 4, 8, 16, 32] };
    let max_batch = *batches.last().expect("batch sweep is non-empty");
    const KERNELS: [&str; 2] = ["streaming", "plan"];

    let mut table = TextTable::new(
        format!(
            "Kernel sweep: streaming vs plan (lanes: {}), scale 1/{}, EIE = {}",
            lane_isa(),
            scale_divisor(),
            config
        ),
        &[
            "layer",
            "threads",
            "mode",
            "kernel",
            "µs/frame",
            "frames/s",
            "speedup",
        ],
    );
    let mut cells: Vec<Cell> = Vec::new();
    let mut tiles: Vec<(&'static str, usize)> = Vec::new();
    let mut headline: Option<Headline> = None;

    for &benchmark in benchmarks {
        let layer = layer_at_scale(benchmark);
        let (rows, cols) = (layer.weights.rows(), layer.weights.cols());
        let model = model_at_scale(benchmark, config);
        let enc = model.layer(0);
        let acts = Q8p8::from_f32_slice(&layer.sample_activations(DEFAULT_SEED));
        let batch: Vec<Vec<Q8p8>> = layer
            .sample_activation_batch(DEFAULT_SEED, max_batch)
            .iter()
            .map(|item| Q8p8::from_f32_slice(item))
            .collect();
        tiles.push((benchmark.name(), LayerPlan::build(enc).lane_tile().cols()));

        for &threads in &thread_counts {
            let plan = NativeCpu::with_threads(threads);
            let stream = plan.clone().without_plans();
            let engines = [&stream, &plan];
            // Warm every engine and refuse to record perf of wrong
            // answers: the two kernels must agree bit-exactly at
            // batch 1 and at the largest swept batch (covering the
            // lane kernel's padded tail blocks).
            let warmed: Vec<_> = engines
                .iter()
                .map(|e| e.run_layer(enc, &acts, false).outputs)
                .collect();
            assert!(
                warmed.iter().all(|w| *w == warmed[0]),
                "{benchmark}: single-item kernels diverged"
            );
            let warmed_b: Vec<_> = engines
                .iter()
                .map(|e| e.run_layer_batch(enc, &batch, false))
                .collect();
            for i in 0..max_batch {
                assert!(
                    warmed_b
                        .iter()
                        .all(|runs| runs[i].outputs == warmed_b[0][i].outputs),
                    "{benchmark}: batch item {i} diverged across kernels"
                );
            }
            println!(
                "verified: streaming/plan bit-exact on {} \
                 (single + batch {max_batch}, {threads}t)",
                benchmark.name()
            );

            // fps by [batch index][kernel index] for the speedup math.
            let mut fps = vec![[0.0f64; KERNELS.len()]; batches.len()];
            for (bi, &b) in batches.iter().enumerate() {
                let mode = if b == 1 {
                    "single".to_string()
                } else {
                    format!("batch{b}")
                };
                for (k, (kernel, backend)) in KERNELS.iter().zip(engines).enumerate() {
                    let us = if b == 1 {
                        harness.measure_us(|| backend.run_layer(enc, &acts, false))
                    } else {
                        harness.measure_us(|| backend.run_layer_batch(enc, &batch[..b], false))
                            / b as f64
                    };
                    fps[bi][k] = 1e6 / us;
                    cells.push(Cell {
                        layer: benchmark.name(),
                        rows,
                        cols,
                        pes: config.num_pes,
                        threads,
                        batch: b,
                        kernel,
                        us_per_frame: us,
                        frames_per_second: fps[bi][k],
                    });
                    table.row(vec![
                        benchmark.name().into(),
                        threads.to_string(),
                        mode.clone(),
                        (*kernel).into(),
                        f(us, 1),
                        f(fps[bi][k], 0),
                        if k == 0 {
                            "-".into()
                        } else {
                            x(fps[bi][k] / fps[bi][0])
                        },
                    ]);
                }
            }
            // Headline by the fused-batch win at the reference batch
            // (16, or the largest swept in quick mode): that is the
            // number this kernel exists for.
            let ref_bi = batches
                .iter()
                .position(|&b| b == 16)
                .unwrap_or(batches.len() - 1);
            let candidate = Headline {
                layer: benchmark.name().to_string(),
                threads,
                single_speedup: fps[0][1] / fps[0][0],
                batch: batches[ref_bi],
                batch_speedup: fps[ref_bi][1] / fps[ref_bi][0],
            };
            if headline
                .as_ref()
                .map(|h| candidate.batch_speedup > h.batch_speedup)
                .unwrap_or(true)
            {
                headline = Some(candidate);
            }
            eprintln!(
                "[{} @ {}t] done in {:.1}s",
                benchmark.name(),
                threads,
                started.elapsed().as_secs_f64()
            );
        }
    }

    let hl = headline.expect("at least one benchmark ran");
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\nHeadline: {} fused batch-{} {} plan-over-streaming at {} thread(s) \
         (single-item {}, {} lanes). The batch-lane kernel transposes activations \
         into {}-item blocks once per batch and applies each pre-decoded weight to a \
         whole block as one fixed-width saturating MAC, tiled per layer so the SoA \
         entry runs stay cache-resident; streaming re-decodes the compressed stream \
         per call — exactly what the serving path used to do.",
        hl.layer,
        hl.batch,
        x(hl.batch_speedup),
        hl.threads,
        x(hl.single_speedup),
        lane_isa(),
        LANE_WIDTH,
    );
    emit("kernel_sweep", &out);

    // ---- machine-readable record ------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"eie-kernel-sweep/v3\",");
    let _ = writeln!(json, "  \"scale_divisor\": {},", scale_divisor());
    let _ = writeln!(json, "  \"pes\": {},", config.num_pes);
    let _ = writeln!(json, "  \"threads_available\": {available},");
    let _ = writeln!(
        json,
        "  \"batches\": [{}],",
        batches
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"lane_width\": {LANE_WIDTH},");
    let _ = writeln!(json, "  \"simd\": \"{}\",", lane_isa());
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"lane_tiles\": [{}],",
        tiles
            .iter()
            .map(|(name, cols)| format!("{{\"layer\": \"{name}\", \"cols_per_tile\": {cols}}}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        json,
        "  \"headline\": {{\"layer\": \"{}\", \"threads\": {}, \"batch\": {}, \
         \"single_item_speedup\": {:.3}, \"batch_speedup\": {:.3}}},",
        hl.layer, hl.threads, hl.batch, hl.single_speedup, hl.batch_speedup
    );
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"layer\": \"{}\", \"rows\": {}, \"cols\": {}, \"pes\": {}, \
             \"threads\": {}, \"batch\": {}, \"kernel\": \"{}\", \
             \"us_per_frame\": {:.3}, \"frames_per_second\": {:.1}}}",
            c.layer,
            c.rows,
            c.cols,
            c.pes,
            c.threads,
            c.batch,
            c.kernel,
            c.us_per_frame,
            c.frames_per_second,
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    // Only a full-scale, non-quick run may refresh the committed
    // repo-root record; quick and EIE_SCALE'd runs land in results/ so
    // the recorded scale-1 trajectory is never clobbered.
    let path = if quick {
        results_dir().join("kernel_sweep_quick.json")
    } else if scale_divisor() != 1 {
        results_dir().join("kernel_sweep_scaled.json")
    } else {
        std::path::PathBuf::from("BENCH_kernel.json")
    };
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

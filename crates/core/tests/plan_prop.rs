//! Property tests of the execution-plan refactor: the plan kernel is a
//! *layout* change, never a numerical one.
//!
//! For random layers, PE counts and batch shapes, the batch-lane
//! vectorized `NativeCpu` (AVX2 on hosts that have it) must produce
//! `Q8p8` outputs bit-identical to the functional golden model and to
//! the streaming kernel it replaced (`without_plans`) — including on
//! saturation-heavy inputs near the `Accum32` limits,
//! where any reordering, dropped-padding, or lane-padding mistake would
//! change which saturating add clamps first, and at every lane-remainder
//! batch size (each congruence class mod [`LANE_WIDTH`] plus a
//! non-multiple like 13), where a tail-block bug would show.

use eie_core::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Strategy: a compressed layer, a batch of quantized inputs, and a PE
/// count drawn from {1, 2, 3, 4, 8}.
fn arb_case() -> impl Strategy<Value = (EncodedLayer, Vec<Vec<Q8p8>>)> {
    (
        4usize..48,
        4usize..40,
        0.05f64..0.5,
        any::<u64>(),
        prop_oneof![Just(1usize), Just(2), Just(3), Just(4), Just(8)],
        0.1f64..1.0,
        any::<u64>(),
        // Every batch size through one past the lane width (covers each
        // remainder class of the lane kernel's padded tail block), plus
        // a larger non-multiple.
        prop_oneof![1usize..=LANE_WIDTH + 1, Just(13usize)],
    )
        .prop_map(
            |(rows, cols, density, seed, pes, act_density, act_seed, batch)| {
                // Reroll degenerate all-zero matrices (compress rejects them).
                let mut m = random_sparse(rows, cols, density, seed);
                let mut reroll = seed;
                while m.nnz() == 0 {
                    reroll = reroll.wrapping_add(0x9E37_79B9);
                    m = random_sparse(rows, cols, density.max(0.2), reroll);
                }
                let enc = compress(&m, CompressConfig::with_pes(pes));
                let items = (0..batch as u64)
                    .map(|i| {
                        Q8p8::from_f32_slice(&eie_core::nn::zoo::sample_activations(
                            cols,
                            act_density,
                            true,
                            act_seed.wrapping_add(i),
                        ))
                    })
                    .collect();
                (enc, items)
            },
        )
}

/// Every lane-remainder batch size: each congruence class mod
/// [`LANE_WIDTH`] through one past it, a larger non-multiple, an exact
/// double block and a lone spillover lane.
fn remainder_batches() -> impl Iterator<Item = usize> {
    (1..=LANE_WIDTH + 1).chain([13, 2 * LANE_WIDTH, 2 * LANE_WIDTH + 1])
}

/// Strategy: a layer whose weights and activations sit near the Q8.8
/// rails, so accumulators brush the `Accum32` saturation limits within
/// a few MACs — the inputs where add order is *observable*. The batch
/// holds `2 * LANE_WIDTH + 1` items so every prefix in
/// [`remainder_batches`] can be replayed from one case.
fn arb_saturating_case() -> impl Strategy<Value = (EncodedLayer, Vec<Vec<Q8p8>>)> {
    (
        2usize..24,
        4usize..24,
        any::<u64>(),
        prop_oneof![Just(1usize), Just(2), Just(4)],
    )
        .prop_map(|(rows, cols, seed, pes)| {
            let batch = 2 * LANE_WIDTH + 1;
            let mut state = seed | 1;
            let mut next = move || {
                // xorshift64: deterministic, dependency-free.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            // Dense-ish matrix of near-rail weights with mixed signs:
            // every product is ~±120·120, so two same-sign adds already
            // approach the 32-bit accumulator limit.
            let mut triplets = Vec::new();
            for r in 0..rows {
                for c in 0..cols {
                    if next() % 4 == 0 {
                        continue; // keep some sparsity
                    }
                    let sign = if next() % 2 == 0 { 1.0 } else { -1.0 };
                    triplets.push((r, c, sign * (100.0 + (next() % 28) as f32)));
                }
            }
            if triplets.is_empty() {
                triplets.push((0, 0, 127.0));
            }
            let m = CsrMatrix::from_triplets(rows, cols, &triplets);
            let enc = compress(&m, CompressConfig::with_pes(pes));
            let items = (0..batch)
                .map(|_| {
                    (0..cols)
                        .map(|_| {
                            if next() % 5 == 0 {
                                Q8p8::ZERO
                            } else {
                                let sign = if next() % 2 == 0 { 1.0 } else { -1.0 };
                                Q8p8::from_f32(sign * (90.0 + (next() % 38) as f32))
                            }
                        })
                        .collect()
                })
                .collect();
            (enc, items)
        })
}

/// Asserts lane NativeCpu == streaming NativeCpu == functional golden,
/// item by item, single and batched, both writeback modes.
fn assert_plan_streaming_golden_agree(
    enc: &EncodedLayer,
    batch: &[Vec<Q8p8>],
    threads: usize,
) -> Result<(), TestCaseError> {
    let golden = Functional::new();
    let plan = NativeCpu::with_threads(threads);
    let stream = plan.clone().without_plans();
    for relu in [false, true] {
        let want = golden.run_layer(enc, &batch[0], relu);
        let p = plan.run_layer(enc, &batch[0], relu);
        let s = stream.run_layer(enc, &batch[0], relu);
        prop_assert_eq!(
            &p.outputs,
            &want.outputs,
            "plan single diverged from golden (relu={}, {} threads)",
            relu,
            threads
        );
        prop_assert_eq!(
            &s.outputs,
            &want.outputs,
            "streaming single diverged from golden (relu={}, {} threads)",
            relu,
            threads
        );
        let want_b = golden.run_layer_batch(enc, batch, relu);
        let p_b = plan.run_layer_batch(enc, batch, relu);
        let s_b = stream.run_layer_batch(enc, batch, relu);
        for i in 0..batch.len() {
            prop_assert_eq!(
                &p_b[i].outputs,
                &want_b[i].outputs,
                "lane batch item {} of {} diverged (relu={}, {} threads)",
                i,
                batch.len(),
                relu,
                threads
            );
            prop_assert_eq!(
                &s_b[i].outputs,
                &want_b[i].outputs,
                "streaming batch item {} diverged (relu={}, {} threads)",
                i,
                relu,
                threads
            );
        }
    }
    // Warm-path sanity: the plan engine lowered exactly one layer and
    // must not have rebuilt it across the calls above.
    prop_assert_eq!(plan.plan_builds(), 1);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random layers × PE counts × batch shapes: the plan kernel, the
    /// streaming kernel and the golden model are bit-identical.
    #[test]
    fn plan_streaming_and_golden_bit_exact((enc, batch) in arb_case(), threads in 1usize..5) {
        assert_plan_streaming_golden_agree(&enc, &batch, threads)?;
    }

    /// Saturation-heavy inputs near the `Accum32` rails: the add-order
    /// invariant survives plan lowering (padding drops, pre-multiplied
    /// weights, pool splitting) exactly, and padded tail lanes stay
    /// no-ops while real lanes clamp, at every lane-remainder batch.
    #[test]
    fn saturating_inputs_pin_the_add_order((enc, batch) in arb_saturating_case(), threads in 1usize..4) {
        for b in remainder_batches() {
            assert_plan_streaming_golden_agree(&enc, &batch[..b], threads)?;
        }
        // The case is only interesting if something actually clamps;
        // near-rail products guarantee plenty of saturated outputs.
        let out = Functional::new().run_layer(&enc, &batch[0], false).outputs;
        prop_assert!(
            out.iter().any(|v| *v == Q8p8::MAX || *v == Q8p8::MIN),
            "saturation strategy produced no clamped outputs"
        );
    }

    /// Plans passed explicitly through the model cache (the serving
    /// path: `planned_layer` → `run_layer_batch_planned`) agree with
    /// the backend's own cache path and the golden model.
    #[test]
    fn model_plan_cache_path_bit_exact((enc, batch) in arb_case()) {
        let config = EieConfig::default().with_num_pes(enc.num_pes());
        let model = CompiledModel::from_layers(config, vec![enc.clone()]);
        let backend = NativeCpu::with_threads(2);
        prop_assert_eq!(model.plans_built(), 0);
        let planned = model.planned_layer(0);
        prop_assert_eq!(model.plans_built(), 1);
        let via_model = backend.run_layer_batch_planned(planned, &batch, false);
        // The explicit plan was used: the backend never touched its own
        // cache, so it built nothing.
        prop_assert_eq!(backend.plan_builds(), 0);
        let golden = Functional::new().run_layer_batch(&enc, &batch, false);
        for i in 0..batch.len() {
            prop_assert_eq!(
                &via_model[i].outputs, &golden[i].outputs,
                "model-plan path diverged at item {}", i
            );
        }
    }
}

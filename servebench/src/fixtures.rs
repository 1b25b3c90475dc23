//! What every workload is built from: the zoo's weights at
//! [`DEFAULT_SEED`], compiled for the paper's 64-PE configuration and
//! written as `.eie` artifacts, plus seeded inputs and the
//! functional-golden output for each of them.

use std::io;
use std::path::{Path, PathBuf};

use eie_core::compress::WeightCodecKind;
use eie_core::nn::zoo::{BenchLayer, Benchmark, DEFAULT_SEED};
use eie_core::{BackendKind, CompiledModel, EieConfig};

/// Distinct inputs per model; requests cycle through them.
pub const POOL: usize = 16;

/// The AlexNet classifier head, FC6 → FC7 → FC8.
pub const ALEXNET: [Benchmark; 3] = [Benchmark::Alex6, Benchmark::Alex7, Benchmark::Alex8];

/// The layers the registry churn serves, each stored with every codec.
pub const CHURN_LAYERS: [Benchmark; 3] = [Benchmark::Alex7, Benchmark::NtWe, Benchmark::NtWd];

/// Registry name of the AlexNet model.
pub const ALEXNET_NAME: &str = "alexnet-fc6-8";

/// Seeded inputs of one model and their golden outputs (raw Q8.8).
#[derive(Debug)]
pub struct Cases {
    pub inputs: Vec<Vec<f32>>,
    pub golden: Vec<Vec<i16>>,
}

impl Cases {
    /// `POOL` inputs of `first_layer`'s shape and Table III density
    /// from `seed`, answered by the functional golden model.
    fn new(model: &CompiledModel, first_layer: &BenchLayer, seed: u64) -> Self {
        let inputs = first_layer.sample_activation_batch(seed, POOL);
        let result = model.infer(BackendKind::Functional).submit(&inputs);
        let golden = (0..POOL)
            .map(|i| result.outputs(i).iter().map(|q| q.raw()).collect())
            .collect();
        Self { inputs, golden }
    }

    pub fn input(&self, k: usize) -> &[f32] {
        &self.inputs[k % POOL]
    }

    pub fn matches(&self, k: usize, outputs: &[i16]) -> bool {
        self.golden[k % POOL] == outputs
    }
}

/// The compiled AlexNet stack, its artifact file and its cases.
#[derive(Debug)]
pub struct Alexnet {
    pub model: CompiledModel,
    pub path: PathBuf,
    pub cases: Cases,
}

/// Compiles FC6–8 with one `CompiledModel::compile` and writes it.
pub fn alexnet(dir: &Path, seed: u64) -> io::Result<Alexnet> {
    let layers = ALEXNET.map(|b| b.generate(DEFAULT_SEED));
    let weights = layers.each_ref().map(|l| &l.weights);
    let model = CompiledModel::compile(EieConfig::default(), &weights).with_name(ALEXNET_NAME);
    let path = dir.join(format!("{ALEXNET_NAME}.eie"));
    model.save(&path).map_err(io::Error::other)?;
    let cases = Cases::new(&model, &layers[0], seed);
    Ok(Alexnet { model, path, cases })
}

/// One registered churn artifact.
#[derive(Debug)]
pub struct ChurnModel {
    pub name: String,
    pub path: PathBuf,
    /// Index into [`CHURN_LAYERS`].
    pub layer: usize,
    pub codec: WeightCodecKind,
    pub stored_bytes: usize,
}

/// The nine churn artifacts and the cases of their three layers.
#[derive(Debug)]
pub struct Churn {
    pub models: Vec<ChurnModel>,
    /// One compiled model per layer (the codec only changes storage).
    pub layers: Vec<CompiledModel>,
    pub cases: Vec<Cases>,
}

impl Churn {
    /// The residency budget: about a third of the summed stored bytes,
    /// so most requests in a uniform order miss.
    pub fn budget_bytes(&self) -> usize {
        self.models.iter().map(|m| m.stored_bytes).sum::<usize>() / 3
    }

    /// The case set of a churn model.
    pub fn cases_of(&self, model: usize) -> &Cases {
        &self.cases[self.models[model].layer]
    }
}

/// Compiles each churn layer once and writes it with every codec.
pub fn churn(dir: &Path, seed: u64) -> io::Result<Churn> {
    let mut models = Vec::new();
    let mut layers = Vec::new();
    let mut cases = Vec::new();
    for (li, bench) in CHURN_LAYERS.into_iter().enumerate() {
        let layer = bench.generate(DEFAULT_SEED);
        let compiled = CompiledModel::compile_layer(EieConfig::default(), &layer.weights);
        for codec in WeightCodecKind::ALL {
            let name = format!("{}.{}", bench.name().to_ascii_lowercase(), codec.name());
            let model = CompiledModel::from_layers(
                compiled.config().with_codec(codec),
                compiled.layers().to_vec(),
            )
            .with_name(name.clone());
            let path = dir.join(format!("{name}.eie"));
            model.save(&path).map_err(io::Error::other)?;
            models.push(ChurnModel {
                name,
                path,
                layer: li,
                codec,
                stored_bytes: model.artifact_bytes(),
            });
        }
        cases.push(Cases::new(&compiled, &layer, seed));
        layers.push(compiled);
    }
    Ok(Churn {
        models,
        layers,
        cases,
    })
}

/// The churn's seeded model order: uniform over the models, drawn as
/// shuffled rounds that visit each model once, so every run serves the
/// same mix of codecs and layer sizes and only the order varies.
#[derive(Debug, Clone)]
pub struct ModelOrder {
    state: u64,
    round: Vec<usize>,
}

impl ModelOrder {
    pub fn new(seed: u64, models: usize) -> Self {
        Self {
            state: seed ^ 0xC4_0A11,
            round: (0..models).collect(),
        }
    }

    /// SplitMix64.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next round of model indices (a Fisher–Yates shuffle).
    pub fn next_round(&mut self) -> Vec<usize> {
        for i in (1..self.round.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            self.round.swap(i, j);
        }
        self.round.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_order_visits_every_model_once_per_round() {
        let rounds = |seed| {
            let mut order = ModelOrder::new(seed, 9);
            (0..3).map(|_| order.next_round()).collect::<Vec<_>>()
        };
        let order = rounds(5);
        for round in &order {
            let mut sorted = round.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..9).collect::<Vec<_>>());
        }
        assert_eq!(order, rounds(5), "the same seed gives the same order");
        assert_ne!(order, rounds(6));
    }
}

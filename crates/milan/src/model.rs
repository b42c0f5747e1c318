//! The MiLaN hashing model: an MLP hashing head trained with the three
//! MiLaN losses, producing K-bit binary codes.

use eq_bigearthnet::Archive;
use eq_hashindex::BinaryCode;
use eq_neural::{Activation, Adam, Matrix, Mlp, MlpConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dataset::TrainingDataset;
use crate::features::{FeatureExtractor, FEATURE_DIM};
use crate::loss::{LossBreakdown, LossWeights, MilanLoss};
use crate::normalizer::Normalizer;

/// Configuration of the MiLaN model and its training loop.
#[derive(Debug, Clone)]
pub struct MilanConfig {
    /// Width of the binary hash codes; the paper uses 128 bits (§3.3).
    pub code_bits: u32,
    /// Hidden layer widths of the hashing head.
    pub hidden_dims: Vec<usize>,
    /// Loss weights and triplet margin.
    pub loss: LossWeights,
    /// Number of training epochs.
    pub epochs: usize,
    /// Number of triplets sampled per epoch.
    pub triplets_per_epoch: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Candidate-pool size for semi-hard negative mining (0 = random negatives).
    pub semi_hard_pool: usize,
    /// Seed controlling weight initialisation and triplet sampling.
    pub seed: u64,
}

impl Default for MilanConfig {
    fn default() -> Self {
        Self {
            code_bits: 128,
            hidden_dims: vec![256],
            loss: LossWeights::default(),
            epochs: 30,
            triplets_per_epoch: 256,
            learning_rate: 0.003,
            semi_hard_pool: 8,
            seed: 42,
        }
    }
}

impl MilanConfig {
    /// A small, fast configuration used by unit tests and examples.
    pub fn fast(code_bits: u32, seed: u64) -> Self {
        Self {
            code_bits,
            hidden_dims: vec![64],
            epochs: 10,
            triplets_per_epoch: 96,
            seed,
            ..Self::default()
        }
    }

    fn validate(&self) -> Result<(), String> {
        if self.code_bits == 0 || self.hidden_dims.contains(&0) {
            return Err("code_bits and hidden layer widths must be positive".into());
        }
        if self.epochs == 0 || self.triplets_per_epoch == 0 {
            return Err("epochs and triplets_per_epoch must be positive".into());
        }
        if self.learning_rate.is_nan() || self.learning_rate <= 0.0 {
            return Err("learning rate must be positive".into());
        }
        Ok(())
    }
}

/// Triplets per optimizer step; small enough that even the `fast` configs
/// take several steps per epoch.
const MINI_BATCH: usize = 32;

/// Per-epoch training statistics.
#[derive(Debug, Clone, Default)]
pub struct TrainingReport {
    /// Loss breakdown after each epoch (averaged over the epoch's batches).
    pub epochs: Vec<LossBreakdown>,
}

impl TrainingReport {
    /// The final epoch's total loss, or `None` before training.
    pub fn final_loss(&self) -> Option<f32> {
        self.epochs.last().map(|e| e.total)
    }

    /// The first epoch's total loss, or `None` before training.
    pub fn initial_loss(&self) -> Option<f32> {
        self.epochs.first().map(|e| e.total)
    }

    /// Whether the total loss decreased from the first to the last epoch.
    pub fn improved(&self) -> bool {
        match (self.initial_loss(), self.final_loss()) {
            (Some(a), Some(b)) => b < a,
            _ => false,
        }
    }
}

/// The MiLaN deep-hashing model.
#[derive(Debug, Clone)]
pub struct Milan {
    config: MilanConfig,
    network: Mlp,
    extractor: FeatureExtractor,
    normalizer: Option<Normalizer>,
    trained: bool,
}

impl Milan {
    /// Creates an untrained model.
    ///
    /// # Errors
    /// Returns an error describing the first invalid configuration field.
    pub fn new(config: MilanConfig) -> Result<Self, String> {
        config.validate()?;
        let network = Mlp::new(&MlpConfig {
            input_dim: FEATURE_DIM,
            hidden_dims: config.hidden_dims.clone(),
            output_dim: config.code_bits as usize,
            hidden_activation: Activation::Relu,
            output_activation: Activation::Tanh,
            seed: config.seed,
            grad_clip: 5.0,
        });
        Ok(Self {
            config,
            network,
            extractor: FeatureExtractor::new(),
            normalizer: None,
            trained: false,
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &MilanConfig {
        &self.config
    }

    /// Width of the produced binary codes.
    pub fn code_bits(&self) -> u32 {
        self.config.code_bits
    }

    /// Whether [`train`](Self::train) has completed at least once.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Number of trainable parameters in the hashing head.
    pub fn parameter_count(&self) -> usize {
        self.network.parameter_count()
    }

    /// Trains the hashing head on a dataset with the three MiLaN losses.
    ///
    /// Training also fits the feature [`Normalizer`] (the stand-in for the
    /// backbone's batch normalisation), which is then applied consistently
    /// at inference time.
    pub fn train(&mut self, dataset: &TrainingDataset) -> TrainingReport {
        self.normalizer = Some(Normalizer::fit(dataset.features()));
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xD1B5_4A32_D192_ED03);
        let mut optimizer = Adam::new(self.config.learning_rate);
        self.network.register_with(&mut optimizer);
        let loss = MilanLoss::new(self.config.loss);

        let mut report = TrainingReport::default();
        for _epoch in 0..self.config.epochs {
            let triplets = if self.config.semi_hard_pool > 0 {
                dataset.sample_triplets_semi_hard(
                    self.config.triplets_per_epoch,
                    self.config.semi_hard_pool,
                    &mut rng,
                )
            } else {
                dataset.sample_triplets(self.config.triplets_per_epoch, &mut rng)
            };
            if triplets.is_empty() {
                // Dataset too homogeneous to form triplets: record a zero
                // epoch so callers can detect the situation.
                report.epochs.push(LossBreakdown::default());
                continue;
            }

            // Process the epoch in mini-batches so each epoch takes several
            // optimizer steps rather than one giant full-batch step —
            // full-batch training needs far more epochs to converge than the
            // configured budgets allow.
            let mut epoch_breakdown = LossBreakdown::default();
            for chunk in triplets.chunks(MINI_BATCH) {
                // Stack anchors, positives and negatives into one forward
                // batch so a single backward pass updates the shared weights.
                let t = chunk.len();
                let mut rows: Vec<Vec<f32>> = Vec::with_capacity(3 * t);
                for tr in chunk {
                    rows.push(self.normalize(dataset.feature(tr.anchor)));
                }
                for tr in chunk {
                    rows.push(self.normalize(dataset.feature(tr.positive)));
                }
                for tr in chunk {
                    rows.push(self.normalize(dataset.feature(tr.negative)));
                }
                let batch = Matrix::from_rows(&rows);
                let outputs = self.network.forward(&batch);

                let (anchors, positives, negatives) = split_three(&outputs, t);
                let (breakdown, ga, gp, gn) = loss.compute(&anchors, &positives, &negatives);
                let grad = stack_three(&ga, &gp, &gn);
                self.network.backward(&grad);
                optimizer.next_step();
                self.network.apply_gradients(&mut optimizer);

                // Weight each batch by its triplet count so the (smaller)
                // final chunk does not skew the per-triplet epoch means.
                let tw = t as f32;
                epoch_breakdown.triplet += breakdown.triplet * tw;
                epoch_breakdown.bit_balance += breakdown.bit_balance * tw;
                epoch_breakdown.quantization += breakdown.quantization * tw;
                epoch_breakdown.total += breakdown.total * tw;
                epoch_breakdown.active_triplet_fraction += breakdown.active_triplet_fraction * tw;
            }
            let bf = triplets.len() as f32;
            epoch_breakdown.triplet /= bf;
            epoch_breakdown.bit_balance /= bf;
            epoch_breakdown.quantization /= bf;
            epoch_breakdown.total /= bf;
            epoch_breakdown.active_triplet_fraction /= bf;
            report.epochs.push(epoch_breakdown);
        }
        self.trained = true;
        report
    }

    /// Convenience wrapper: builds the dataset from an archive and trains.
    pub fn train_on_archive(&mut self, archive: &Archive) -> TrainingReport {
        let dataset = TrainingDataset::from_archive(archive);
        self.train(&dataset)
    }

    /// Applies the fitted normaliser if training has happened, otherwise
    /// passes the raw features through.
    fn normalize(&self, features: &[f32]) -> Vec<f32> {
        match &self.normalizer {
            Some(n) => n.apply(features),
            None => features.to_vec(),
        }
    }

    /// The fitted feature normaliser, if the model has been trained.
    pub fn normalizer(&self) -> Option<&Normalizer> {
        self.normalizer.as_ref()
    }

    /// Continuous hash-layer outputs (one row per input feature vector).
    pub fn encode_continuous(&self, features: &[Vec<f32>]) -> Matrix {
        assert!(!features.is_empty(), "cannot encode an empty batch");
        let rows: Vec<Vec<f32>> = features.iter().map(|f| self.normalize(f)).collect();
        let batch = Matrix::from_rows(&rows);
        self.network.forward_inference(&batch)
    }

    /// The binary hash code of a single feature vector.
    pub fn hash_features(&self, features: &[f32]) -> BinaryCode {
        let out = self.encode_continuous(&[features.to_vec()]);
        BinaryCode::from_signs(out.row(0))
    }

    /// The binary hash code of a patch (extracts features first) — the
    /// "query by a new external image" path of §3.3.
    pub fn hash_patch(&self, patch: &eq_bigearthnet::Patch) -> BinaryCode {
        self.hash_features(&self.extractor.extract(patch))
    }

    /// Hash codes for every patch of an archive, in patch-id order.
    pub fn hash_archive(&self, archive: &Archive) -> Vec<BinaryCode> {
        let features = self.extractor.extract_all(archive);
        if features.is_empty() {
            return Vec::new();
        }
        let out = self.encode_continuous(&features);
        (0..out.rows()).map(|i| BinaryCode::from_signs(out.row(i))).collect()
    }

    /// The feature extractor used by the model.
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// The hashing head (read access for serialization).
    pub(crate) fn network(&self) -> &Mlp {
        &self.network
    }

    /// Mutable access to the hashing head (snapshot restoration overwrites
    /// the freshly initialised weights with the stored ones).
    pub(crate) fn network_mut(&mut self) -> &mut Mlp {
        &mut self.network
    }

    /// Restores the inference-time state captured by a snapshot.
    pub(crate) fn restore_inference_state(
        &mut self,
        normalizer: Option<Normalizer>,
        trained: bool,
    ) {
        self.normalizer = normalizer;
        self.trained = trained;
    }
}

fn split_three(outputs: &Matrix, t: usize) -> (Matrix, Matrix, Matrix) {
    let k = outputs.cols();
    let slice = |from: usize| {
        let mut m = Matrix::zeros(t, k);
        for i in 0..t {
            m.row_mut(i).copy_from_slice(outputs.row(from + i));
        }
        m
    };
    (slice(0), slice(t), slice(2 * t))
}

fn stack_three(a: &Matrix, b: &Matrix, c: &Matrix) -> Matrix {
    let t = a.rows();
    let k = a.cols();
    let mut m = Matrix::zeros(3 * t, k);
    for i in 0..t {
        m.row_mut(i).copy_from_slice(a.row(i));
        m.row_mut(t + i).copy_from_slice(b.row(i));
        m.row_mut(2 * t + i).copy_from_slice(c.row(i));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{mean_average_precision, CodeStatistics};
    use eq_bigearthnet::{ArchiveGenerator, GeneratorConfig};

    fn archive(n: usize, seed: u64) -> Archive {
        ArchiveGenerator::new(GeneratorConfig::tiny(n, seed)).unwrap().generate()
    }

    #[test]
    fn config_validation() {
        assert!(Milan::new(MilanConfig { code_bits: 0, ..Default::default() }).is_err());
        // A zero-width hidden layer is refused, not a panic in the layer.
        assert!(Milan::new(MilanConfig { hidden_dims: vec![8, 0], ..Default::default() }).is_err());
        assert!(Milan::new(MilanConfig { epochs: 0, ..Default::default() }).is_err());
        assert!(Milan::new(MilanConfig { learning_rate: -1.0, ..Default::default() }).is_err());
        assert!(Milan::new(MilanConfig::default()).is_ok());
    }

    #[test]
    fn untrained_model_still_produces_codes_of_right_width() {
        let model = Milan::new(MilanConfig::fast(32, 1)).unwrap();
        assert!(!model.is_trained());
        assert_eq!(model.code_bits(), 32);
        assert!(model.parameter_count() > 0);
        let a = archive(3, 2);
        let code = model.hash_patch(&a.patches()[0]);
        assert_eq!(code.bits(), 32);
    }

    #[test]
    fn training_decreases_the_loss() {
        let a = archive(200, 3);
        let dataset = TrainingDataset::from_archive(&a);
        let mut model = Milan::new(MilanConfig { epochs: 15, ..MilanConfig::fast(48, 4) }).unwrap();
        let report = model.train(&dataset);
        assert_eq!(report.epochs.len(), 15);
        assert!(model.is_trained());
        assert!(
            report.improved(),
            "loss did not improve: {:?} -> {:?}",
            report.initial_loss(),
            report.final_loss()
        );
    }

    #[test]
    fn hash_archive_is_deterministic_and_aligned() {
        let a = archive(40, 5);
        let mut model = Milan::new(MilanConfig::fast(32, 6)).unwrap();
        model.train_on_archive(&a);
        let codes1 = model.hash_archive(&a);
        let codes2 = model.hash_archive(&a);
        assert_eq!(codes1.len(), 40);
        assert_eq!(codes1, codes2);
        // Single-patch hashing agrees with the batch path.
        let single = model.hash_patch(&a.patches()[7]);
        assert_eq!(single, codes1[7]);
    }

    #[test]
    fn trained_codes_beat_untrained_codes_on_map() {
        // The central quantitative claim reproduced at miniature scale:
        // metric-learned codes retrieve same-label images better than the
        // untrained network's codes.
        let a = archive(240, 7);
        let dataset = TrainingDataset::from_archive(&a);

        let untrained = Milan::new(MilanConfig::fast(48, 8)).unwrap();
        let mut trained = Milan::new(MilanConfig {
            epochs: 40,
            triplets_per_epoch: 192,
            ..MilanConfig::fast(48, 8)
        })
        .unwrap();
        trained.train(&dataset);

        let map_of = |model: &Milan| {
            let codes = model.hash_archive(&a);
            let mut queries = Vec::new();
            for q in (0..a.len()).step_by(6) {
                let q_labels = a.patches()[q].meta.labels;
                let mut ranked: Vec<(u32, usize)> = (0..a.len())
                    .filter(|&i| i != q)
                    .map(|i| (codes[q].hamming_distance(&codes[i]), i))
                    .collect();
                ranked.sort_unstable();
                let rel: Vec<bool> = ranked
                    .iter()
                    .map(|(_, i)| a.patches()[*i].meta.labels.intersects(q_labels))
                    .collect();
                let total_rel = rel.iter().filter(|&&r| r).count();
                queries.push((rel, total_rel));
            }
            mean_average_precision(&queries, 10)
        };

        let map_untrained = map_of(&untrained);
        let map_trained = map_of(&trained);
        assert!(
            map_trained > map_untrained,
            "training did not improve mAP@10: untrained {map_untrained:.3} vs trained {map_trained:.3}"
        );
    }

    #[test]
    fn trained_codes_are_reasonably_balanced() {
        let a = archive(150, 9);
        let mut model =
            Milan::new(MilanConfig { epochs: 25, ..MilanConfig::fast(32, 10) }).unwrap();
        model.train_on_archive(&a);
        let stats = CodeStatistics::from_codes(&model.hash_archive(&a));
        // Bit balance loss keeps activations away from the degenerate
        // all-0/all-1 regime.
        assert!(
            stats.balance_deviation < 0.45,
            "codes are almost constant: deviation {}",
            stats.balance_deviation
        );
        assert!(stats.distinct_codes > 1, "all codes collapsed to a single bucket");
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn encoding_an_empty_batch_panics() {
        let model = Milan::new(MilanConfig::fast(16, 1)).unwrap();
        let _ = model.encode_continuous(&[]);
    }

    #[test]
    fn split_and_stack_are_inverses() {
        let m = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
            vec![7.0, 8.0],
            vec![9.0, 10.0],
            vec![11.0, 12.0],
        ]);
        let (a, b, c) = split_three(&m, 2);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(b.row(0), &[5.0, 6.0]);
        assert_eq!(c.row(1), &[11.0, 12.0]);
        assert_eq!(stack_three(&a, &b, &c), m);
    }
}

//! Serialization of trained MiLaN models.
//!
//! A snapshot captures everything the *inference* path needs — the model
//! configuration (which fixes the network architecture), the exact layer
//! weights and biases, the fitted feature normaliser and the trained flag —
//! so a restored model hashes any patch to byte-identical binary codes.
//! Training state (optimizer moments, cached activations) is deliberately
//! not persisted: a recovered server serves queries, it does not resume a
//! half-finished gradient step.
//!
//! Layout (little-endian, see `eq_wire`):
//!
//! ```text
//! config := code_bits:u32 hidden:u32 dim:u64* loss:f32×4 epochs:u64
//!           triplets_per_epoch:u64 learning_rate:f32 semi_hard_pool:u64
//!           seed:u64
//! model  := config trained:u8
//!           normalizer:u8 [dim:u32 mean:f32* std:f32*]
//!           layers:u32 (rows:u32 cols:u32 weights:f32* bias:f32*)*
//! ```

use eq_wire::{Reader, WireError, Writer};

use crate::features::FEATURE_DIM;
use crate::loss::LossWeights;
use crate::model::{Milan, MilanConfig};
use crate::normalizer::Normalizer;

/// Encodes a model configuration.
pub fn encode_config(config: &MilanConfig, w: &mut Writer) {
    w.u32(config.code_bits);
    w.seq_len(config.hidden_dims.len());
    for &dim in &config.hidden_dims {
        w.u64(dim as u64);
    }
    w.f32(config.loss.triplet);
    w.f32(config.loss.bit_balance);
    w.f32(config.loss.quantization);
    w.f32(config.loss.margin);
    w.u64(config.epochs as u64);
    w.u64(config.triplets_per_epoch as u64);
    w.f32(config.learning_rate);
    w.u64(config.semi_hard_pool as u64);
    w.u64(config.seed);
}

/// Decodes a model configuration.
///
/// # Errors
/// Returns a [`WireError`] on truncation or an implausible field; never
/// panics.
pub fn decode_config(r: &mut Reader<'_>) -> Result<MilanConfig, WireError> {
    let code_bits = r.u32()?;
    let n_hidden = r.seq_len(8)?;
    let mut hidden_dims = Vec::with_capacity(n_hidden);
    for _ in 0..n_hidden {
        hidden_dims.push(usize::try_from(r.u64()?).map_err(corrupt("hidden dim"))?);
    }
    let loss = LossWeights {
        triplet: r.f32()?,
        bit_balance: r.f32()?,
        quantization: r.f32()?,
        margin: r.f32()?,
    };
    Ok(MilanConfig {
        code_bits,
        hidden_dims,
        loss,
        epochs: usize::try_from(r.u64()?).map_err(corrupt("epochs"))?,
        triplets_per_epoch: usize::try_from(r.u64()?).map_err(corrupt("triplets"))?,
        learning_rate: r.f32()?,
        semi_hard_pool: usize::try_from(r.u64()?).map_err(corrupt("pool"))?,
        seed: r.u64()?,
    })
}

fn corrupt<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> WireError {
    move |e| WireError::Corrupt(format!("invalid {what}: {e}"))
}

impl Milan {
    /// Serializes the model's inference state (see the module docs).
    pub fn encode(&self, w: &mut Writer) {
        encode_config(self.config(), w);
        w.bool(self.is_trained());
        match self.normalizer() {
            Some(n) => {
                w.u8(1);
                w.u32(n.dim() as u32);
                for &m in n.mean() {
                    w.f32(m);
                }
                for &s in n.std() {
                    w.f32(s);
                }
            }
            None => w.u8(0),
        }
        let layers = self.network().layers();
        w.seq_len(layers.len());
        for layer in layers {
            let weights = layer.weights();
            w.u32(weights.rows() as u32);
            w.u32(weights.cols() as u32);
            for &v in weights.data() {
                w.f32(v);
            }
            for &b in layer.bias() {
                w.f32(b);
            }
        }
    }

    /// Decodes a model written by [`encode`](Self::encode): the
    /// configuration rebuilds the architecture, then the stored weights
    /// overwrite the fresh initialisation, so the restored model produces
    /// bit-identical hash codes.
    ///
    /// # Errors
    /// Returns a [`WireError`] on truncation, an invalid configuration, a
    /// configuration whose layers the remaining input cannot hold (checked
    /// before they are allocated), a normaliser of another width than the
    /// features or a layer-shape mismatch; never panics.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let config = decode_config(r)?;
        let widths = || {
            let hidden = config.hidden_dims.iter().copied();
            std::iter::once(FEATURE_DIM).chain(hidden).chain([config.code_bits as usize])
        };
        let parameters = widths()
            .zip(widths().skip(1))
            .map(|(rows, cols)| rows.saturating_mul(cols).saturating_add(cols))
            .fold(0usize, usize::saturating_add);
        if parameters.saturating_mul(4) > r.remaining() {
            return Err(WireError::Corrupt(format!(
                "the configuration implies {parameters} parameters, more than the remaining input"
            )));
        }
        let mut model = Milan::new(config)
            .map_err(|e| WireError::Corrupt(format!("invalid model configuration: {e}")))?;
        let trained = r.bool()?;
        let normalizer = match r.u8()? {
            0 => None,
            1 => {
                let dim = r.u32()? as usize;
                if dim != FEATURE_DIM {
                    return Err(WireError::Corrupt(format!(
                        "normalizer of dim {dim}, the features have {FEATURE_DIM}"
                    )));
                }
                let mut mean = Vec::with_capacity(dim);
                for _ in 0..dim {
                    mean.push(r.f32()?);
                }
                let mut std = Vec::with_capacity(dim);
                for _ in 0..dim {
                    std.push(r.f32()?);
                }
                Some(
                    Normalizer::from_parts(mean, std)
                        .ok_or_else(|| WireError::Corrupt("empty normalizer".into()))?,
                )
            }
            other => return Err(WireError::Corrupt(format!("invalid normalizer flag {other}"))),
        };
        let n_layers = r.seq_len(1)?;
        if n_layers != model.network().layers().len() {
            return Err(WireError::Corrupt(format!(
                "stored model has {n_layers} layers, configuration implies {}",
                model.network().layers().len()
            )));
        }
        for i in 0..n_layers {
            let rows = r.u32()? as usize;
            let cols = r.u32()? as usize;
            {
                let layer = &model.network().layers()[i];
                if rows != layer.input_dim() || cols != layer.output_dim() {
                    return Err(WireError::Corrupt(format!(
                        "layer {i} is {rows}×{cols}, configuration implies {}×{}",
                        layer.input_dim(),
                        layer.output_dim()
                    )));
                }
            }
            if rows.saturating_mul(cols).saturating_mul(4) > r.remaining() {
                return Err(WireError::Corrupt(format!(
                    "layer {i} weights exceed the remaining input"
                )));
            }
            let layer = &mut model.network_mut().layers_mut()[i];
            for v in layer.weights_mut().data_mut() {
                *v = r.f32()?;
            }
            for b in layer.bias_mut() {
                *b = r.f32()?;
            }
        }
        model.restore_inference_state(normalizer, trained);
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_bigearthnet::{ArchiveGenerator, GeneratorConfig};

    fn encoded(model: &Milan) -> Vec<u8> {
        let mut w = Writer::new();
        model.encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn trained_model_roundtrips_to_identical_codes() {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(60, 21)).unwrap().generate();
        let mut model = Milan::new(MilanConfig::fast(48, 22)).unwrap();
        model.train_on_archive(&archive);

        let bytes = encoded(&model);
        let mut r = Reader::new(&bytes);
        let back = Milan::decode(&mut r).unwrap();
        assert!(r.is_empty(), "model encoding is self-delimiting");
        assert!(back.is_trained());
        assert_eq!(back.code_bits(), model.code_bits());
        for patch in archive.patches().iter().take(10) {
            assert_eq!(back.hash_patch(patch), model.hash_patch(patch));
        }
        // Deterministic: the restored model re-encodes byte-identically.
        assert_eq!(encoded(&back), bytes);
    }

    #[test]
    fn untrained_model_roundtrips() {
        let model = Milan::new(MilanConfig::fast(16, 5)).unwrap();
        let bytes = encoded(&model);
        let back = Milan::decode(&mut Reader::new(&bytes)).unwrap();
        assert!(!back.is_trained());
        assert!(back.normalizer().is_none());
        assert_eq!(encoded(&back), bytes);
    }

    #[test]
    fn truncated_models_error_cleanly() {
        let model = Milan::new(MilanConfig::fast(16, 6)).unwrap();
        let bytes = encoded(&model);
        for cut in (0..bytes.len()).step_by(7) {
            assert!(
                Milan::decode(&mut Reader::new(&bytes[..cut])).is_err(),
                "strict prefix of {cut}/{} bytes decoded",
                bytes.len()
            );
        }
    }

    #[test]
    fn mismatched_architecture_is_rejected() {
        let model = Milan::new(MilanConfig::fast(16, 7)).unwrap();
        let mut bytes = encoded(&model);
        // Corrupt code_bits (first field) to desynchronise architecture and
        // stored layer shapes.
        bytes[0] ^= 0x01;
        assert!(Milan::decode(&mut Reader::new(&bytes)).is_err());
    }

    /// A damaged width is refused before the layers it implies are
    /// allocated: here a hidden layer of 2^40 units (terabytes of
    /// weights) over a model of a few kilobytes.
    #[test]
    fn a_configuration_larger_than_its_input_is_refused_before_allocating() {
        let model = Milan::new(MilanConfig::fast(16, 8)).unwrap();
        let bytes = encoded(&model);
        let mut config = Writer::new();
        encode_config(
            &MilanConfig { hidden_dims: vec![1 << 40], ..model.config().clone() },
            &mut config,
        );
        let config = config.into_bytes();
        let mut huge = config.clone();
        huge.extend_from_slice(&bytes[config.len()..]);
        let err = Milan::decode(&mut Reader::new(&huge)).unwrap_err();
        assert!(err.to_string().contains("parameters"), "{err}");
    }

    #[test]
    fn a_normalizer_of_another_width_is_refused() {
        let archive = ArchiveGenerator::new(GeneratorConfig::tiny(8, 23)).unwrap().generate();
        let mut model = Milan::new(MilanConfig::fast(8, 9)).unwrap();
        model.train_on_archive(&archive);
        let bytes = encoded(&model);
        let mut config = Writer::new();
        encode_config(model.config(), &mut config);
        // The normaliser's width follows the config and the trained flag.
        let at = config.as_bytes().len() + 2;
        assert_eq!(bytes[at..at + 4], (FEATURE_DIM as u32).to_le_bytes());
        // The same model with its normaliser's last dimension cut off.
        let (mean, std) = (at + 4, at + 4 + FEATURE_DIM * 4);
        let mut narrower = bytes[..at].to_vec();
        narrower.extend_from_slice(&(FEATURE_DIM as u32 - 1).to_le_bytes());
        narrower.extend_from_slice(&bytes[mean..std - 4]);
        narrower.extend_from_slice(&bytes[std..std + FEATURE_DIM * 4 - 4]);
        narrower.extend_from_slice(&bytes[std + FEATURE_DIM * 4..]);
        assert!(Milan::decode(&mut Reader::new(&narrower)).is_err());
        assert!(Milan::decode(&mut Reader::new(&bytes)).is_ok());
    }
}

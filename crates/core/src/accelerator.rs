use inca_arch::{ArchConfig, AreaModel, FootprintModel, FootprintReport};
use inca_sim::{simulate_inference, simulate_training, NetworkStats};
use inca_workloads::Model;

use crate::{Error, Result};

/// A configured accelerator instance (INCA or the WS baseline).
///
/// # Examples
///
/// ```
/// use inca_core::Accelerator;
/// use inca_workloads::Model;
///
/// let inca = Accelerator::inca();
/// let stats = inca.run_inference(Model::ResNet18);
/// assert!(stats.energy_per_image_j().joules() > 0.0);
/// assert!(inca.area_mm2() < Accelerator::baseline().area_mm2());
/// ```
#[derive(Debug, Clone)]
pub struct Accelerator {
    config: ArchConfig,
}

impl Accelerator {
    /// INCA with the paper's Table II configuration.
    #[must_use]
    pub fn inca() -> Self {
        Self { config: ArchConfig::inca_paper() }
    }

    /// The WS baseline with the paper's Table II configuration.
    #[must_use]
    pub fn baseline() -> Self {
        Self { config: ArchConfig::baseline_paper() }
    }

    /// An accelerator with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the subarray size, plane count or batch
    /// size is zero.
    pub fn with_config(config: ArchConfig) -> Result<Self> {
        if config.subarray == 0 || config.stacked_planes == 0 || config.batch_size == 0 {
            return Err(Error::Config("subarray, plane count and batch size must be positive".into()));
        }
        Ok(Self { config })
    }

    /// The underlying configuration.
    #[must_use]
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// Simulates one inference batch of `model`.
    #[must_use]
    pub fn run_inference(&self, model: Model) -> NetworkStats {
        simulate_inference(&self.config, &model.spec())
    }

    /// Simulates one training step (batch) of `model`.
    #[must_use]
    pub fn run_training(&self, model: Model) -> NetworkStats {
        simulate_training(&self.config, &model.spec())
    }

    /// Total chip area (Table V).
    #[must_use]
    pub fn area_mm2(&self) -> inca_units::Area {
        inca_units::Area::from_mm2(AreaModel::new().breakdown(&self.config).total_mm2())
    }

    /// Memory footprint for `model` (Table IV).
    #[must_use]
    pub fn footprint(&self, model: Model) -> FootprintReport {
        FootprintModel { data_bits: u32::from(self.config.data_bits) }.evaluate(&model.spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_arch::Dataflow;

    #[test]
    fn dataflows() {
        assert_eq!(Accelerator::inca().config().dataflow, Dataflow::InputStationary);
        assert_eq!(Accelerator::baseline().config().dataflow, Dataflow::WeightStationary);
    }

    #[test]
    fn custom_config_validated() {
        let mut cfg = ArchConfig::inca_paper();
        cfg.batch_size = 0;
        assert!(Accelerator::with_config(cfg).is_err());
        assert!(Accelerator::with_config(ArchConfig::inca_paper()).is_ok());
    }

    #[test]
    fn training_slower_than_inference() {
        let a = Accelerator::inca();
        let inf = a.run_inference(Model::ResNet18);
        let tr = a.run_training(Model::ResNet18);
        assert!(tr.latency_s > inf.latency_s);
    }

    #[test]
    fn footprint_matches_dataflow() {
        let fp = Accelerator::inca().footprint(Model::Vgg16);
        assert!(fp.inca_rram_mib < fp.baseline_rram_mib);
    }
}

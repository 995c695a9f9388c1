//! [`Backend`] implementations for the baseline kernels, plugging the
//! PDPR, BVGAS, edge-centric and grid dataplanes into the unified
//! [`Engine`] so every algorithm in `pcpm-algos` can run on them.
//!
//! These baselines are `f32` PageRank kernels, so they implement
//! `Backend<PlusF32>` only (the algebra-generic pull / push /
//! edge-centric dataplanes live in `pcpm_core::backend`). None of them
//! support edge weights; `prepare` rejects a weighted spec rather than
//! silently dropping the weights.
//!
//! # Examples
//!
//! ```
//! use pcpm_graph::gen::erdos_renyi;
//! use pcpm_baselines::backend_impls::bvgas_engine;
//! use pcpm_core::PcpmConfig;
//!
//! let g = erdos_renyi(100, 600, 1).unwrap();
//! let mut engine = bvgas_engine(&g, &PcpmConfig::default().with_partition_bytes(64 * 4)).unwrap();
//! let x = vec![1.0f32; 100];
//! let mut y = vec![0.0f32; 100];
//! engine.step(&x, &mut y).unwrap();
//! assert_eq!(engine.report().backend, "bvgas");
//! ```

use crate::bvgas::BvgasRunner;
use crate::edge_centric::EdgeCentricRunner;
use crate::grid::GridRunner;
use crate::pdpr::PdprRunner;
use pcpm_core::algebra::PlusF32;
use pcpm_core::backend::{Backend, BackendMetrics, Engine, PrepareSpec};
use pcpm_core::error::PcpmError;
use pcpm_core::pr::PhaseTimings;
use pcpm_core::PcpmConfig;
use pcpm_graph::Csr;
use std::time::{Duration, Instant};

fn reject_weights(spec: &PrepareSpec<'_>, kernel: &'static str) -> Result<(), PcpmError> {
    if spec.weights.is_some() {
        return Err(PcpmError::BadConfig(kernel));
    }
    Ok(())
}

/// PDPR's pull dataplane behind the [`Backend`] trait.
pub struct PdprBackend {
    runner: PdprRunner,
}

impl Backend<PlusF32> for PdprBackend {
    fn prepare(spec: &PrepareSpec<'_>) -> Result<Self, PcpmError> {
        reject_weights(spec, "the pdpr baseline does not support edge weights")?;
        Ok(Self {
            runner: PdprRunner::new(spec.graph),
        })
    }

    fn step(&mut self, x: &[f32], y: &mut [f32]) -> Result<PhaseTimings, PcpmError> {
        let t0 = Instant::now();
        self.runner.propagate_once(x, y);
        Ok(PhaseTimings {
            scatter: Duration::ZERO,
            gather: t0.elapsed(),
            apply: Duration::ZERO,
        })
    }

    fn metrics(&self) -> BackendMetrics {
        BackendMetrics {
            name: "pdpr",
            preprocess: self.runner.transpose_time(),
            aux_memory_bytes: self.runner.aux_memory_bytes(),
            compression_ratio: None,
            bin_format: None,
            bin_compression: None,
            dest_stream_bytes: None,
            kernel: None,
        }
    }
}

/// BVGAS (Algorithm 5) behind the [`Backend`] trait.
pub struct BvgasBackend {
    runner: BvgasRunner,
    graph: Csr,
    updates: Vec<f32>,
}

impl Backend<PlusF32> for BvgasBackend {
    fn prepare(spec: &PrepareSpec<'_>) -> Result<Self, PcpmError> {
        reject_weights(spec, "the bvgas baseline does not support edge weights")?;
        let runner = BvgasRunner::new(spec.graph, &spec.cfg)?;
        Ok(Self {
            runner,
            graph: spec.graph.clone(),
            updates: vec![0.0f32; spec.graph.num_edges() as usize],
        })
    }

    fn step(&mut self, x: &[f32], y: &mut [f32]) -> Result<PhaseTimings, PcpmError> {
        let (scatter, gather) = self
            .runner
            .propagate_once(&self.graph, x, &mut self.updates, y);
        Ok(PhaseTimings {
            scatter,
            gather,
            apply: Duration::ZERO,
        })
    }

    fn metrics(&self) -> BackendMetrics {
        BackendMetrics {
            name: "bvgas",
            preprocess: self.runner.preprocess_time(),
            aux_memory_bytes: self.runner.aux_memory_bytes()
                + (self.updates.len() * 4) as u64
                + self.graph.memory_bytes(),
            compression_ratio: None,
            bin_format: None,
            bin_compression: None,
            dest_stream_bytes: None,
            kernel: None,
        }
    }
}

/// The edge-centric runner (destination-bin-sorted COO) behind the
/// [`Backend`] trait.
pub struct EdgeCentricRunnerBackend {
    runner: EdgeCentricRunner,
}

impl Backend<PlusF32> for EdgeCentricRunnerBackend {
    fn prepare(spec: &PrepareSpec<'_>) -> Result<Self, PcpmError> {
        reject_weights(
            spec,
            "the edge-centric baseline does not support edge weights",
        )?;
        Ok(Self {
            runner: EdgeCentricRunner::new(spec.graph, &spec.cfg)?,
        })
    }

    fn step(&mut self, x: &[f32], y: &mut [f32]) -> Result<PhaseTimings, PcpmError> {
        let t0 = Instant::now();
        self.runner.propagate_once(x, y);
        Ok(PhaseTimings {
            scatter: Duration::ZERO,
            gather: t0.elapsed(),
            apply: Duration::ZERO,
        })
    }

    fn metrics(&self) -> BackendMetrics {
        BackendMetrics {
            name: "edge_centric",
            preprocess: self.runner.preprocess_time(),
            aux_memory_bytes: self.runner.aux_memory_bytes(),
            compression_ratio: None,
            bin_format: None,
            bin_compression: None,
            dest_stream_bytes: None,
            kernel: None,
        }
    }
}

/// The 2D-blocked grid dataplane behind the [`Backend`] trait.
pub struct GridBackend {
    runner: GridRunner,
}

impl Backend<PlusF32> for GridBackend {
    fn prepare(spec: &PrepareSpec<'_>) -> Result<Self, PcpmError> {
        reject_weights(spec, "the grid baseline does not support edge weights")?;
        Ok(Self {
            runner: GridRunner::new(spec.graph, &spec.cfg)?,
        })
    }

    fn step(&mut self, x: &[f32], y: &mut [f32]) -> Result<PhaseTimings, PcpmError> {
        let t0 = Instant::now();
        self.runner.propagate_once(x, y);
        Ok(PhaseTimings {
            scatter: Duration::ZERO,
            gather: t0.elapsed(),
            apply: Duration::ZERO,
        })
    }

    fn metrics(&self) -> BackendMetrics {
        BackendMetrics {
            name: "grid",
            preprocess: self.runner.preprocess_time(),
            aux_memory_bytes: self.runner.aux_memory_bytes(),
            compression_ratio: None,
            bin_format: None,
            bin_compression: None,
            dest_stream_bytes: None,
            kernel: None,
        }
    }
}

fn baseline_engine<B: Backend<PlusF32> + 'static>(
    graph: &Csr,
    cfg: &PcpmConfig,
) -> Result<Engine<PlusF32>, PcpmError> {
    cfg.validate()?;
    let spec = PrepareSpec {
        graph,
        shared: None,
        weights: None,
        cfg: *cfg,
        scatter: Default::default(),
        gather: Default::default(),
    };
    // The prepare runs on the engine's shared pool, like
    // EngineBuilder::build, so preprocess timings compare
    // apples-to-apples with the core backends.
    Engine::from_backend_with(cfg.threads, graph.num_nodes(), graph.num_nodes(), || {
        Ok(Box::new(B::prepare(&spec)?) as Box<dyn Backend<PlusF32>>)
    })
}

/// Builds a unified [`Engine`] over the PDPR pull dataplane.
pub fn pdpr_engine(graph: &Csr, cfg: &PcpmConfig) -> Result<Engine<PlusF32>, PcpmError> {
    baseline_engine::<PdprBackend>(graph, cfg)
}

/// Builds a unified [`Engine`] over the BVGAS dataplane.
pub fn bvgas_engine(graph: &Csr, cfg: &PcpmConfig) -> Result<Engine<PlusF32>, PcpmError> {
    baseline_engine::<BvgasBackend>(graph, cfg)
}

/// Builds a unified [`Engine`] over the edge-centric runner.
pub fn edge_centric_engine(graph: &Csr, cfg: &PcpmConfig) -> Result<Engine<PlusF32>, PcpmError> {
    baseline_engine::<EdgeCentricRunnerBackend>(graph, cfg)
}

/// Builds a unified [`Engine`] over the 2D grid dataplane.
pub fn grid_engine(graph: &Csr, cfg: &PcpmConfig) -> Result<Engine<PlusF32>, PcpmError> {
    baseline_engine::<GridBackend>(graph, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcpm_graph::gen::{erdos_renyi, rmat, RmatConfig};

    fn reference(g: &Csr, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; g.num_nodes() as usize];
        for (s, t) in g.edges() {
            y[t as usize] += x[s as usize];
        }
        y
    }

    #[test]
    fn every_baseline_backend_matches_the_reference() {
        let g = rmat(&RmatConfig::graph500(9, 8, 35)).unwrap();
        let cfg = PcpmConfig::default().with_partition_bytes(64 * 4);
        // Integer-valued x keeps every f32 sum exact.
        let x: Vec<f32> = (0..g.num_nodes()).map(|v| (v % 9) as f32).collect();
        let want = reference(&g, &x);
        let engines = [
            pdpr_engine(&g, &cfg).unwrap(),
            bvgas_engine(&g, &cfg).unwrap(),
            edge_centric_engine(&g, &cfg).unwrap(),
            grid_engine(&g, &cfg).unwrap(),
        ];
        for mut engine in engines {
            let name = engine.report().backend;
            let mut y = vec![0.0f32; g.num_nodes() as usize];
            engine.step(&x, &mut y).unwrap();
            assert_eq!(y, want, "backend {name}");
        }
    }

    #[test]
    fn pagerank_runs_through_baseline_backends() {
        use pcpm_core::pagerank::{pagerank, pagerank_with_unified_engine};
        let g = erdos_renyi(300, 2400, 21).unwrap();
        let cfg = PcpmConfig::default()
            .with_partition_bytes(64 * 4)
            .with_iterations(8);
        let want = pagerank(&g, &cfg).unwrap();
        for engine in [
            pdpr_engine(&g, &cfg).unwrap(),
            bvgas_engine(&g, &cfg).unwrap(),
            grid_engine(&g, &cfg).unwrap(),
        ] {
            let mut engine = engine;
            let r = pagerank_with_unified_engine(&g, &cfg, &mut engine, None).unwrap();
            for (v, (a, b)) in r.scores.iter().zip(&want.scores).enumerate() {
                assert!((a - b).abs() < 1e-6, "node {v}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn weighted_spec_is_rejected() {
        use pcpm_core::backend::PrepareSpec;
        let g = erdos_renyi(50, 200, 3).unwrap();
        let w = pcpm_graph::EdgeWeights::ones(&g);
        let spec = PrepareSpec {
            graph: &g,
            shared: None,
            weights: Some(w.as_slice()),
            cfg: PcpmConfig::default(),
            scatter: Default::default(),
            gather: Default::default(),
        };
        assert!(PdprBackend::prepare(&spec).is_err());
        assert!(BvgasBackend::prepare(&spec).is_err());
        assert!(EdgeCentricRunnerBackend::prepare(&spec).is_err());
        assert!(GridBackend::prepare(&spec).is_err());
    }
}

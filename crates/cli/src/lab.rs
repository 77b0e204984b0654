//! The [`Lab`] the `repro` experiments share, and the [`Scale`] it is
//! built at.
//!
//! The [`Lab`] caches the expensive shared artifacts — the 2020 and 2015
//! synthetic Internets, the measured (augmented) topology, tier sets, and
//! whole-Internet hierarchy-free reachability — so each experiment only
//! pays for what it uniquely needs.

use flatnet_asgraph::{validate_topology, AsGraph, AsId, Tiers, ValidateOptions};
use flatnet_core::pipeline::{measure, Measured};
use flatnet_core::reachability::hierarchy_free_all_t;
use flatnet_netgen::{generate, NetGenConfig, SyntheticInternet};
use flatnet_tracesim::{CampaignOptions, Methodology};
use std::cell::OnceCell;

/// Experiment scale knobs (see `repro --help`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scale {
    /// Number of ASes in the 2020 synthetic Internet.
    pub n_ases: usize,
    /// Master seed.
    pub seed: u64,
    /// Leak simulations per configuration.
    pub n_leakers: usize,
    /// Random origin/leaker pairs for the average-resilience baseline.
    pub n_avg: usize,
    /// Worker threads for parallel sweeps (`0` = available parallelism).
    /// Results are identical for any count; only timings change.
    pub threads: usize,
}

impl Scale {
    /// The default repro scale (a few minutes on a laptop).
    pub(crate) fn default_scale() -> Self {
        Scale { n_ases: 4000, seed: 2020, n_leakers: 200, n_avg: 60, threads: 0 }
    }

    /// A fast scale for smoke runs and benches.
    pub(crate) fn fast() -> Self {
        Scale { n_ases: 800, seed: 2020, n_leakers: 60, n_avg: 25, threads: 0 }
    }
}

/// Lazily-built shared experiment state.
pub(crate) struct Lab {
    /// The scale everything is built at.
    pub scale: Scale,
    net2020: OnceCell<SyntheticInternet>,
    net2015: OnceCell<SyntheticInternet>,
    measured2020: OnceCell<Measured>,
    measured2015: OnceCell<Measured>,
    hfr2020: OnceCell<Vec<u32>>,
    hfr2015: OnceCell<Vec<u32>>,
}

impl Lab {
    /// A lab at the given scale. Nothing is computed until asked for.
    pub(crate) fn new(scale: Scale) -> Self {
        Lab {
            scale,
            net2020: OnceCell::new(),
            net2015: OnceCell::new(),
            measured2020: OnceCell::new(),
            measured2015: OnceCell::new(),
            hfr2020: OnceCell::new(),
            hfr2015: OnceCell::new(),
        }
    }

    /// The September-2020-like synthetic Internet.
    pub(crate) fn net2020(&self) -> &SyntheticInternet {
        self.net2020
            .get_or_init(|| generate(&NetGenConfig::paper_2020(self.scale.n_ases, self.scale.seed)))
    }

    /// The September-2015-like synthetic Internet.
    pub(crate) fn net2015(&self) -> &SyntheticInternet {
        self.net2015
            .get_or_init(|| generate(&NetGenConfig::paper_2015(self.scale.n_ases, self.scale.seed)))
    }

    fn campaign_opts() -> CampaignOptions {
        CampaignOptions { dest_sample: 1.0, ..Default::default() }
    }

    /// Runs the pipeline behind a preflight health check of the public
    /// view whose findings are logged, never fatal — the generator's
    /// topologies are healthy by construction, and an experiment run
    /// should not die on a degraded-but-usable graph.
    fn measure_warned(net: &SyntheticInternet) -> Measured {
        let report = flatnet_obs::PhaseTimer::PIPELINE.time("preflight", || {
            validate_topology(net.public(), &net.tier1, &net.tier2, &[], &ValidateOptions::default())
        });
        if !report.is_usable() {
            flatnet_obs::warn!("topology preflight found critical problems:\n{}", report.render());
        }
        measure(net, &Self::campaign_opts(), &Methodology::final_methodology())
    }

    /// The 2020 measurement pipeline output (campaign + inference +
    /// augmented topology).
    pub(crate) fn measured2020(&self) -> &Measured {
        self.measured2020.get_or_init(|| Self::measure_warned(self.net2020()))
    }

    /// The 2015 pipeline output (the paper reused a 2015 traceroute
    /// dataset with its own noisier mapping; we run the same pipeline on
    /// the 2015 topology).
    pub(crate) fn measured2015(&self) -> &Measured {
        self.measured2015.get_or_init(|| Self::measure_warned(self.net2015()))
    }

    /// The augmented 2020 graph (what §6-§8 run on).
    pub(crate) fn graph2020(&self) -> &AsGraph {
        &self.measured2020().augmented
    }

    /// The augmented 2015 graph.
    pub(crate) fn graph2015(&self) -> &AsGraph {
        &self.measured2015().augmented
    }

    /// Tier sets bound to the augmented 2020 graph.
    pub(crate) fn tiers2020(&self) -> Tiers {
        self.net2020().tiers_for(self.graph2020())
    }

    /// Tier sets bound to the augmented 2015 graph.
    pub(crate) fn tiers2015(&self) -> Tiers {
        self.net2015().tiers_for(self.graph2015())
    }

    /// Hierarchy-free reachability of every AS, 2020 augmented graph.
    pub(crate) fn hfr2020(&self) -> &[u32] {
        self.hfr2020
            .get_or_init(|| hierarchy_free_all_t(self.graph2020(), &self.tiers2020(), self.scale.threads))
    }

    /// Hierarchy-free reachability of every AS, 2015 augmented graph.
    pub(crate) fn hfr2015(&self) -> &[u32] {
        self.hfr2015
            .get_or_init(|| hierarchy_free_all_t(self.graph2015(), &self.tiers2015(), self.scale.threads))
    }

    /// Display name helper against the 2020 Internet.
    pub(crate) fn name(&self, asn: AsId) -> String {
        self.net2020().name_of(asn)
    }

    /// Per-node user weights on `g`, an augmented graph of `net`'s epoch
    /// (nodes added by augmentation — IXP ASes — get weight 0).
    pub(crate) fn user_weights(net: &SyntheticInternet, g: &AsGraph) -> Vec<f64> {
        g.nodes()
            .map(|n| {
                net.truth
                    .index_of(g.asn(n))
                    .map(|tn| net.meta[tn.idx()].users as f64)
                    .unwrap_or(0.0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_builds_lazily_and_consistently() {
        let lab = Lab::new(Scale { n_ases: 300, seed: 1, n_leakers: 5, n_avg: 3, threads: 0 });
        assert_eq!(lab.net2020().truth.len(), 300);
        assert!(lab.net2015().truth.len() < 300);
        assert!(lab.graph2020().edge_count() > 0);
        assert_eq!(lab.hfr2020().len(), lab.graph2020().len());
        assert_eq!(lab.name(AsId(15169)), "Google");
        assert_eq!(Lab::user_weights(lab.net2020(), lab.graph2020()).len(), lab.graph2020().len());
    }
}

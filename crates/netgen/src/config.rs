//! Generator configuration and presets.

/// Which measurement epoch to emulate. The paper compares September 2015
/// (51,801 ASes, thinner cloud peering) against September 2020 (69,999
/// ASes, clouds peered out massively). Epochs scale AS counts and
/// per-cloud peering breadth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Epoch {
    /// September 2015 conditions.
    Y2015,
    /// September 2020 conditions.
    Y2020,
}

/// A cloud (or cloud-like content) provider's peering stance, governing
/// how much of the edge it peers with (§4.1 lists Google as open, Amazon /
/// IBM / Microsoft as selective).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeeringPolicy {
    /// Peer with almost anyone (Google).
    Open,
    /// Peer broadly but selectively (Microsoft, Facebook).
    Selective,
    /// Peer narrowly (Amazon; IBM sits between).
    Restrictive,
}

/// Specification of one cloud-like provider to synthesize.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudSpec {
    /// Display name.
    pub name: String,
    /// Fixed ASN (the real ones, for familiarity in reports).
    pub asn: u32,
    /// Peering stance.
    pub policy: PeeringPolicy,
    /// Fraction of *eligible edge ASes* this provider peers with in 2020.
    pub edge_peering_2020: f64,
    /// Same for 2015.
    pub edge_peering_2015: f64,
    /// Fraction of mid-tier transit ASes peered with (2020).
    pub transit_peering_2020: f64,
    /// Same for 2015.
    pub transit_peering_2015: f64,
    /// Number of transit providers the cloud buys from.
    pub n_providers: usize,
    /// Fraction of the cloud's peer links that go through IXP route
    /// servers (Microsoft: most; these carry little traffic and are the
    /// main source of inference false negatives).
    pub route_server_fraction: f64,
    /// Fraction of this cloud's edge-peer links visible to BGP feeds
    /// (§4.1: ~24% Amazon, ~11% Google, ~82% IBM, ~9% Microsoft).
    pub bgp_visibility: f64,
    /// How strongly peering skews toward access (eyeball) networks;
    /// 0 = uniform, 1 = strongly access-biased (Fig. 4: Google/IBM/
    /// Microsoft focus on access; Amazon looks like a transit provider).
    pub access_bias: f64,
    /// Whether this provider is one of the paper's four cloud providers
    /// (Facebook is simulated for Fig. 7d but is not a cloud).
    pub is_cloud: bool,
    /// Number of VM-hosting datacenter metros (VP locations; §4.1 used
    /// 20 Amazon, 12 Google, 11 Microsoft, 6 IBM).
    pub n_datacenters: usize,
    /// Whether tenant traffic egresses near the VM instead of riding the
    /// private WAN (Amazon's default, §2.2) — VMs then only use peer links
    /// interconnected near their own metro.
    pub early_exit: bool,
}

/// Full generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NetGenConfig {
    /// Master seed; everything is deterministic given this.
    pub seed: u64,
    /// Epoch to emulate.
    pub epoch: Epoch,
    /// Total number of ASes (scaled internally for 2015).
    pub n_ases: usize,
    /// Tier-1 clique size (the paper's lists have ~12-20).
    pub n_tier1: usize,
    /// Number of Tier-2 ISPs.
    pub n_tier2: usize,
    /// Number of regional mid-tier transit providers.
    pub n_transit: usize,
    /// Number of IXPs (each in a distinct major metro).
    pub n_ixps: usize,
    /// Edge type mix: fraction of edge ASes that are access (eyeball).
    pub frac_access: f64,
    /// Fraction of edge ASes that are content.
    pub frac_content: f64,
    /// The rest of the edge is enterprise.
    /// Cloud/content giants to synthesize.
    pub clouds: Vec<CloudSpec>,
}

impl NetGenConfig {
    /// The paper-shaped default: 2020 epoch with the four clouds plus a
    /// Facebook-like content giant, at a laptop-friendly scale.
    pub fn paper_2020(n_ases: usize, seed: u64) -> Self {
        NetGenConfig {
            seed,
            epoch: Epoch::Y2020,
            n_ases,
            n_tier1: 12,
            n_tier2: 28,
            n_transit: (n_ases / 25).max(8),
            n_ixps: 24,
            frac_access: 0.50,
            frac_content: 0.12,
            clouds: default_clouds(),
        }
    }

    /// The 2015 retrospective configuration: ~74% of the 2020 AS count
    /// (51,801 / 69,999) and the clouds' 2015 peering breadth.
    pub fn paper_2015(n_ases_2020: usize, seed: u64) -> Self {
        let mut cfg = Self::paper_2020(n_ases_2020 * 74 / 100, seed);
        cfg.epoch = Epoch::Y2015;
        cfg
    }

    /// A small configuration for unit tests (hundreds of ASes).
    pub fn tiny(seed: u64) -> Self {
        let mut cfg = Self::paper_2020(400, seed);
        cfg.n_tier1 = 6;
        cfg.n_tier2 = 10;
        cfg.n_transit = 20;
        cfg.n_ixps = 8;
        cfg
    }

    /// Effective edge-peering fraction of a cloud for this epoch.
    pub(crate) fn edge_peering(&self, spec: &CloudSpec) -> f64 {
        match self.epoch {
            Epoch::Y2015 => spec.edge_peering_2015,
            Epoch::Y2020 => spec.edge_peering_2020,
        }
    }

    /// Effective transit-peering fraction of a cloud for this epoch.
    pub(crate) fn transit_peering(&self, spec: &CloudSpec) -> f64 {
        match self.epoch {
            Epoch::Y2015 => spec.transit_peering_2015,
            Epoch::Y2020 => spec.transit_peering_2020,
        }
    }
}

/// The five built-in providers, with real-world ASNs and peering shapes
/// calibrated to §4.1's measured neighbor counts and §6's outcomes.
pub(crate) fn default_clouds() -> Vec<CloudSpec> {
    vec![
        CloudSpec {
            name: "Google".to_string(),
            asn: 15169,
            policy: PeeringPolicy::Open,
            edge_peering_2020: 0.40,
            edge_peering_2015: 0.30,
            transit_peering_2020: 0.92,
            transit_peering_2015: 0.72,
            n_providers: 3, // Tata, GTT, Durand do Brasil in the Sep 2020 data
            route_server_fraction: 0.30,
            bgp_visibility: 0.11,
            access_bias: 0.8,
            is_cloud: true,
            n_datacenters: 12,
            early_exit: false,
        },
        CloudSpec {
            name: "Microsoft".to_string(),
            asn: 8075,
            policy: PeeringPolicy::Selective,
            edge_peering_2020: 0.28,
            edge_peering_2015: 0.10,
            transit_peering_2020: 0.90,
            transit_peering_2015: 0.40,
            n_providers: 7, // counts 7 Tier-1 ISPs as transit providers
            route_server_fraction: 0.55,
            bgp_visibility: 0.09,
            access_bias: 0.75,
            is_cloud: true,
            n_datacenters: 11,
            early_exit: false,
        },
        CloudSpec {
            name: "IBM".to_string(),
            asn: 36351,
            policy: PeeringPolicy::Selective,
            edge_peering_2020: 0.25,
            edge_peering_2015: 0.17,
            transit_peering_2020: 0.90,
            transit_peering_2015: 0.52,
            n_providers: 4,
            route_server_fraction: 0.20,
            bgp_visibility: 0.81,
            access_bias: 0.7,
            is_cloud: true,
            n_datacenters: 6,
            early_exit: false,
        },
        CloudSpec {
            name: "Amazon".to_string(),
            asn: 16509,
            policy: PeeringPolicy::Restrictive,
            edge_peering_2020: 0.13,
            edge_peering_2015: 0.04,
            transit_peering_2020: 0.88,
            transit_peering_2015: 0.25,
            n_providers: 8, // Amazon has the most transit providers (20 in CAIDA)
            route_server_fraction: 0.25,
            bgp_visibility: 0.24,
            access_bias: 0.25,
            is_cloud: true,
            n_datacenters: 20,
            early_exit: true,
        },
        CloudSpec {
            name: "Facebook".to_string(),
            asn: 32934,
            policy: PeeringPolicy::Selective,
            edge_peering_2020: 0.30,
            edge_peering_2015: 0.12,
            transit_peering_2020: 0.75,
            transit_peering_2015: 0.32,
            n_providers: 3,
            route_server_fraction: 0.35,
            bgp_visibility: 0.12,
            access_bias: 0.85,
            is_cloud: false,
            n_datacenters: 8,
            early_exit: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let cfg = NetGenConfig::paper_2020(8000, 1);
        assert_eq!(cfg.n_ases, 8000);
        assert_eq!(cfg.clouds.len(), 5);
        assert_eq!(cfg.clouds.iter().filter(|c| c.is_cloud).count(), 4);
        let cfg15 = NetGenConfig::paper_2015(8000, 1);
        assert_eq!(cfg15.epoch, Epoch::Y2015);
        assert!(cfg15.n_ases < cfg.n_ases);
        let tiny = NetGenConfig::tiny(1);
        assert!(tiny.n_ases <= 500);
    }

    #[test]
    fn epoch_scales_peering() {
        let cfg20 = NetGenConfig::paper_2020(1000, 1);
        let cfg15 = NetGenConfig::paper_2015(1000, 1);
        for spec in default_clouds() {
            assert!(cfg20.edge_peering(&spec) >= cfg15.edge_peering(&spec), "{}", spec.name);
            assert!(cfg20.transit_peering(&spec) >= cfg15.transit_peering(&spec));
        }
    }

    #[test]
    fn policy_breadth_ordering_matches_paper() {
        // Google (open) > Microsoft/Facebook/IBM (selective) > Amazon.
        let clouds = default_clouds();
        let get = |name: &str| clouds.iter().find(|c| c.name == name).unwrap().edge_peering_2020;
        assert!(get("Google") > get("Microsoft"));
        assert!(get("Microsoft") > get("Amazon"));
        assert!(get("IBM") > get("Amazon"));
    }
}

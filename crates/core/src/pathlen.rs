//! Path-length distributions over time (Appendix E, Figure 13).
//!
//! For each cloud, announce a prefix over the full topology and bin every
//! AS's best-path length into 1 / 2 / 3+ inter-AS hops, weighted three
//! ways: by AS count, by eyeball ASes only, and by estimated users.

use flatnet_asgraph::{AsGraph, AsId};
use flatnet_bgpsim::{Simulation, TopologySnapshot};

/// One weighted 1/2/3+ hop split (each row of Fig. 13), in percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopSplit {
    /// % of weight at exactly 1 hop (direct peering/adjacency).
    pub one: f64,
    /// % at exactly 2 hops.
    pub two: f64,
    /// % at 3 or more hops.
    pub three_plus: f64,
}

impl HopSplit {
    fn from_weights(w1: f64, w2: f64, w3: f64) -> HopSplit {
        let total = w1 + w2 + w3;
        if total == 0.0 {
            return HopSplit { one: 0.0, two: 0.0, three_plus: 0.0 };
        }
        HopSplit {
            one: 100.0 * w1 / total,
            two: 100.0 * w2 / total,
            three_plus: 100.0 * w3 / total,
        }
    }
}

/// Fig. 13 data for one cloud.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLengthProfile {
    /// The origin cloud.
    pub asn: AsId,
    /// Split over all reachable ASes.
    pub all_ases: HopSplit,
    /// Split over eyeball ASes (users > 0).
    pub eyeball_ases: HopSplit,
    /// Split weighted by estimated users.
    pub population: HopSplit,
    /// ASes with no route at all (excluded from the splits).
    pub unreachable: usize,
}

/// Computes Fig. 13's three weighted splits for one cloud. `users` is
/// indexed by node (APNIC-style user estimates).
pub fn path_length_profile(g: &AsGraph, origin: AsId, users: &[f64]) -> Option<PathLengthProfile> {
    let o = g.index_of(origin)?;
    let out = Simulation::over(&TopologySnapshot::compile(g)).run(o);
    let mut all = [0f64; 3];
    let mut eyeball = [0f64; 3];
    let mut pop = [0f64; 3];
    let mut unreachable = 0usize;
    for n in g.nodes() {
        if n == o {
            continue;
        }
        let Some((_, len)) = out.selection(n) else {
            unreachable += 1;
            continue;
        };
        let bin = match len {
            0 | 1 => 0,
            2 => 1,
            _ => 2,
        };
        all[bin] += 1.0;
        if users[n.idx()] > 0.0 {
            eyeball[bin] += 1.0;
            pop[bin] += users[n.idx()];
        }
    }
    Some(PathLengthProfile {
        asn: origin,
        all_ases: HopSplit::from_weights(all[0], all[1], all[2]),
        eyeball_ases: HopSplit::from_weights(eyeball[0], eyeball[1], eyeball[2]),
        population: HopSplit::from_weights(pop[0], pop[1], pop[2]),
        unreachable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_asgraph::{AsGraphBuilder, Relationship};

    /// Cloud 10 peers with 20 (users 100) and buys from 1; 1 serves 30
    /// (users 900) and 40 (no users); 30 serves 50 (users 0).
    fn sample() -> AsGraph {
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(10), AsId(20), Relationship::P2p);
        b.add_link(AsId(1), AsId(10), Relationship::P2c);
        b.add_link(AsId(1), AsId(30), Relationship::P2c);
        b.add_link(AsId(1), AsId(40), Relationship::P2c);
        b.add_link(AsId(30), AsId(50), Relationship::P2c);
        b.add_isolated(AsId(99));
        b.build()
    }

    #[test]
    fn splits_match_hand_counts() {
        let g = sample();
        let mut users = vec![0.0; g.len()];
        users[g.index_of(AsId(20)).unwrap().idx()] = 100.0;
        users[g.index_of(AsId(30)).unwrap().idx()] = 900.0;
        let p = path_length_profile(&g, AsId(10), &users).unwrap();
        // Distances from ASes to cloud 10: 1:1, 20:1, 30:2, 40:2, 50:3.
        // all: one=2, two=2, three+=1 => 40/40/20.
        assert!((p.all_ases.one - 40.0).abs() < 1e-9);
        assert!((p.all_ases.two - 40.0).abs() < 1e-9);
        assert!((p.all_ases.three_plus - 20.0).abs() < 1e-9);
        // eyeballs: 20 (1 hop), 30 (2 hops) => 50/50/0.
        assert!((p.eyeball_ases.one - 50.0).abs() < 1e-9);
        assert!((p.eyeball_ases.three_plus - 0.0).abs() < 1e-9);
        // population: 100 @1 / 900 @2 => 10/90/0.
        assert!((p.population.one - 10.0).abs() < 1e-9);
        assert!((p.population.two - 90.0).abs() < 1e-9);
        // AS 99 is isolated.
        assert_eq!(p.unreachable, 1);
    }

    #[test]
    fn degenerate_inputs() {
        let g = sample();
        let users = vec![0.0; g.len()];
        let p = path_length_profile(&g, AsId(10), &users).unwrap();
        assert_eq!(p.population.one, 0.0);
        assert_eq!(p.eyeball_ases.two, 0.0);
        assert!(path_length_profile(&g, AsId(12345), &users).is_none());
    }
}

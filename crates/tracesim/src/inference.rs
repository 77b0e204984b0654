//! Cloud-neighbor inference from traceroutes — §4.1's rules, with §5's
//! methodology iterations as explicit configurations.

use crate::model::Traceroute;
use flatnet_asgraph::AsId;
use flatnet_prefixdb::{ResolutionOrder, Resolver};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// One inference methodology (a row in §5's iterative-improvement story).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Methodology {
    /// Resolve hops using only the announced-prefix (Cymru-style) database,
    /// ignoring PeeringDB and whois — the paper's starting point.
    pub cymru_only: bool,
    /// Source consultation order when all sources are used.
    pub order: ResolutionOrder,
    /// If the hop right after the cloud is unresponsive or unresolvable,
    /// assume the *next* resolved hop is a direct neighbor (the initial
    /// assumption §5 identifies as "the leading cause for inaccuracy").
    /// The final methodology discards such traceroutes instead.
    pub assume_single_unknown_direct: bool,
}

impl Methodology {
    /// The paper's initial methodology: Cymru-only resolution and the
    /// assume-direct shortcut (~50% FDR).
    pub fn initial() -> Self {
        Methodology {
            cymru_only: true,
            order: ResolutionOrder::CymruFirst,
            assume_single_unknown_direct: true,
        }
    }

    /// After the first round of Microsoft feedback: discard traceroutes
    /// with unknown border hops, resolve through PeeringDB and whois
    /// (but still preferring the announced-prefix database).
    pub fn with_registries() -> Self {
        Methodology {
            cymru_only: false,
            order: ResolutionOrder::CymruFirst,
            assume_single_unknown_direct: false,
        }
    }

    /// The final methodology: PeeringDB preferred over Cymru (fixes IXP
    /// member addresses on announced LANs), discard on unknown borders.
    pub fn final_methodology() -> Self {
        Methodology {
            cymru_only: false,
            order: ResolutionOrder::PeeringDbFirst,
            assume_single_unknown_direct: false,
        }
    }

    /// Resolves one address under this methodology.
    pub(crate) fn resolve(&self, resolver: &Resolver, ip: Ipv4Addr) -> Option<AsId> {
        if self.cymru_only {
            resolver.announced.resolve(ip)
        } else {
            resolver.resolve(ip, self.order).map(|r| r.asn)
        }
    }
}

/// Infers the neighbor set of `cloud` from its traceroutes.
///
/// Final-methodology retention rule (§4.1): "We only retain traceroutes
/// that include a cloud provider hop immediately adjacent to a hop mapped
/// to a different AS, with no intervening unresponsive or unmapped hops."
/// With [`Methodology::assume_single_unknown_direct`], one unresponsive or
/// unmapped hop between them is skipped instead.
pub fn infer_neighbors<'a>(
    traces: impl IntoIterator<Item = &'a Traceroute>,
    resolver: &Resolver,
    m: &Methodology,
    cloud: AsId,
) -> BTreeSet<AsId> {
    let mut neighbors = BTreeSet::new();
    for t in traces {
        if t.vp.cloud != cloud {
            continue;
        }
        // Resolve every hop once.
        let resolved: Vec<Option<AsId>> = t
            .hops
            .iter()
            .map(|h| h.addr.and_then(|a| m.resolve(resolver, a)))
            .collect();
        // Last hop still mapped to the cloud.
        let Some(last_cloud) = resolved.iter().rposition(|&r| r == Some(cloud)) else {
            continue;
        };
        let next = last_cloud + 1;
        if next >= t.hops.len() {
            continue;
        }
        match resolved[next] {
            Some(a) if a != cloud => {
                neighbors.insert(a);
            }
            Some(_) => {}
            None => {
                if m.assume_single_unknown_direct && next + 1 < t.hops.len() {
                    if let Some(a) = resolved[next + 1] {
                        if a != cloud {
                            neighbors.insert(a);
                        }
                    }
                }
            }
        }
    }
    neighbors
}

/// Extracts the AS-level path of a traceroute (consecutive duplicates
/// collapsed, unresolved hops dropped). Returns `None` when the traceroute
/// did not reach the destination AS — Appendix A only scores traces that
/// did.
pub fn traceroute_as_path(
    t: &Traceroute,
    resolver: &Resolver,
    order: ResolutionOrder,
) -> Option<Vec<AsId>> {
    let mut path = Vec::new();
    for h in &t.hops {
        let Some(addr) = h.addr else { continue };
        let Some(res) = resolver.resolve(addr, order) else { continue };
        if path.last() != Some(&res.asn) {
            path.push(res.asn);
        }
    }
    if path.last() == Some(&t.dst_asn) {
        Some(path)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Hop, VantagePoint};
    use flatnet_prefixdb::{AnnouncedDb, PeeringDb, WhoisDb};

    const CLOUD: AsId = AsId(15169);
    const PEER: AsId = AsId(100);
    const FAR: AsId = AsId(200);

    fn resolver() -> Resolver {
        let mut ann = AnnouncedDb::new();
        ann.announce("10.0.0.0/16".parse().unwrap(), CLOUD);
        ann.announce("20.0.0.0/16".parse().unwrap(), PEER);
        ann.announce("30.0.0.0/16".parse().unwrap(), FAR);
        // An announced IXP LAN, owned by the IXP's AS 64600...
        ann.announce("193.238.0.0/24".parse().unwrap(), AsId(64600));
        let mut pdb = PeeringDb::new();
        let ixp = pdb.add_ixp("X-IX", Some(AsId(64600)), vec!["193.238.0.0/24".parse().unwrap()]);
        // ...but this member address belongs to PEER.
        pdb.add_netixlan(PEER, ixp, "193.238.0.10".parse().unwrap());
        Resolver::new(pdb, ann, WhoisDb::new())
    }

    fn trace(addrs: &[Option<&str>]) -> Traceroute {
        Traceroute {
            vp: VantagePoint { cloud: CLOUD, city: 0 },
            dst: "30.0.0.80".parse().unwrap(),
            dst_asn: FAR,
            hops: addrs
                .iter()
                .enumerate()
                .map(|(i, a)| Hop { ttl: i as u8 + 1, addr: a.map(|s| s.parse().unwrap()), rtt_ms: Some(1.0 + i as f64) })
                .collect(),
            completed: true,
        }
    }

    #[test]
    fn adjacent_resolved_hop_is_a_neighbor() {
        let r = resolver();
        let t = trace(&[Some("10.0.0.1"), Some("20.0.0.1"), Some("30.0.0.80")]);
        let n = infer_neighbors([&t], &r, &Methodology::final_methodology(), CLOUD);
        assert_eq!(n.into_iter().collect::<Vec<_>>(), vec![PEER]);
    }

    #[test]
    fn unresponsive_border_discarded_by_final_but_not_initial() {
        let r = resolver();
        let t = trace(&[Some("10.0.0.1"), None, Some("30.0.0.80")]);
        let final_n = infer_neighbors([&t], &r, &Methodology::final_methodology(), CLOUD);
        assert!(final_n.is_empty());
        // Initial methodology assumes the next resolved hop is direct:
        // a false positive (FAR is two AS hops away).
        let init_n = infer_neighbors([&t], &r, &Methodology::initial(), CLOUD);
        assert_eq!(init_n.into_iter().collect::<Vec<_>>(), vec![FAR]);
    }

    #[test]
    fn ixp_member_address_depends_on_resolution_order() {
        let r = resolver();
        let t = trace(&[Some("10.0.0.1"), Some("193.238.0.10"), Some("30.0.0.80")]);
        // Cymru-first resolves the announced LAN to the IXP AS: wrong.
        let n = infer_neighbors([&t], &r, &Methodology::with_registries(), CLOUD);
        assert_eq!(n.into_iter().collect::<Vec<_>>(), vec![AsId(64600)]);
        // PeeringDB-first pins the member.
        let n = infer_neighbors([&t], &r, &Methodology::final_methodology(), CLOUD);
        assert_eq!(n.into_iter().collect::<Vec<_>>(), vec![PEER]);
    }

    #[test]
    fn cymru_only_cannot_resolve_unannounced_lans() {
        let mut r = resolver();
        // Make the LAN unannounced.
        r.announced = {
            let mut ann = AnnouncedDb::new();
            ann.announce("10.0.0.0/16".parse().unwrap(), CLOUD);
            ann.announce("30.0.0.0/16".parse().unwrap(), FAR);
            ann
        };
        let t = trace(&[Some("10.0.0.1"), Some("193.238.0.10"), Some("30.0.0.80")]);
        // Initial (cymru-only, assume-direct): unresolvable border, so the
        // next hop FAR is (falsely) inferred.
        let n = infer_neighbors([&t], &r, &Methodology::initial(), CLOUD);
        assert_eq!(n.into_iter().collect::<Vec<_>>(), vec![FAR]);
        // Final: PeeringDB resolves the member address correctly.
        let n = infer_neighbors([&t], &r, &Methodology::final_methodology(), CLOUD);
        assert_eq!(n.into_iter().collect::<Vec<_>>(), vec![PEER]);
    }

    #[test]
    fn traces_from_other_clouds_ignored() {
        let r = resolver();
        let mut t = trace(&[Some("10.0.0.1"), Some("20.0.0.1")]);
        t.vp.cloud = AsId(8075);
        assert!(infer_neighbors([&t], &r, &Methodology::final_methodology(), CLOUD).is_empty());
    }

    #[test]
    fn no_cloud_hop_means_no_inference() {
        let r = resolver();
        let t = trace(&[Some("20.0.0.1"), Some("30.0.0.80")]);
        // rposition finds no cloud hop.
        assert!(infer_neighbors([&t], &r, &Methodology::final_methodology(), CLOUD).is_empty());
    }

    #[test]
    fn as_path_extraction() {
        let r = resolver();
        let t = trace(&[Some("10.0.0.1"), Some("10.0.0.2"), Some("20.0.0.1"), None, Some("30.0.0.80")]);
        let p = traceroute_as_path(&t, &r, ResolutionOrder::PeeringDbFirst).unwrap();
        assert_eq!(p, vec![CLOUD, PEER, FAR]);
        // A trace that never reaches the destination AS scores None.
        let t2 = trace(&[Some("10.0.0.1"), Some("20.0.0.1")]);
        assert!(traceroute_as_path(&t2, &r, ResolutionOrder::PeeringDbFirst).is_none());
    }
}

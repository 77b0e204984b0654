//! Address-plan synthesis: announced prefixes, IXP LANs, PeeringDB records,
//! whois allocations, and per-cloud-link interconnect addresses.
//!
//! This is where the §5 resolution traps are planted deliberately:
//!
//! * some IXP peering LANs are **not announced in BGP** (resolvable only
//!   via PeeringDB/whois — the NL-IX case);
//! * some announced LANs resolve via longest-prefix match to the **IXP's
//!   own AS**, masking the member that actually owns the address;
//! * a few member addresses are **missing from PeeringDB** (netixlan
//!   coverage is imperfect), leaving whois as the last resort.

use crate::internet::SyntheticInternet;
use crate::topology::{AsRole, CloudPeerLink, PeerKind};
use flatnet_asgraph::AsId;
use flatnet_geo::cities::CITIES;
use flatnet_geo::Continent;
use flatnet_prefixdb::{AnnouncedDb, Ipv4Prefix, IxpId, PeeringDb, Resolver, WhoisDb};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// One synthesized IXP.
#[derive(Debug, Clone)]
pub struct IxpRecord {
    /// PeeringDB id.
    pub id: IxpId,
    /// Index into [`CITIES`].
    pub city: usize,
    /// The IXP's own AS (route servers, mgmt LAN).
    pub asn: AsId,
    /// Peering LAN prefix.
    pub lan: Ipv4Prefix,
    /// Whether the LAN is announced into BGP (by the IXP's AS).
    pub announced: bool,
}

/// Interconnect addressing of one cloud peer link.
#[derive(Debug, Clone, Copy)]
pub struct LinkAddr {
    /// Address of the *peer's* border interface (the first non-cloud hop a
    /// traceroute crossing this link sees).
    pub peer_ip: Ipv4Addr,
    /// Address of the cloud-side border interface.
    pub cloud_ip: Ipv4Addr,
    /// IXP the link runs over, when IXP-based.
    pub ixp: Option<IxpId>,
    /// Whether the peer's LAN address has a PeeringDB netixlan record.
    pub in_peeringdb: bool,
}

/// The complete address plan.
#[derive(Debug, Clone)]
pub struct Addressing {
    /// Layered IP→ASN resolver (PeeringDB + announced + whois).
    pub resolver: Resolver,
    /// Announced prefixes per AS.
    pub prefixes: BTreeMap<u32, Vec<Ipv4Prefix>>,
    /// Synthesized IXPs.
    pub ixps: Vec<IxpRecord>,
    /// Addressing of each (cloud ASN, peer ASN) link.
    pub links: BTreeMap<(u32, u32), LinkAddr>,
}

impl Addressing {
    /// A deterministic host address inside `asn`'s announced space, varied
    /// by `salt` (used for synthetic router hops). Returns `None` for ASes
    /// with no prefix (never generated, but kept total).
    pub fn host_of(&self, asn: AsId, salt: u64) -> Option<Ipv4Addr> {
        let prefixes = self.prefixes.get(&asn.0)?;
        let p = prefixes[(salt % prefixes.len() as u64) as usize];
        // Skip network (.0) and the low addresses reserved for link IPs.
        let span = p.size().saturating_sub(64).max(1);
        Some(p.addr(64 + (salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) % span)))
    }

    /// The announced prefix an AS originates (its first), if any.
    pub fn origin_prefix(&self, asn: AsId) -> Option<Ipv4Prefix> {
        self.prefixes.get(&asn.0).and_then(|v| v.first().copied())
    }
}

/// Builds the address plan of a synthetic Internet from its truth graph,
/// roles, regions and cloud peer links. It draws from a random stream of
/// its own, so it comes out the same whenever it is built;
/// [`SyntheticInternet::addressing`] builds it on first read.
pub(crate) fn build(net: &SyntheticInternet) -> Addressing {
    let cfg = &net.config;
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x0A11_0CA7_0A11_0CA7);
    let mut announced = AnnouncedDb::new();
    let mut whois = WhoisDb::new();
    let mut pdb = PeeringDb::new();
    let mut prefixes: BTreeMap<u32, Vec<Ipv4Prefix>> = BTreeMap::new();

    // --- Per-AS prefixes: bump-allocate from 1.0.0.0 upward, aligned to
    // the prefix size (the IXP block at 193.238/16 is far above anything
    // this allocator reaches at supported scales). ---
    let mut next_addr: u64 = 0x0100_0000;
    let mut alloc = |bits: u8, count: usize| -> Vec<Ipv4Prefix> {
        let size = 1u64 << (32 - bits as u32);
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let base = next_addr.div_ceil(size) * size;
            next_addr = base + size;
            assert!(next_addr < 0xC1EE_0000, "address space exhausted; reduce n_ases");
            out.push(Ipv4Prefix::new(Ipv4Addr::from(base as u32), bits));
        }
        out
    };
    for m in &net.meta {
        let asn = m.asn;
        let (bits, count) = match m.role {
            AsRole::Cloud => (16, 4),
            AsRole::Tier1 | AsRole::Tier2 => (16, 2),
            AsRole::Transit => (16, 1),
            AsRole::Edge => (20, 1),
        };
        let ps = alloc(bits, count);
        for &p in &ps {
            announced.announce(p, asn);
            whois.allocate(p, asn, format!("AS{}-NET", asn.0));
        }
        prefixes.insert(asn.0, ps);
    }

    // --- IXPs at the biggest metros. ---
    let mut city_order: Vec<usize> = (0..CITIES.len()).collect();
    city_order.sort_by(|&a, &b| {
        CITIES[b]
            .population_m
            .partial_cmp(&CITIES[a].population_m)
            .unwrap()
            .then(a.cmp(&b))
    });
    let mut ixps = Vec::new();
    for (i, &city) in city_order.iter().take(cfg.n_ixps).enumerate() {
        let asn = AsId(64_600 + i as u32);
        // IXP LANs sit in a dedicated block far from the AS allocations.
        let lan = Ipv4Prefix::new(Ipv4Addr::new(193, 238, i as u8, 0), 24);
        let announced_lan = rng.gen::<f64>() < 0.4;
        let id = pdb.add_ixp(
            format!("{}-IX", CITIES[city].code.to_uppercase()),
            Some(asn),
            vec![lan],
        );
        if announced_lan {
            announced.announce(lan, asn);
        }
        whois.allocate(lan, asn, format!("{}-IX", CITIES[city].code.to_uppercase()));
        ixps.push(IxpRecord { id, city, asn, lan, announced: announced_lan });
    }

    // Map each region (continent index) to the IXPs on that continent.
    let ixps_by_region: Vec<Vec<usize>> = (0..crate::topology::N_REGIONS)
        .map(|r| {
            ixps.iter()
                .enumerate()
                .filter(|(_, ix)| continent_index(CITIES[ix.city].continent) == r)
                .map(|(i, _)| i)
                .collect()
        })
        .collect();

    // --- Cloud link addressing. ---
    let mut links = BTreeMap::new();
    let mut lan_next_host: Vec<u64> = vec![10; ixps.len()];
    for cloud in &net.clouds {
        let cloud_prefix = prefixes[&cloud.asn.0][0];
        for (li, &CloudPeerLink { peer, kind }) in cloud.peer_links.iter().enumerate() {
            let addr = match kind {
                PeerKind::Pni => {
                    // PNI subnet carved from the peer's space: low addresses
                    // below the host range used by `host_of`.
                    let p = prefixes[&peer.0][0];
                    LinkAddr {
                        peer_ip: p.addr(2 + (li as u64 % 32)),
                        cloud_ip: cloud_prefix.addr(2 + (links.len() as u64 % 4096)),
                        ixp: None,
                        in_peeringdb: false,
                    }
                }
                PeerKind::BilateralIxp | PeerKind::RouteServer => {
                    // Pick an IXP in the peer's home region when possible.
                    let region = net.truth.index_of(peer).map_or(3, |n| net.region[n.idx()] as usize);
                    let pool = if ixps_by_region[region].is_empty() {
                        (0..ixps.len()).collect::<Vec<_>>()
                    } else {
                        ixps_by_region[region].clone()
                    };
                    let ix = pool[rng.gen_range(0..pool.len())];
                    let rec = &ixps[ix];
                    let peer_host = lan_next_host[ix];
                    lan_next_host[ix] += 1;
                    let cloud_host = lan_next_host[ix];
                    lan_next_host[ix] += 1;
                    let peer_ip = rec.lan.addr(peer_host % rec.lan.size());
                    let cloud_ip = rec.lan.addr(cloud_host % rec.lan.size());
                    // netixlan coverage is imperfect: ~92% of member
                    // addresses are registered.
                    let in_peeringdb = rng.gen::<f64>() < 0.92;
                    if in_peeringdb {
                        pdb.add_netixlan(peer, rec.id, peer_ip);
                    }
                    pdb.add_netixlan(cloud.asn, rec.id, cloud_ip);
                    LinkAddr { peer_ip, cloud_ip, ixp: Some(rec.id), in_peeringdb }
                }
            };
            links.insert((cloud.asn.0, peer.0), addr);
        }
    }

    Addressing {
        resolver: Resolver::new(pdb, announced, whois),
        prefixes,
        ixps,
        links,
    }
}

/// Continent → region index (matches `topology::N_REGIONS` ordering, which
/// follows [`Continent::ALL`]).
pub(crate) fn continent_index(c: Continent) -> usize {
    Continent::ALL.iter().position(|&x| x == c).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetGenConfig;
    use crate::internet::generate;
    use flatnet_prefixdb::ResolutionOrder;

    fn net() -> SyntheticInternet {
        generate(&NetGenConfig::tiny(42))
    }

    #[test]
    fn every_as_has_announced_space_resolving_to_it() {
        let net = net();
        let addr = net.addressing();
        for n in net.truth.nodes() {
            let asn = net.truth.asn(n);
            let ps = &addr.prefixes[&asn.0];
            assert!(!ps.is_empty(), "{asn} has no prefixes");
            let host = addr.host_of(asn, 7).unwrap();
            let res = addr.resolver.resolve(host, ResolutionOrder::PeeringDbFirst).unwrap();
            assert_eq!(res.asn, asn, "host {host} of {asn} resolved to {}", res.asn);
        }
    }

    #[test]
    fn prefixes_do_not_overlap_across_ases() {
        let net = net();
        let addr = net.addressing();
        let mut all: Vec<(Ipv4Prefix, u32)> = Vec::new();
        for (&asn, ps) in &addr.prefixes {
            for &p in ps {
                all.push((p, asn));
            }
        }
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert!(
                    !all[i].0.covers(&all[j].0) && !all[j].0.covers(&all[i].0),
                    "{} (AS{}) overlaps {} (AS{})",
                    all[i].0,
                    all[i].1,
                    all[j].0,
                    all[j].1
                );
            }
        }
    }

    #[test]
    fn ixp_lans_follow_the_announcement_split() {
        let net = net();
        let addr = net.addressing();
        assert_eq!(addr.ixps.len(), net.config.n_ixps);
        let announced = addr.ixps.iter().filter(|ix| ix.announced).count();
        assert!(announced > 0 && announced < addr.ixps.len());
        for ix in &addr.ixps {
            // whois always knows the LAN's IXP.
            let a = addr.resolver.whois.resolve(ix.lan.addr(1)).unwrap();
            assert_eq!(a, ix.asn);
            // announced LANs LPM-resolve to the IXP AS (the §5 trap).
            let cymru = addr.resolver.announced.resolve(ix.lan.addr(1));
            if ix.announced {
                assert_eq!(cymru, Some(ix.asn));
            } else {
                assert_eq!(cymru, None);
            }
        }
    }

    #[test]
    fn ixp_member_addresses_prefer_peeringdb_resolution() {
        let net = net();
        let addr = net.addressing();
        let mut checked = 0;
        for cloud in &net.clouds {
            for &CloudPeerLink { peer, kind } in &cloud.peer_links {
                if kind == PeerKind::Pni {
                    continue;
                }
                let link = &addr.links[&(cloud.asn.0, peer.0)];
                if link.in_peeringdb {
                    let res = addr
                        .resolver
                        .resolve(link.peer_ip, ResolutionOrder::PeeringDbFirst)
                        .unwrap();
                    assert_eq!(res.asn, peer, "IXP member address misresolved");
                    checked += 1;
                }
            }
        }
        assert!(checked > 10, "too few IXP links exercised ({checked})");
    }

    #[test]
    fn pni_addresses_resolve_to_the_peer_via_cymru() {
        let net = net();
        let addr = net.addressing();
        let mut checked = 0;
        for cloud in &net.clouds {
            for &CloudPeerLink { peer, kind } in &cloud.peer_links {
                if kind != PeerKind::Pni {
                    continue;
                }
                let link = &addr.links[&(cloud.asn.0, peer.0)];
                let res = addr
                    .resolver
                    .resolve(link.peer_ip, ResolutionOrder::PeeringDbFirst)
                    .unwrap();
                assert_eq!(res.asn, peer);
                checked += 1;
            }
        }
        assert!(checked > 10, "too few PNI links exercised ({checked})");
    }

    #[test]
    fn host_of_is_deterministic_and_varies_with_salt() {
        let net = net();
        let addr = net.addressing();
        let asn = net.meta.iter().find(|m| m.role == AsRole::Edge).unwrap().asn;
        assert_eq!(addr.host_of(asn, 1), addr.host_of(asn, 1));
        assert_ne!(addr.host_of(asn, 1), addr.host_of(asn, 2));
        assert_eq!(addr.host_of(AsId(4_294_000_000), 1), None);
    }

    #[test]
    fn continent_index_covers_all() {
        for (i, &c) in Continent::ALL.iter().enumerate() {
            assert_eq!(continent_index(c), i);
        }
    }
}

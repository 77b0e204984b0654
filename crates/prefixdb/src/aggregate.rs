//! Route aggregation: compacting an announced-prefix table without
//! changing what any address resolves to.
//!
//! Real RIBs are full of deaggregated space; CAIDA-scale tooling (and our
//! `flatnet gen` bundles) benefit from compaction. Two resolution-
//! preserving transformations are applied to fixpoint:
//!
//! * **sibling merge** — two half-prefixes with the same origin whose
//!   parent would not shadow a *different* origin's covering announcement
//!   collapse into the parent;
//! * **covered-prefix elision** — a prefix whose nearest covering
//!   announcement has the same origin is redundant and dropped.
//!
//! The central invariant (checked by property tests): for every IPv4
//! address, `aggregate(db).resolve(ip) == db.resolve(ip)`.

use crate::cymru::AnnouncedDb;
use crate::ipv4::Ipv4Prefix;
use flatnet_asgraph::AsId;
use std::collections::BTreeMap;

/// Aggregates an announced-prefix table, preserving resolution for every
/// address. Returns the compacted table.
pub fn aggregate(db: &AnnouncedDb) -> AnnouncedDb {
    // Work on a sorted map of (prefix -> origin).
    let mut table: BTreeMap<Ipv4Prefix, AsId> = db.iter().collect();

    loop {
        let mut changed = false;

        // Covered-prefix elision: drop any prefix whose nearest covering
        // announcement has the same origin.
        let snapshot: Vec<(Ipv4Prefix, AsId)> = table.iter().map(|(&p, &a)| (p, a)).collect();
        for (p, origin) in &snapshot {
            if p.len() == 0 {
                continue;
            }
            // Nearest cover: the longest strictly-shorter prefix covering p.
            let cover = snapshot
                .iter()
                .filter(|(q, _)| q.len() < p.len() && q.covers(p) && table.contains_key(q))
                .max_by_key(|(q, _)| q.len());
            if let Some((_, cover_origin)) = cover {
                if cover_origin == origin {
                    table.remove(p);
                    changed = true;
                }
            }
        }

        // Sibling merge: same-origin halves of a common parent, provided
        // the parent doesn't capture addresses currently resolved by a
        // different-origin announcement *between* parent and halves (no
        // such announcement can exist — any prefix strictly between parent
        // and half would cover exactly one half; if it exists with a
        // different origin the merge is unsafe).
        let snapshot: Vec<(Ipv4Prefix, AsId)> = table.iter().map(|(&p, &a)| (p, a)).collect();
        for (p, origin) in &snapshot {
            if p.len() == 0 || !table.contains_key(p) {
                continue;
            }
            let parent = Ipv4Prefix::new(p.network(), p.len() - 1);
            let (lo, hi) = parent.split().expect("len >= 1 so parent splits");
            let sibling = if *p == lo { hi } else { lo };
            let Some(&sib_origin) = table.get(&sibling) else { continue };
            if sib_origin != *origin {
                continue;
            }
            // Unsafe if any *other* announcement lives strictly inside the
            // parent with a different origin and would now be shadowed
            // differently — but more-specifics always win LPM, so interior
            // announcements are unaffected. Only an announcement exactly
            // equal to the parent with a different origin blocks the merge.
            if let Some(&existing) = table.get(&parent) {
                if existing != *origin {
                    continue;
                }
            }
            table.remove(p);
            table.remove(&sibling);
            table.insert(parent, *origin);
            changed = true;
        }

        if !changed {
            break;
        }
    }

    let mut out = AnnouncedDb::new();
    for (p, a) in table {
        out.announce(p, a);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    /// Whether exactly `prefix` is announced in `db`.
    fn announced(db: &AnnouncedDb, prefix: &str) -> bool {
        db.iter().any(|(p, _)| p == prefix.parse().unwrap())
    }

    fn db(entries: &[(&str, u32)]) -> AnnouncedDb {
        let mut d = AnnouncedDb::new();
        for (p, a) in entries {
            d.announce(p.parse().unwrap(), AsId(*a));
        }
        d
    }

    #[test]
    fn merges_siblings() {
        let d = db(&[("10.0.0.0/9", 1), ("10.128.0.0/9", 1)]);
        let agg = aggregate(&d);
        assert_eq!(agg.len(), 1);
        assert_eq!(agg.resolve("10.200.0.1".parse().unwrap()), Some(AsId(1)));
        assert!(announced(&agg, "10.0.0.0/8"));
    }

    #[test]
    fn merges_recursively() {
        let d = db(&[
            ("10.0.0.0/10", 1),
            ("10.64.0.0/10", 1),
            ("10.128.0.0/9", 1),
        ]);
        let agg = aggregate(&d);
        assert_eq!(agg.len(), 1);
        assert!(announced(&agg, "10.0.0.0/8"));
    }

    #[test]
    fn keeps_different_origin_siblings() {
        let d = db(&[("10.0.0.0/9", 1), ("10.128.0.0/9", 2)]);
        let agg = aggregate(&d);
        assert_eq!(agg.len(), 2);
    }

    #[test]
    fn drops_redundant_more_specifics() {
        let d = db(&[("10.0.0.0/8", 1), ("10.1.0.0/16", 1), ("10.2.0.0/16", 2)]);
        let agg = aggregate(&d);
        // 10.1/16 is covered by the same origin's /8; 10.2/16 is not.
        assert_eq!(agg.len(), 2);
        assert!(!announced(&agg, "10.1.0.0/16"));
        assert_eq!(agg.resolve("10.2.0.0".parse().unwrap()), Some(AsId(2)));
        assert_eq!(agg.resolve("10.1.0.0".parse().unwrap()), Some(AsId(1)));
    }

    #[test]
    fn hole_punching_is_preserved() {
        // /8 by AS1 with a /16 hole by AS2: nothing may merge or drop.
        let d = db(&[("10.0.0.0/8", 1), ("10.5.0.0/16", 2)]);
        let agg = aggregate(&d);
        assert_eq!(agg.len(), 2);
        assert_eq!(agg.resolve("10.5.1.1".parse().unwrap()), Some(AsId(2)));
        assert_eq!(agg.resolve("10.6.1.1".parse().unwrap()), Some(AsId(1)));
    }

    #[test]
    fn empty_table() {
        assert_eq!(aggregate(&AnnouncedDb::new()).len(), 0);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_db() -> impl Strategy<Value = AnnouncedDb> {
            proptest::collection::vec((any::<u32>(), 4u8..=24, 1u32..5), 1..24).prop_map(
                |entries| {
                    let mut d = AnnouncedDb::new();
                    for (bits, len, origin) in entries {
                        // Cluster prefixes into a small space so overlap is common.
                        let base = 0x0A00_0000 | (bits & 0x00FF_FFFF);
                        d.announce(Ipv4Prefix::new(Ipv4Addr::from(base), len), AsId(origin));
                    }
                    d
                },
            )
        }

        proptest! {
            #[test]
            fn aggregation_preserves_resolution(d in arb_db(), probes in proptest::collection::vec(any::<u32>(), 32)) {
                let agg = aggregate(&d);
                prop_assert!(agg.len() <= d.len());
                // Probe random addresses plus each original prefix's own
                // network/broadcast-side addresses.
                let mut ips: Vec<Ipv4Addr> = probes
                    .iter()
                    .map(|&b| Ipv4Addr::from(0x0A00_0000 | (b & 0x00FF_FFFF)))
                    .collect();
                for (p, _) in d.iter() {
                    ips.push(p.network());
                    ips.push(p.addr(p.size() - 1));
                    ips.push(p.addr(p.size() / 2));
                }
                for ip in ips {
                    prop_assert_eq!(agg.resolve(ip), d.resolve(ip), "ip {}", ip);
                }
            }
        }
    }
}

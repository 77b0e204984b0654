//! On-disk dataset bundles: write a synthetic Internet out as the file
//! formats the paper's pipeline consumes, and load such a bundle back.
//!
//! A bundle directory contains:
//!
//! | file | format | paper analogue |
//! |---|---|---|
//! | `as-rel.txt` | CAIDA serial-2 | the public BGP-feed topology |
//! | `as-rel-truth.txt` | CAIDA serial-2 | ground truth (no real analogue) |
//! | `as2types.txt` | CAIDA as2types | AS classification |
//! | `prefixes.txt` | `prefix\|asn` | announced prefixes (Cymru-style) |
//! | `users.txt` | `asn\|users` | APNIC user-population estimates |
//! | `tiers.txt` | `tier1=..`/`tier2=..` | ProbLink Tier-1/Tier-2 lists |
//!
//! Traceroute campaigns are written separately by the `flatnet` CLI (they
//! depend on `flatnet-tracesim`, which sits above this crate).

use crate::internet::SyntheticInternet;
use flatnet_asgraph::astype::AsTypeDb;
use flatnet_asgraph::{caida, AsGraph, AsId, Tiers};
use flatnet_asgraph::ingest::{read_lines, ParseOptions};
use flatnet_prefixdb::AnnouncedDb;
use std::collections::BTreeMap;
use std::path::Path;
use std::{fmt, fs, io};

/// A dataset bundle loaded from disk.
#[derive(Debug, Clone)]
pub struct LoadedDataset {
    /// The public (BGP-feed) topology.
    pub public: AsGraph,
    /// Ground truth, when the bundle carries it.
    pub truth: Option<AsGraph>,
    /// AS classifications.
    pub types: AsTypeDb,
    /// Announced prefixes.
    pub announced: AnnouncedDb,
    /// Estimated users per AS.
    pub users: BTreeMap<u32, u64>,
    /// Tier-1 list.
    pub tier1: Vec<AsId>,
    /// Tier-2 list.
    pub tier2: Vec<AsId>,
}

impl LoadedDataset {
    /// Tier sets bound to a graph from this bundle.
    pub fn tiers_for(&self, g: &AsGraph) -> Tiers {
        Tiers::from_lists(g, &self.tier1, &self.tier2)
    }
}

/// Writes the bundle files for a synthetic Internet. The directory is
/// created if missing; existing files are overwritten.
pub fn write_dataset(net: &SyntheticInternet, dir: &Path) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |name: &str, contents: String| -> Result<(), String> {
        fs::write(dir.join(name), contents).map_err(|e| format!("{name}: {e}"))
    };
    write("as-rel.txt", caida::write_serial2(net.public()))?;
    write("as-rel-truth.txt", caida::write_serial2(&net.truth))?;
    let mut types = AsTypeDb::new();
    for m in &net.meta {
        types.insert(m.asn, m.class);
    }
    write("as2types.txt", types.write())?;
    write("prefixes.txt", net.addressing().resolver.announced.write())?;
    let users = net.meta.iter().filter(|m| m.users > 0).map(|m| (m.asn.0, m.users));
    write("users.txt", write_users(users))?;
    write("tiers.txt", write_tiers(&net.tier1, &net.tier2))?;
    Ok(())
}

/// Serializes `asn|users` pairs as a `users.txt` body, in the order given
/// (round-trips through [`parse_users`]).
pub fn write_users(users: impl IntoIterator<Item = (u32, u64)>) -> String {
    let mut out = String::from("# asn|estimated users (APNIC-style)\n");
    for (asn, count) in users {
        out.push_str(&format!("{asn}|{count}\n"));
    }
    out
}

/// Serializes the tier lists as a `tiers.txt` body (round-trips through
/// [`parse_tiers`]).
pub fn write_tiers(tier1: &[AsId], tier2: &[AsId]) -> String {
    let join = |asns: &[AsId]| asns.iter().map(|a| a.0.to_string()).collect::<Vec<_>>().join(",");
    format!("# ground-truth tier lists\ntier1={}\ntier2={}\n", join(tier1), join(tier2))
}

/// Parses a `users.txt` body: `asn|users` lines, `#` comments allowed.
pub fn parse_users(bytes: &[u8]) -> Result<BTreeMap<u32, u64>, String> {
    let mut out = BTreeMap::new();
    read_lines(bytes, &ParseOptions::strict(), "users", |line| {
        let (asn, users) = line?.split_once('|').ok_or("expected asn|users")?;
        let asn: u32 = asn.trim().parse().map_err(|_| "bad ASN")?;
        let users: u64 = users.trim().parse().map_err(|_| "bad count")?;
        out.insert(asn, users);
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    Ok(out)
}

/// Parses a `tiers.txt` body into (tier1, tier2): `tier1=` and `tier2=`
/// lines of comma-separated ASNs, `#` comments allowed.
pub fn parse_tiers(bytes: &[u8]) -> Result<(Vec<AsId>, Vec<AsId>), String> {
    let mut tier1 = Vec::new();
    let mut tier2 = Vec::new();
    read_lines(bytes, &ParseOptions::strict(), "tiers", |line| {
        let (key, list) = line?.split_once('=').ok_or("expected key=list")?;
        let target = match key.trim() {
            "tier1" => &mut tier1,
            "tier2" => &mut tier2,
            other => return Err(format!("unknown key {other:?}").into()),
        };
        for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let asn: u32 = part.parse().map_err(|_| format!("bad ASN {part:?}"))?;
            target.push(AsId(asn));
        }
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    Ok((tier1, tier2))
}

/// Loads a bundle directory. `as-rel-truth.txt`, `users.txt`, and
/// `tiers.txt` are optional (a bundle assembled from real datasets may
/// lack them); everything else is required. An optional file is absent
/// only when it does not exist: any other failure to read it is an error.
/// Every error names its file.
pub fn load_dataset(dir: &Path) -> Result<LoadedDataset, String> {
    let read = |name: &str| fs::read(dir.join(name)).map_err(in_file(name));
    let read_opt = |name: &str| match fs::read(dir.join(name)) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        bytes => bytes.map(Some).map_err(in_file(name)),
    };

    let public = caida::parse_serial2(&read("as-rel.txt")?).map_err(in_file("as-rel.txt"))?.build();
    let truth = match read_opt("as-rel-truth.txt")? {
        Some(bytes) => Some(caida::parse_serial2(&bytes).map_err(in_file("as-rel-truth.txt"))?.build()),
        None => None,
    };
    let types = AsTypeDb::parse(&read("as2types.txt")?).map_err(in_file("as2types.txt"))?;
    let announced = AnnouncedDb::parse(&read("prefixes.txt")?).map_err(in_file("prefixes.txt"))?;
    let users = match read_opt("users.txt")? {
        Some(bytes) => parse_users(&bytes).map_err(in_file("users.txt"))?,
        None => BTreeMap::new(),
    };
    let (tier1, tier2) = match read_opt("tiers.txt")? {
        Some(bytes) => parse_tiers(&bytes).map_err(in_file("tiers.txt"))?,
        None => (Vec::new(), Vec::new()),
    };
    Ok(LoadedDataset { public, truth, types, announced, users, tier1, tier2 })
}

/// Prefixes an error with the bundle file it came from.
fn in_file<E: fmt::Display>(name: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{name}: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetGenConfig;
    use crate::internet::generate;

    /// A fresh directory per call: tests run on parallel threads of one
    /// process, so the process id alone would hand two tests the same
    /// directory and let each delete the other's files.
    fn tmpdir() -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("flatnet-dataset-{}-{k}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn write_then_load_roundtrips() {
        let net = generate(&NetGenConfig::tiny(42));
        let dir = tmpdir();
        write_dataset(&net, &dir).unwrap();
        let loaded = load_dataset(&dir).unwrap();
        assert!(loaded.public.edges().eq(net.public().edges()));
        assert!(loaded.truth.as_ref().unwrap().edges().eq(net.truth.edges()));
        assert_eq!(loaded.tier1, net.tier1);
        assert_eq!(loaded.tier2, net.tier2);
        // Users match the meta (only >0 entries are stored).
        for m in &net.meta {
            assert_eq!(loaded.users.get(&m.asn.0).copied().unwrap_or(0), m.users, "{}", m.asn);
        }
        // Classifications and announcements round-trip.
        for m in &net.meta {
            assert_eq!(loaded.types.class(m.asn), Some(m.class));
        }
        assert_eq!(
            loaded.announced.iter().collect::<Vec<_>>(),
            net.addressing().resolver.announced.iter().collect::<Vec<_>>()
        );
        // Tiers bind.
        let tiers = loaded.tiers_for(&loaded.public);
        assert_eq!(tiers.tier1().len(), net.tier1.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn optional_files_may_be_absent() {
        let net = generate(&NetGenConfig::tiny(7));
        let dir = tmpdir();
        write_dataset(&net, &dir).unwrap();
        fs::remove_file(dir.join("as-rel-truth.txt")).unwrap();
        fs::remove_file(dir.join("users.txt")).unwrap();
        fs::remove_file(dir.join("tiers.txt")).unwrap();
        let loaded = load_dataset(&dir).unwrap();
        assert!(loaded.truth.is_none());
        assert!(loaded.users.is_empty());
        assert!(loaded.tier1.is_empty());
        // Required files really are required.
        fs::remove_file(dir.join("as-rel.txt")).unwrap();
        assert!(load_dataset(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parser_errors() {
        assert!(parse_users(b"x|1\n").is_err());
        assert!(parse_users(b"1,2\n").is_err());
        assert!(parse_users(b"1|x\n").is_err());
        assert_eq!(parse_users(b"# c\n\n5|10\n").unwrap()[&5], 10);
        assert!(parse_tiers(b"bogus=1\n").is_err());
        assert!(parse_tiers(b"tier1=x\n").is_err());
        assert!(parse_tiers(b"tier1 1,2\n").is_err());
        let (t1, t2) = parse_tiers(b"tier1=1, 2\ntier2=\n").unwrap();
        assert_eq!(t1, vec![AsId(1), AsId(2)]);
        assert!(t2.is_empty());
        assert_eq!(parse_tiers(b"# t\ntier1=1,x\n").unwrap_err(), "line 2: bad ASN \"x\"");
    }

    #[test]
    fn an_unreadable_optional_file_fails_the_load_and_names_itself() {
        let net = generate(&NetGenConfig::tiny(11));
        let dir = tmpdir();
        write_dataset(&net, &dir).unwrap();
        let mut users = fs::read(dir.join("users.txt")).unwrap();
        users.extend_from_slice(b"12|\xff\n");
        let bad_line = users.iter().filter(|&&b| b == b'\n').count();
        fs::write(dir.join("users.txt"), &users).unwrap();
        let err = load_dataset(&dir).unwrap_err();
        assert_eq!(err, format!("users.txt: line {bad_line}: not valid UTF-8"));

        write_dataset(&net, &dir).unwrap();
        fs::remove_file(dir.join("tiers.txt")).unwrap();
        fs::create_dir(dir.join("tiers.txt")).unwrap();
        let err = load_dataset(&dir).unwrap_err();
        assert!(err.starts_with("tiers.txt: "), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}

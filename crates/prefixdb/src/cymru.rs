//! Team Cymru-style IP→origin-ASN database over *globally announced*
//! prefixes.
//!
//! The real service answers "which origin AS announces the most specific
//! BGP prefix covering this IP?". Our database is fed either from synthetic
//! announcements (`flatnet-netgen`) or from a simple `prefix|asn` text dump,
//! and answers via longest-prefix match. Crucially for the paper's §5, this
//! database only knows **announced** space: IXP peering LANs that are not in
//! BGP miss here, and IXP LANs announced by the IXP's own AS resolve to the
//! IXP AS rather than the member AS — both failure modes the inference
//! pipeline must handle.

use crate::ipv4::Ipv4Prefix;
use crate::trie::PrefixTrie;
use flatnet_asgraph::ingest::{read_lines, ParseDiagnostics, ParseOptions};
use flatnet_asgraph::AsId;
use std::net::Ipv4Addr;

/// Longest-prefix-match database of announced prefixes and origin ASes.
#[derive(Debug, Clone, Default)]
pub struct AnnouncedDb {
    trie: PrefixTrie<AsId>,
}

impl AnnouncedDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of announced prefixes.
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.trie.len() == 0
    }

    /// Registers an announcement. Re-announcing the same prefix overwrites
    /// the origin (last one wins, as a route collector would converge).
    pub fn announce(&mut self, prefix: Ipv4Prefix, origin: AsId) {
        self.trie.insert(prefix, origin);
    }

    /// The origin AS of the most specific announced prefix covering `ip`.
    pub fn resolve(&self, ip: Ipv4Addr) -> Option<AsId> {
        self.trie.lookup(ip).map(|(_, &asn)| asn)
    }

    /// Iterates announcements in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Prefix, AsId)> + '_ {
        self.trie.iter().map(|(p, &asn)| (p, asn))
    }

    /// Parses a `prefix|asn` text dump (one per line, `#` comments).
    pub fn parse(bytes: &[u8]) -> Result<Self, String> {
        Self::parse_with(bytes, &ParseOptions::strict()).map(|(db, _)| db)
    }

    /// [`AnnouncedDb::parse`] with explicit strictness; lenient mode skips
    /// malformed lines (up to the error budget) and tallies them in the
    /// returned [`ParseDiagnostics`].
    pub fn parse_with(
        bytes: &[u8],
        opts: &ParseOptions,
    ) -> Result<(Self, ParseDiagnostics), String> {
        let mut db = Self::new();
        let diag = read_lines(bytes, opts, "prefixdb", |line| {
            let (prefix, origin) = Self::parse_line(line?)?;
            db.announce(prefix, origin);
            Ok(())
        })
        .map_err(|e| e.to_string())?;
        Ok((db, diag))
    }

    fn parse_line(line: &str) -> Result<(Ipv4Prefix, AsId), String> {
        let (pfx, asn) = line.split_once('|').ok_or("expected prefix|asn")?;
        let prefix = pfx.trim().parse::<Ipv4Prefix>().map_err(|e| e.to_string())?;
        let asn: u32 = asn.trim().parse().map_err(|e| format!("bad ASN: {e}"))?;
        Ok((prefix, AsId(asn)))
    }

    /// Serializes as `prefix|asn` lines (round-trips through [`AnnouncedDb::parse`]).
    pub fn write(&self) -> String {
        let mut out = String::from("# flatnet announced-prefix dump\n");
        for (p, asn) in self.iter() {
            out.push_str(&format!("{p}|{}\n", asn.0));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_asgraph::ingest::RecordLocation;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn resolves_most_specific_origin() {
        let mut db = AnnouncedDb::new();
        db.announce("10.0.0.0/8".parse().unwrap(), AsId(100));
        db.announce("10.1.0.0/16".parse().unwrap(), AsId(200));
        assert_eq!(db.resolve(ip("10.1.1.1")), Some(AsId(200)));
        assert_eq!(db.resolve(ip("10.2.1.1")), Some(AsId(100)));
        assert_eq!(db.resolve(ip("11.0.0.1")), None);
    }

    #[test]
    fn unannounced_ixp_space_misses() {
        // The NL-IX example from §4.1: 193.238.116.0/22 is NOT in BGP.
        let mut db = AnnouncedDb::new();
        db.announce("193.0.0.0/8".parse().unwrap(), AsId(3333));
        // The /8 covers it, so Cymru-style resolution gives the covering
        // announcement — the *wrong* AS for an IXP peering address. The
        // realistic case where nothing covers it:
        let empty = AnnouncedDb::new();
        assert_eq!(empty.resolve(ip("193.238.116.5")), None);
        // And the misleading case:
        assert_eq!(db.resolve(ip("193.238.116.5")), Some(AsId(3333)));
    }

    #[test]
    fn reannouncement_overwrites() {
        let mut db = AnnouncedDb::new();
        db.announce("10.0.0.0/8".parse().unwrap(), AsId(1));
        db.announce("10.0.0.0/8".parse().unwrap(), AsId(2));
        assert_eq!(db.len(), 1);
        assert_eq!(db.resolve(ip("10.0.0.1")), Some(AsId(2)));
    }

    #[test]
    fn parse_and_write_roundtrip() {
        let text = "# dump\n10.0.0.0/8|100\n192.0.2.0/24|65000\n";
        let db = AnnouncedDb::parse(text.as_bytes()).unwrap();
        assert_eq!(db.len(), 2);
        let db2 = AnnouncedDb::parse(db.write().as_bytes()).unwrap();
        assert_eq!(db.iter().collect::<Vec<_>>(), db2.iter().collect::<Vec<_>>());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(AnnouncedDb::parse(b"10.0.0.0/8\n").is_err());
        assert!(AnnouncedDb::parse(b"10.0.0.0/99|1\n").is_err());
        assert!(AnnouncedDb::parse(b"10.0.0.0/8|asn\n").is_err());
    }

    #[test]
    fn lenient_parse_skips_and_counts_bad_lines() {
        let text = b"10.0.0.0/8|100\nnot-a-line\n10.0.0.0/99|1\n192.0.2.0/24|65000\n";
        let (db, diag) = AnnouncedDb::parse_with(text, &ParseOptions::lenient()).unwrap();
        assert_eq!(diag.dropped(), 2, "{:?}", diag.issues);
        assert_eq!(diag.records_ok, 2);
        assert_eq!(db.len(), 2);
        assert_eq!(diag.issues[0].location, RecordLocation::Line(2));
        assert_eq!(diag.issues[1].location, RecordLocation::Line(3));
        // Strict fails at the first bad line.
        let err = AnnouncedDb::parse_with(text, &ParseOptions::strict()).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        // An exhausted budget aborts even in lenient mode.
        let err = AnnouncedDb::parse_with(text, &ParseOptions::lenient().with_max_errors(1))
            .unwrap_err();
        assert!(err.contains("error budget exhausted"), "{err}");
    }

    #[test]
    fn a_lenient_tally_names_its_line_once() {
        let opts = ParseOptions::lenient().with_max_errors(1);
        let (_, diag) = AnnouncedDb::parse_with(b"10.0.0.0/8|1\nbogus\n", &opts).unwrap();
        assert_eq!(diag.issues[0].to_string(), "line 2: expected prefix|asn");
        let text = b"10.0.0.0/8|1\nbogus\n10.0.0.0/16|x\n";
        let err = AnnouncedDb::parse_with(text, &opts).unwrap_err();
        assert_eq!(
            err,
            "line 3: error budget exhausted after 2 malformed records (max 1); \
             last: line 3: bad ASN: invalid digit found in string"
        );
    }
}

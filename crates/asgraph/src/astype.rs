//! AS type classification (content / transit / access / enterprise).
//!
//! §4.3 of the paper: "CAIDA classifies AS into three types: content,
//! transit/access, or enterprise. If CAIDA identifies an AS as
//! transit/access and the AS has users in the APNIC dataset, we classify it
//! as access." This module models both the raw CAIDA classes and the
//! paper's user-refined four-way split used in Figures 3 and 4.

use crate::error::GraphError;
use crate::graph::AsId;
use crate::ingest::{read_lines, ParseOptions};
use std::collections::BTreeMap;

/// The raw three-way class from CAIDA's `as2types` dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaidaClass {
    /// Hosts/serves content.
    Content,
    /// Sells transit and/or serves end users.
    TransitAccess,
    /// Self-contained organization network.
    Enterprise,
}

/// The paper's refined four-way AS type (§4.3, Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AsType {
    /// Content/hosting network.
    Content,
    /// Transit provider without measurable end users.
    Transit,
    /// Eyeball network: transit/access class *with* APNIC-visible users.
    Access,
    /// Enterprise network.
    Enterprise,
}

impl AsType {
    /// All four types in the order the paper's Fig. 4 stacks them.
    pub const ALL: [AsType; 4] = [AsType::Content, AsType::Transit, AsType::Access, AsType::Enterprise];
}

/// Applies the paper's refinement rule to one AS.
///
/// `users` is the APNIC-style estimated user count for the AS (0 when the AS
/// does not appear in the population dataset).
pub fn refine(class: CaidaClass, users: u64) -> AsType {
    match class {
        CaidaClass::Content => AsType::Content,
        CaidaClass::Enterprise => AsType::Enterprise,
        CaidaClass::TransitAccess => {
            if users > 0 {
                AsType::Access
            } else {
                AsType::Transit
            }
        }
    }
}

/// A per-AS type database, typically parsed from a CAIDA `as2types` file and
/// refined with user populations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AsTypeDb {
    classes: BTreeMap<u32, CaidaClass>,
}

impl AsTypeDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets (or overwrites) the class for an AS.
    pub fn insert(&mut self, asn: AsId, class: CaidaClass) {
        self.classes.insert(asn.0, class);
    }

    /// Raw CAIDA class of an AS.
    pub fn class(&self, asn: AsId) -> Option<CaidaClass> {
        self.classes.get(&asn.0).copied()
    }

    /// Parses a CAIDA `as2types` file: `asn|source|type` lines where type is
    /// `Content`, `Enterprise`, or `Transit/Access`; `#` comments allowed.
    /// Strict: the first malformed line is the error.
    pub fn parse(bytes: &[u8]) -> Result<Self, GraphError> {
        let mut db = Self::new();
        read_lines(bytes, &ParseOptions::strict(), "as2types", |line| {
            let mut parts = line?.split('|');
            let asn = parts.next().ok_or("missing ASN")?.trim();
            let asn: u32 = asn.parse().map_err(|e| format!("bad ASN: {e}"))?;
            let _source = parts.next().ok_or("missing source field")?;
            let class = match parts.next().ok_or("missing type field")?.trim() {
                "Content" => CaidaClass::Content,
                "Enterprise" => CaidaClass::Enterprise,
                "Transit/Access" => CaidaClass::TransitAccess,
                other => return Err(format!("unknown AS type {other:?}").into()),
            };
            db.insert(AsId(asn), class);
            Ok(())
        })?;
        Ok(db)
    }

    /// Serializes in `as2types` format (round-trips through [`AsTypeDb::parse`]).
    pub fn write(&self) -> String {
        let mut out = String::from("# flatnet as2types export\n");
        for (&asn, &class) in &self.classes {
            let ty = match class {
                CaidaClass::Content => "Content",
                CaidaClass::Enterprise => "Enterprise",
                CaidaClass::TransitAccess => "Transit/Access",
            };
            out.push_str(&format!("{asn}|flatnet|{ty}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refinement_rule_matches_paper() {
        assert_eq!(refine(CaidaClass::Content, 0), AsType::Content);
        assert_eq!(refine(CaidaClass::Content, 10), AsType::Content);
        assert_eq!(refine(CaidaClass::Enterprise, 10), AsType::Enterprise);
        assert_eq!(refine(CaidaClass::TransitAccess, 0), AsType::Transit);
        assert_eq!(refine(CaidaClass::TransitAccess, 1), AsType::Access);
    }

    #[test]
    fn parses_as2types() {
        let text = "# comment\n1|CAIDA_class|Content\n2|CAIDA_class|Transit/Access\n3|CAIDA_class|Enterprise\n";
        let db = AsTypeDb::parse(text.as_bytes()).unwrap();
        assert_eq!(db.classes.len(), 3);
        assert_eq!(db.class(AsId(1)), Some(CaidaClass::Content));
        assert_eq!(db.class(AsId(2)), Some(CaidaClass::TransitAccess));
        assert_eq!(db.class(AsId(3)), Some(CaidaClass::Enterprise));
    }

    #[test]
    fn rejects_unknown_type() {
        let err = AsTypeDb::parse("1|x|Potato\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown AS type"));
    }

    #[test]
    fn rejects_missing_fields() {
        assert!(AsTypeDb::parse("1|x\n".as_bytes()).is_err());
        assert!(AsTypeDb::parse("abc|x|Content\n".as_bytes()).is_err());
    }

    #[test]
    fn roundtrips() {
        let mut db = AsTypeDb::new();
        db.insert(AsId(10), CaidaClass::Content);
        db.insert(AsId(20), CaidaClass::TransitAccess);
        db.insert(AsId(30), CaidaClass::Enterprise);
        let text = db.write();
        let db2 = AsTypeDb::parse(text.as_bytes()).unwrap();
        assert_eq!(db, db2);
    }

    #[test]
    fn all_types_ordered_for_reports() {
        use AsType::*;
        assert_eq!(AsType::ALL, [Content, Transit, Access, Enterprise]);
    }
}

//! Router hostname conventions: generation, learning, and location
//! extraction.
//!
//! §4.2: router hostnames "often encode location information hints such as
//! airport code or other abbreviations" (e.g. NTT routers live under
//! `gin.ntt.net` with tokens like `ae-5.r20.amstnl02`). The paper extracts
//! locations two ways — hand-written regexes per AS, and `sc_hoiho`-style
//! learned naming conventions — and reports that both agreed. We model a
//! convention as *(domain suffix, token position, code style)*: enough to
//! generate realistic hostnames in the synthetic Internet and to learn the
//! convention back from samples.

use std::collections::BTreeMap;

/// A known (or generated) router hostname convention for one network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostnameConvention {
    /// DNS suffix, e.g. `"gin.ntt.net"`.
    pub domain: String,
    /// Index (from the left) of the dot-separated token carrying the city
    /// code.
    pub code_token: usize,
}

impl HostnameConvention {
    /// A convention under the given domain with the code in token `idx`.
    pub fn new(domain: impl Into<String>, code_token: usize) -> Self {
        HostnameConvention { domain: domain.into(), code_token }
    }

    /// Renders a router hostname: interface token(s) first, the city token
    /// (`code` + unit number) at `code_token`, then the domain.
    ///
    /// With `code_token == 1`: `xe-0-1-0.ams2.gin.ntt.net`.
    pub fn hostname(&self, iface: &str, code: &str, unit: u32) -> String {
        let mut tokens: Vec<String> = Vec::new();
        tokens.push(iface.to_string());
        // Pad with router-role tokens until the code position.
        while tokens.len() < self.code_token {
            tokens.push(format!("r{}", tokens.len()));
        }
        tokens.push(format!("{code}{unit}"));
        format!("{}.{}", tokens.join("."), self.domain)
    }

    /// Extracts the city code from a hostname following this convention.
    /// Returns `None` when the domain does not match, the token is missing,
    /// or the token does not look like `code + digits` with a known code.
    pub fn extract<'c>(&self, hostname: &str, known_codes: &'c [&str]) -> Option<&'c str> {
        let prefix = hostname.strip_suffix(&self.domain)?.strip_suffix('.')?;
        let tokens: Vec<&str> = prefix.split('.').collect();
        let token = tokens.get(self.code_token)?;
        extract_code(token, known_codes)
    }
}

/// Checks whether `token` is `<code><digits>` for a known code.
fn extract_code<'c>(token: &str, known_codes: &'c [&str]) -> Option<&'c str> {
    if token.len() < 3 {
        return None;
    }
    let (head, tail) = token.split_at(3);
    if !tail.chars().all(|c| c.is_ascii_digit()) {
        return None;
    }
    known_codes.iter().find(|&&c| c == head).copied()
}

/// A naming convention learned from samples, `sc_hoiho` style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LearnedConvention {
    /// The underlying convention (domain + token position).
    pub convention: HostnameConvention,
    /// How many samples supported it.
    pub support: usize,
}

impl LearnedConvention {
    /// Learns a convention from `(hostname, true city code)` samples.
    ///
    /// Finds the most common *(domain suffix, token index)* pair for which
    /// the token at that index is `code + digits` with the sample's true
    /// code. Requires at least `min_support` agreeing samples (the paper's
    /// `sc_hoiho` similarly failed on ASes with too few alias groups).
    pub fn learn(samples: &[(String, String)], min_support: usize) -> Option<LearnedConvention> {
        let mut votes: BTreeMap<(String, usize), usize> = BTreeMap::new();
        for (hostname, code) in samples {
            let tokens: Vec<&str> = hostname.split('.').collect();
            if tokens.len() < 2 {
                continue;
            }
            for i in 0..tokens.len().saturating_sub(1) {
                let token = tokens[i];
                if token.len() >= 3 {
                    let (head, tail) = token.split_at(3);
                    if head == code && tail.chars().all(|c| c.is_ascii_digit()) {
                        let domain = tokens[i + 1..].join(".");
                        *votes.entry((domain, i)).or_insert(0) += 1;
                    }
                }
            }
        }
        let ((domain, idx), support) = votes.into_iter().max_by_key(|&(_, v)| v)?;
        if support < min_support {
            return None;
        }
        Some(LearnedConvention {
            convention: HostnameConvention::new(domain, idx),
            support,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CODES: &[&str] = &["ams", "fra", "lon", "nyc", "sjc"];

    #[test]
    fn generates_and_extracts_roundtrip() {
        let conv = HostnameConvention::new("gin.ntt.net", 1);
        let h = conv.hostname("xe-0-1-0", "ams", 2);
        assert_eq!(h, "xe-0-1-0.ams2.gin.ntt.net");
        assert_eq!(conv.extract(&h, CODES), Some("ams"));
    }

    #[test]
    fn code_token_deeper_positions_pad_role_tokens() {
        let conv = HostnameConvention::new("example.net", 2);
        let h = conv.hostname("ae1", "fra", 7);
        assert_eq!(h, "ae1.r1.fra7.example.net");
        assert_eq!(conv.extract(&h, CODES), Some("fra"));
    }

    #[test]
    fn extraction_rejects_wrong_domain_or_unknown_code() {
        let conv = HostnameConvention::new("gin.ntt.net", 1);
        assert_eq!(conv.extract("xe-0.ams2.other.net", CODES), None);
        assert_eq!(conv.extract("xe-0.zzz2.gin.ntt.net", CODES), None);
        assert_eq!(conv.extract("xe-0.amsx.gin.ntt.net", CODES), None); // non-digit tail
        assert_eq!(conv.extract("gin.ntt.net", CODES), None);
    }

    #[test]
    fn learns_convention_from_samples() {
        let conv = HostnameConvention::new("core.example.org", 1);
        let samples: Vec<(String, String)> = [("ams", 1), ("fra", 2), ("lon", 3), ("ams", 4)]
            .iter()
            .map(|&(code, unit)| (conv.hostname("xe-0", code, unit), code.to_string()))
            .collect();
        let learned = LearnedConvention::learn(&samples, 3).unwrap();
        assert_eq!(learned.convention, conv);
        assert_eq!(learned.support, 4);
        // The learned convention extracts codes from fresh hostnames.
        let fresh = conv.hostname("ae9", "nyc", 1);
        assert_eq!(learned.convention.extract(&fresh, CODES), Some("nyc"));
    }

    #[test]
    fn learning_fails_below_min_support() {
        let conv = HostnameConvention::new("x.net", 1);
        let samples = vec![(conv.hostname("a", "ams", 1), "ams".to_string())];
        assert!(LearnedConvention::learn(&samples, 3).is_none());
        assert!(LearnedConvention::learn(&[], 1).is_none());
    }

    #[test]
    fn learning_ignores_non_conforming_samples() {
        let conv = HostnameConvention::new("y.net", 1);
        let mut samples: Vec<(String, String)> = (0..5)
            .map(|u| (conv.hostname("xe", "lon", u), "lon".to_string()))
            .collect();
        samples.push(("randomhost".to_string(), "ams".to_string()));
        samples.push(("no-code.here.y.net".to_string(), "fra".to_string()));
        let learned = LearnedConvention::learn(&samples, 3).unwrap();
        assert_eq!(learned.support, 5);
        assert_eq!(learned.convention.domain, "y.net");
    }
}

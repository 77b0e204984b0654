//! Minimal flag parsing (no external dependencies, per the workspace's
//! crate policy).

use flatnet_asgraph::AsId;
use std::collections::BTreeMap;

/// Parsed `--flag value` pairs plus boolean switches.
#[derive(Debug, Default)]
pub(crate) struct Opts {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Opts {
    /// Parses `args`. Flags start with `--`; `known_switches` are boolean,
    /// everything else must be in `known_values` and take a value.
    /// Positional arguments and unknown flags are rejected — a typo'd
    /// `--lenient` or `--validate` must not silently degrade to defaults.
    pub(crate) fn parse(
        args: &[String],
        known_switches: &[&str],
        known_values: &[&str],
    ) -> Result<Opts, String> {
        let mut opts = Opts::default();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {a:?}"));
            };
            if known_switches.contains(&name) {
                opts.switches.push(name.to_string());
                i += 1;
                continue;
            }
            if !known_values.contains(&name) {
                return Err(format!("unknown flag --{name} (see `flatnet help`)"));
            }
            let Some(value) = args.get(i + 1) else {
                return Err(format!("flag --{name} needs a value"));
            };
            if value.starts_with("--") {
                return Err(format!("flag --{name} needs a value, got {value:?}"));
            }
            opts.values.insert(name.to_string(), value.clone());
            i += 2;
        }
        Ok(opts)
    }

    /// A required string value.
    pub(crate) fn required(&self, name: &str) -> Result<&str, String> {
        self.values
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// An optional string value.
    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// An optional parsed number with a default.
    pub(crate) fn num_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad number {v:?}")),
        }
    }

    /// Whether a boolean switch was given.
    pub(crate) fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// A comma-separated AS list, if present.
    pub(crate) fn as_list(&self, name: &str) -> Result<Option<Vec<AsId>>, String> {
        let Some(v) = self.values.get(name) else { return Ok(None) };
        let mut out = Vec::new();
        for part in v.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let asn = flatnet_wire::http::parse_asn(part)
                .ok_or_else(|| format!("--{name}: bad ASN {part:?}"))?;
            out.push(AsId(asn));
        }
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_values_and_switches() {
        let o = Opts::parse(
            &argv(&["--as-rel", "f.txt", "--initial", "--top", "5"]),
            &["initial"],
            &["as-rel", "top"],
        )
        .unwrap();
        assert_eq!(o.required("as-rel").unwrap(), "f.txt");
        assert!(o.switch("initial"));
        assert_eq!(o.num_or("top", 20usize).unwrap(), 5);
        assert_eq!(o.num_or("missing", 7u64).unwrap(), 7);
        assert!(o.get("nope").is_none());
    }

    #[test]
    fn as_lists() {
        let o = Opts::parse(&argv(&["--tier1", "3356, AS174,1299"]), &[], &["tier1"]).unwrap();
        let t1 = o.as_list("tier1").unwrap().unwrap();
        assert_eq!(t1, vec![AsId(3356), AsId(174), AsId(1299)]);
        assert_eq!(o.as_list("tier2").unwrap(), None);
        let bad = Opts::parse(&argv(&["--tier1", "x"]), &[], &["tier1"]).unwrap();
        assert!(bad.as_list("tier1").is_err());
    }

    #[test]
    fn as_list_reads_asn_tokens_as_the_daemon_does() {
        let o = Opts::parse(&argv(&["--origin", "as10,AS10,10"]), &[], &["origin"]).unwrap();
        assert_eq!(o.as_list("origin").unwrap().unwrap(), vec![AsId(10); 3]);
        let bad = Opts::parse(&argv(&["--origin", "x10"]), &[], &["origin"]).unwrap();
        assert_eq!(bad.as_list("origin").unwrap_err(), "--origin: bad ASN \"x10\"");
    }

    #[test]
    fn rejects_malformed() {
        let any = &["flag", "a", "top"][..];
        assert!(Opts::parse(&argv(&["positional"]), &[], any).is_err());
        assert!(Opts::parse(&argv(&["--flag"]), &[], any).is_err());
        assert!(Opts::parse(&argv(&["--a", "--b"]), &[], any).is_err());
        let o = Opts::parse(&argv(&["--top", "x"]), &[], any).unwrap();
        assert!(o.num_or("top", 1usize).is_err());
        assert!(o.required("missing").is_err());
    }

    #[test]
    fn rejects_unknown_flags() {
        let err = Opts::parse(&argv(&["--bogus", "x"]), &["lenient"], &["as-rel"]).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        // A typo'd switch is caught, not silently treated as a value flag.
        let err =
            Opts::parse(&argv(&["--leniant"]), &["lenient"], &["as-rel"]).unwrap_err();
        assert!(err.contains("--leniant"), "{err}");
    }
}

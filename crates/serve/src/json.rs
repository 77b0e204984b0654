//! The `/v1` envelope and number formatting the serve crate writes its
//! response documents with. Reading JSON — `POST` bodies here, response
//! documents in the tests — is `flatnet-wire`'s; its tree view and
//! string escaping are re-exported so `serve::json` stays the one path
//! callers import.

pub use flatnet_wire::json::{escape, parse, Json};

/// Formats a float for the response documents: integers print without a
/// fraction, everything else with six significant decimals — enough for
/// fractions of an AS population, and deterministic across platforms.
pub fn fmt_f64(x: f64) -> String {
    Num(x).to_string()
}

/// A float in [`fmt_f64`]'s format, written straight into a `write!`
/// target — for renderers that emit many numbers.
pub(crate) struct Num(pub f64);

impl std::fmt::Display for Num {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let x = self.0;
        if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
            write!(f, "{}", x as i64)
        } else {
            write!(f, "{x:.6}")
        }
    }
}

/// The schema tag every `/v1` envelope carries.
pub(crate) const SCHEMA: &str = "flatnet-serve/v1";

/// The framing every `/v1` envelope opens with — schema tag, the
/// snapshot version the answer was computed against, and the request's
/// trace id (hex, correlating with `/debug/trace/*`) — up to and
/// including the comma after it. Success and error envelopes append
/// their `data` or `error` member; the router's partial envelope puts a
/// `router` member before its `data`.
pub fn envelope_head(version: u64, trace_id: u64) -> String {
    format!("{{\"schema\":\"{SCHEMA}\",\"snapshot_version\":{version},\"trace_id\":\"{trace_id:016x}\",")
}

/// The success envelope's [`envelope_head`] up to and including the
/// `"data":` key. Callers append the data object and the closing `}`.
pub fn envelope_prefix(version: u64, trace_id: u64) -> String {
    let mut out = envelope_head(version, trace_id);
    out.push_str("\"data\":");
    out
}

/// Wraps a rendered data object in the success envelope:
/// `{"schema":…,"snapshot_version":…,"trace_id":…,"data":{…}}`.
pub fn envelope(version: u64, trace_id: u64, data: &str) -> String {
    format!("{}{data}}}\n", envelope_prefix(version, trace_id))
}

/// The failure envelope: same framing fields, but an `error` member
/// carrying a machine-readable `kind` and a human-readable `message`
/// instead of `data`.
pub(crate) fn error_envelope(version: u64, trace_id: u64, kind: &str, message: &str) -> String {
    format!(
        "{}\"error\":{{\"kind\":\"{}\",\"message\":\"{}\"}}}}\n",
        envelope_head(version, trace_id),
        escape(kind),
        escape(message),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelopes_parse_back() {
        let ok = envelope(3, 0xabcd, "{\"x\":1}");
        let doc = parse(ok.trim()).unwrap();
        assert_eq!(doc.get("snapshot_version").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("trace_id").unwrap().as_str(), Some("000000000000abcd"));
        assert_eq!(doc.get("data").unwrap().get("x").unwrap().as_u64(), Some(1));

        let err = error_envelope(3, 1, "bad-request", "broken \"quote\"");
        let doc = parse(err.trim()).unwrap();
        assert!(doc.get("data").is_none());
        assert_eq!(doc.get("error").unwrap().get("kind").unwrap().as_str(), Some("bad-request"));
        assert_eq!(
            doc.get("error").unwrap().get("message").unwrap().as_str(),
            Some("broken \"quote\"")
        );
    }

    #[test]
    fn floats_format_deterministically() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(0.25), "0.250000");
    }
}

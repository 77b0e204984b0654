//! Text-level JSON surgery for bit-identical envelope merging.
//!
//! The router's contract is that a scatter-gathered batch response is
//! **byte-identical in `data`** to what a single `flatnet serve`
//! process would have produced. Re-parsing and re-serializing shard
//! responses would have to reproduce every formatting choice of the
//! serve crate (float formatting, key order, escaping); instead the
//! router never re-renders what a shard rendered — it slices member and
//! array-element texts out of shard bodies verbatim and splices them
//! back together. The slicing is `flatnet-wire`'s span view (re-exported
//! here), which respects strings, escapes, and nesting, and refuses
//! malformed input instead of guessing; this module holds what is
//! specific to the `/v1` envelope.

use flatnet_wire::json::members;
pub use flatnet_wire::json::{array_items, member, member_str, member_u64};

/// The `data` member of a `/v1` envelope body, verbatim.
pub fn envelope_data(body: &str) -> Option<&str> {
    member(body, "data")
}

/// The `error.kind` of a `/v1` error envelope body.
pub fn envelope_error_kind(body: &str) -> Option<&str> {
    member_str(member(body, "error")?, "kind")
}

/// Rebuilds a batch `data` object from a shard's `data` text, replacing
/// the `results` array with `merged_results` (already rendered, comma
/// separated) and the `batch` count with `batch`. Every other member —
/// `endpoint`, `exclude`, whatever future fields shards grow — is
/// copied verbatim, which is what keeps the merged document
/// byte-identical to a single process's rendering.
pub fn rebuild_batch_data(
    template_data: &str,
    merged_results: &str,
    batch: usize,
) -> Result<String, String> {
    let mut out = String::with_capacity(template_data.len() + merged_results.len());
    out.push('{');
    let mut first = true;
    for (key, value) in members(template_data)? {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        out.push_str(key);
        out.push_str("\":");
        match key {
            "results" => {
                out.push('[');
                out.push_str(merged_results);
                out.push(']');
            }
            "batch" => out.push_str(&batch.to_string()),
            _ => out.push_str(value),
        }
    }
    out.push('}');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_wire::json::value_end;

    const ENVELOPE: &str = "{\"schema\":\"flatnet-serve/v1\",\"snapshot_version\":3,\
        \"trace_id\":\"00000000deadbeef\",\"data\":{\"endpoint\":\"reachability\",\
        \"exclude\":[\"providers\"],\"batch\":2,\"results\":[{\"origin\":1,\"pct\":99.5},\
        {\"origin\":2,\"s\":\"a,]}\\\"b\"}]}}\n";

    #[test]
    fn slices_members_verbatim() {
        let data = envelope_data(ENVELOPE).unwrap();
        assert!(data.starts_with("{\"endpoint\""));
        assert_eq!(member(data, "endpoint"), Some("\"reachability\""));
        assert_eq!(member(data, "exclude"), Some("[\"providers\"]"));
        assert_eq!(member_u64(data, "batch"), Some(2));
        let items = array_items(member(data, "results").unwrap()).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0], "{\"origin\":1,\"pct\":99.5}");
        // Strings containing delimiters and escapes don't confuse the scan.
        assert_eq!(items[1], "{\"origin\":2,\"s\":\"a,]}\\\"b\"}");
    }

    #[test]
    fn rebuilds_with_replacements() {
        let data = envelope_data(ENVELOPE).unwrap();
        let rebuilt = rebuild_batch_data(data, "{\"origin\":7}", 1).unwrap();
        assert_eq!(
            rebuilt,
            "{\"endpoint\":\"reachability\",\"exclude\":[\"providers\"],\
             \"batch\":1,\"results\":[{\"origin\":7}]}"
        );
    }

    #[test]
    fn identity_rebuild_is_byte_identical() {
        let data = envelope_data(ENVELOPE).unwrap();
        let items = array_items(member(data, "results").unwrap()).unwrap();
        let rebuilt = rebuild_batch_data(data, &items.join(","), 2).unwrap();
        assert_eq!(rebuilt, data);
    }

    #[test]
    fn error_kind_extraction() {
        let body = "{\"schema\":\"flatnet-serve/v1\",\"snapshot_version\":0,\
            \"trace_id\":\"0000000000000001\",\"error\":{\"kind\":\"backoff\",\
            \"message\":\"x\"}}\n";
        assert_eq!(envelope_error_kind(body), Some("backoff"));
        assert_eq!(envelope_data(body), None);
    }

    #[test]
    fn rejects_malformed() {
        assert!(members("[1]").is_err());
        assert!(members("{\"a\":1").is_err());
        assert!(array_items("{\"a\":1}").is_err());
        assert!(value_end(b"\"unterminated", 0).is_err());
    }
}

//! Shared fault-tolerant ingestion primitives.
//!
//! Real measurement data — CAIDA relationship files, MRT RIBs, scamper
//! text and warts archives, prefix-origin feeds — is dirty. Every
//! loader in the workspace accepts a [`ParseOptions`] deciding what to
//! do about that:
//!
//! * **strict** (the default, and the historical behaviour): the first
//!   malformed record aborts the parse with that record's error.
//! * **lenient**: malformed records are skipped and tallied in a
//!   [`ParseDiagnostics`], up to a bounded error budget
//!   ([`ParseOptions::max_errors`]); blowing the budget aborts the
//!   parse, so a fundamentally broken input cannot silently degrade
//!   into an empty dataset.
//!
//! Binary formats can only skip a record when the stream can be
//! resynchronized (the record's length is known); framing-level
//! corruption stays fatal in both modes.

use std::fmt;

/// Where in the input a malformed record was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordLocation {
    /// 1-based line number (text formats).
    Line(usize),
    /// Byte offset (binary formats).
    Byte(usize),
    /// 0-based record ordinal (framed formats).
    Record(usize),
}

impl fmt::Display for RecordLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordLocation::Line(n) => write!(f, "line {n}"),
            RecordLocation::Byte(n) => write!(f, "byte {n}"),
            RecordLocation::Record(n) => write!(f, "record {n}"),
        }
    }
}

/// One skipped record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIssue {
    /// Where the record was.
    pub location: RecordLocation,
    /// Why it was dropped.
    pub message: String,
}

impl fmt::Display for ParseIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.location, self.message)
    }
}

/// Strictness and error budget for a single parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseOptions {
    /// Fail on the first malformed record (historical behaviour).
    pub strict: bool,
    /// In lenient mode, the number of malformed records tolerated
    /// before the parse aborts anyway.
    pub max_errors: usize,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions::strict()
    }
}

impl ParseOptions {
    /// Abort on the first malformed record.
    pub fn strict() -> Self {
        ParseOptions { strict: true, max_errors: 0 }
    }

    /// Skip malformed records, tolerating up to 1000 of them.
    pub fn lenient() -> Self {
        ParseOptions { strict: false, max_errors: 1000 }
    }

    /// Same mode with a different error budget.
    pub fn with_max_errors(mut self, max_errors: usize) -> Self {
        self.max_errors = max_errors;
        self
    }

    /// Whether a parse that has already dropped `dropped` records may
    /// drop one more.
    fn budget_allows(&self, dropped: usize) -> bool {
        !self.strict && dropped < self.max_errors
    }

    /// Standard message for an exhausted error budget.
    fn budget_exhausted_message(&self, last: &ParseIssue) -> String {
        format!(
            "error budget exhausted after {} malformed records (max {}); last: {}",
            self.max_errors + 1,
            self.max_errors,
            last
        )
    }
}

/// Tally of what a lenient parse dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParseDiagnostics {
    /// Records parsed successfully.
    pub records_ok: usize,
    /// Malformed records that were skipped.
    pub issues: Vec<ParseIssue>,
}

impl ParseDiagnostics {
    /// A clean slate.
    pub fn new() -> Self {
        ParseDiagnostics::default()
    }

    /// Notes one good record.
    pub fn record_ok(&mut self) {
        self.records_ok += 1;
    }

    /// Notes one skipped record.
    pub fn record_dropped(&mut self, location: RecordLocation, message: impl Into<String>) {
        self.issues.push(ParseIssue { location, message: message.into() });
    }

    /// The lenient-ingest rule, for every loader: what to do about the
    /// record at `location` that failed to parse with `err`. `Ok` means
    /// it was dropped and tallied and the parse goes on. `Err` ends the
    /// parse: with the record's own error when `opts` is strict, or, when
    /// this record is the one that exhausts the budget, with the budget
    /// text (the record tallied all the same) wrapped into the loader's
    /// error type by `exhausted`.
    pub fn malformed<E: fmt::Display>(
        &mut self,
        opts: &ParseOptions,
        location: RecordLocation,
        err: E,
        exhausted: impl FnOnce(String) -> E,
    ) -> Result<(), E> {
        if opts.strict {
            return Err(err);
        }
        let within_budget = opts.budget_allows(self.dropped());
        self.record_dropped(location, err.to_string());
        if within_budget {
            return Ok(());
        }
        let last = self.issues.last().expect("tallied just above");
        Err(exhausted(opts.budget_exhausted_message(last)))
    }

    /// Number of records dropped.
    pub fn dropped(&self) -> usize {
        self.issues.len()
    }

    /// True if nothing was dropped.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Publishes this tally to the global metric registry under the shared
    /// `parse.<format>.records_ok` / `parse.<format>.records_dropped`
    /// counter names. Parsers call this once per completed parse.
    pub fn publish(&self, format: &str) {
        flatnet_obs::record_parse(format, self.records_ok as u64, self.dropped() as u64);
    }

    /// One-line human summary, e.g. for CLI output.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!("{} records, no errors", self.records_ok)
        } else {
            format!(
                "{} records ok, {} dropped (first: {})",
                self.records_ok,
                self.dropped(),
                self.issues[0]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_never_allows_drops() {
        let o = ParseOptions::strict();
        assert!(!o.budget_allows(0));
        assert!(o.strict);
    }

    #[test]
    fn lenient_budget_is_bounded() {
        let o = ParseOptions::lenient().with_max_errors(2);
        assert!(o.budget_allows(0));
        assert!(o.budget_allows(1));
        assert!(!o.budget_allows(2));
    }

    #[test]
    fn diagnostics_tally_and_summarize() {
        let mut d = ParseDiagnostics::new();
        d.record_ok();
        d.record_ok();
        assert!(d.is_clean());
        assert_eq!(d.summary(), "2 records, no errors");
        d.record_dropped(RecordLocation::Line(7), "bad ASN");
        assert_eq!(d.dropped(), 1);
        assert_eq!(d.records_ok, 2);
        let s = d.summary();
        assert!(s.contains("2 records ok") && s.contains("1 dropped") && s.contains("line 7"), "{s}");
    }

    #[test]
    fn locations_render() {
        assert_eq!(RecordLocation::Line(3).to_string(), "line 3");
        assert_eq!(RecordLocation::Byte(12).to_string(), "byte 12");
        assert_eq!(RecordLocation::Record(0).to_string(), "record 0");
    }
}

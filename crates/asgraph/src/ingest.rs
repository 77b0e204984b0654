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
//!
//! Every binary input (MRT, warts, the store's section payloads) is read
//! through one [`ByteReader`]: each read is bounds-checked with checked
//! arithmetic, and every [`ByteError`] names the absolute byte offset it
//! was detected at, however deep in a record it was. The framed formats
//! share one record loop, [`read_framed`], which makes the one
//! length-against-remaining check and applies the lenient rule above.
//!
//! Every text input is read by its twin, [`read_lines`]: one rule for
//! what a line is and which lines are data, for every text format.

use std::fmt;

/// Where in the input a malformed record was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordLocation {
    /// 1-based line number (text formats).
    Line(usize),
    /// 0-based record ordinal (framed formats).
    Record(usize),
}

impl fmt::Display for RecordLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordLocation::Line(n) => write!(f, "line {n}"),
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
    pub(crate) fn new() -> Self {
        ParseDiagnostics::default()
    }

    /// Notes one good record.
    pub(crate) fn record_ok(&mut self) {
        self.records_ok += 1;
    }

    /// Notes one skipped record.
    pub(crate) fn record_dropped(&mut self, location: RecordLocation, message: impl Into<String>) {
        self.issues.push(ParseIssue { location, message: message.into() });
    }

    /// The lenient-ingest rule, for every loader: what to do about the
    /// record at `location` that failed to parse with `err`. `Ok` means
    /// it was dropped and tallied and the parse goes on. `Err` ends the
    /// parse: with the record's own error when `opts` is strict, or, when
    /// this record is the one that exhausts the budget, with the budget
    /// text (the record tallied all the same) wrapped into the loader's
    /// error type by `exhausted`.
    pub(crate) fn malformed<E: fmt::Display>(
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
    pub(crate) fn publish(&self, format: &str) {
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

/// A decode error in a binary input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteError {
    /// The format being read, as its messages name it (`"MRT"`, `"warts"`).
    pub format: &'static str,
    /// Byte offset, from the start of the input, the error was detected at.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ByteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} parse error at byte {}: {}", self.format, self.offset, self.message)
    }
}

impl std::error::Error for ByteError {}

/// A bounds-checked reader over a binary input. No read can panic or
/// read out of bounds: a short input is a [`ByteError`] naming what was
/// missing. Byte order is the method's, as it is the format's.
#[derive(Debug)]
pub struct ByteReader<'a> {
    format: &'static str,
    data: &'a [u8],
    pos: usize,
    /// Absolute offset of `data[0]`, so a [`ByteReader::sub`] reader's
    /// errors name the byte in the whole input.
    base: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over the whole of `data`, a `format` input.
    pub fn new(format: &'static str, data: &'a [u8]) -> Self {
        ByteReader { format, data, pos: 0, base: 0 }
    }

    /// Absolute offset of the next byte.
    fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// Bytes left to read.
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether everything was read.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// An error at the next byte.
    pub fn err(&self, message: impl Into<String>) -> ByteError {
        self.err_last(0, message)
    }

    /// An error at the first of the last `width` bytes read: the field
    /// that was read whole but failed its check.
    pub fn err_last(&self, width: usize, message: impl Into<String>) -> ByteError {
        ByteError { format: self.format, offset: self.offset() - width, message: message.into() }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ByteError> {
        let Some(end) = self.pos.checked_add(n).filter(|&end| end <= self.data.len()) else {
            let remaining = self.remaining();
            let message = format!("{what}: truncated, wanted {n} bytes, {remaining} remain");
            return Err(self.err(message));
        };
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], ByteError> {
        Ok(self.take(N, what)?.try_into().expect("take returns N bytes"))
    }

    /// A `u8`.
    pub fn u8(&mut self, what: &str) -> Result<u8, ByteError> {
        Ok(self.take(1, what)?[0])
    }

    /// A big-endian `u16`.
    pub fn u16_be(&mut self, what: &str) -> Result<u16, ByteError> {
        self.array(what).map(u16::from_be_bytes)
    }

    /// A big-endian `u32`.
    pub fn u32_be(&mut self, what: &str) -> Result<u32, ByteError> {
        self.array(what).map(u32::from_be_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32_le(&mut self, what: &str) -> Result<u32, ByteError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64_le(&mut self, what: &str) -> Result<u64, ByteError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// `count` fixed-size records of `size` bytes each, as one slice:
    /// bounds-checked once, before the caller allocates anything for them.
    pub fn records(&mut self, count: usize, size: usize, what: &str) -> Result<&'a [u8], ByteError> {
        match count.checked_mul(size) {
            Some(n) => self.take(n, what),
            None => Err(self.err(format!("{what}: count {count} overflows"))),
        }
    }

    /// Fails unless `count` items of at least `min_size` bytes each can
    /// still fit: the check a variable-size list's count gets before
    /// anything is reserved for it.
    pub fn expect_room(&self, count: usize, min_size: usize, what: &str) -> Result<(), ByteError> {
        let (need, remaining) = (count.saturating_mul(min_size), self.remaining());
        if need > remaining {
            return Err(self.err(format!(
                "{what} {count} needs at least {need} bytes but only {remaining} remain"
            )));
        }
        Ok(())
    }

    /// Fails unless everything was read.
    pub fn expect_end(&self, what: &str) -> Result<(), ByteError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(self.err(format!("{what}: {extra} trailing bytes"))),
        }
    }

    /// A reader over the next `len` bytes, which this one skips; its
    /// errors keep absolute offsets.
    pub fn sub(&mut self, len: usize, what: &str) -> Result<ByteReader<'a>, ByteError> {
        let base = self.offset();
        let data = self.take(len, what)?;
        Ok(ByteReader { format: self.format, data, pos: 0, base })
    }
}

/// The record loop of a framed binary format: each record is a header,
/// read by `header`, whose last field is the body length (a big-endian
/// `u32`), then that many body bytes, read by `body` from a
/// [`ByteReader::sub`] over them.
///
/// A header error, or a length past the end of the input, ends the read
/// (framing corruption: no later record boundary can be trusted). A body
/// error goes through `ParseDiagnostics::malformed` as record *n*: in
/// lenient mode the record is skipped and the loop resynchronises at the
/// next one. Publishes the tally under `format` in lower case, as the
/// parse counters name formats (`parse.mrt.*`).
pub fn read_framed<'a, H>(
    bytes: &'a [u8],
    opts: &ParseOptions,
    format: &'static str,
    mut header: impl FnMut(&mut ByteReader<'a>) -> Result<H, ByteError>,
    mut body: impl FnMut(H, ByteReader<'a>) -> Result<(), ByteError>,
) -> Result<ParseDiagnostics, ByteError> {
    let mut r = ByteReader::new(format, bytes);
    let mut diag = ParseDiagnostics::new();
    let mut record = 0;
    while !r.is_empty() {
        let fields = header(&mut r)?;
        let len = r.u32_be("record length")? as usize;
        let remaining = r.remaining();
        if len > remaining {
            return Err(r.err_last(
                4,
                format!(
                    "record length {len} exceeds the {remaining} bytes remaining \
                     (truncated dump or corrupt length field)"
                ),
            ));
        }
        let sub = r.sub(len, "record body")?;
        let body_start = sub.offset();
        match body(fields, sub) {
            Ok(()) => diag.record_ok(),
            Err(e) => diag.malformed(opts, RecordLocation::Record(record), e, |message| {
                ByteError { format, offset: body_start, message }
            })?,
        }
        record += 1;
    }
    diag.publish(&format.to_ascii_lowercase());
    Ok(diag)
}

/// A located error in a text input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LineError {}

/// Why a [`read_lines`] record closure did not keep its line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BadLine {
    /// The line is malformed: strict mode stops at it, lenient mode
    /// skips and tallies it against the budget.
    Malformed(String),
    /// The line falls with a record already dropped (a hop line under a
    /// dropped trace header): tallied neither as a record nor as a drop.
    Collateral,
    /// The input cannot be read on, in either mode (a reader's size cap).
    Fatal(String),
}

impl From<String> for BadLine {
    fn from(message: String) -> Self {
        BadLine::Malformed(message)
    }
}

impl From<&str> for BadLine {
    fn from(message: &str) -> Self {
        BadLine::Malformed(message.to_owned())
    }
}

/// A line that is not UTF-8, as [`read_lines`] hands it over: `?` on it
/// makes it one malformed record. It holds the line's valid UTF-8 head,
/// start-trimmed, so a reader can still see what kind of line it opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotUtf8<'a>(pub &'a str);

impl From<NotUtf8<'_>> for BadLine {
    fn from(_: NotUtf8<'_>) -> Self {
        BadLine::from("not valid UTF-8")
    }
}

/// The line loop of every text format: `bytes` is split on `\n`, lines
/// are numbered from 1, and each is `str::trim`med, or handed to `record`
/// as a [`NotUtf8`] if it is not UTF-8. Blank and `#` lines are skipped;
/// `record` keeps every other line or says why not. A malformed line goes
/// through `ParseDiagnostics::malformed` with its bare message, so the
/// tally names its line once; only a returned [`LineError`] adds it.
/// Nothing is allocated per line. Publishes `parse.<format>.*`.
pub fn read_lines(
    bytes: &[u8],
    opts: &ParseOptions,
    format: &str,
    mut record: impl FnMut(Result<&str, NotUtf8<'_>>) -> Result<(), BadLine>,
) -> Result<ParseDiagnostics, LineError> {
    let mut diag = ParseDiagnostics::new();
    for (i, raw) in bytes.split(|&b| b == b'\n').enumerate() {
        let line = i + 1;
        let text = std::str::from_utf8(raw).map(str::trim).map_err(|e| {
            NotUtf8(std::str::from_utf8(&raw[..e.valid_up_to()]).unwrap_or_default().trim_start())
        });
        let kept = match text {
            Ok("") => continue,
            Ok(text) if text.starts_with('#') => continue,
            text => record(text),
        };
        match kept {
            Ok(()) => diag.record_ok(),
            Err(BadLine::Malformed(message)) => diag
                .malformed(opts, RecordLocation::Line(line), message, |budget| budget)
                .map_err(|message| LineError { line, message })?,
            Err(BadLine::Collateral) => {}
            Err(BadLine::Fatal(message)) => return Err(LineError { line, message }),
        }
    }
    diag.publish(format);
    Ok(diag)
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

    #[global_allocator]
    static ALLOC: flatnet_testkit::Counting = flatnet_testkit::Counting;

    type Read = fn(&mut ByteReader<'_>) -> Result<(), ByteError>;

    /// Every read, with the bytes it consumes.
    const READS: [(usize, Read); 8] = [
        (1, |r| r.u8("field").map(drop)),
        (2, |r| r.u16_be("field").map(drop)),
        (4, |r| r.u32_be("field").map(drop)),
        (4, |r| r.u32_le("field").map(drop)),
        (8, |r| r.u64_le("field").map(drop)),
        (5, |r| r.take(5, "field").map(drop)),
        (6, |r| r.records(3, 2, "field").map(drop)),
        (7, |r| r.sub(7, "field").map(drop)),
    ];

    #[test]
    fn every_read_at_every_truncation_errs_inside_the_input() {
        let image: Vec<u8> = (0..16).collect();
        for cut in 0..=image.len() {
            for skip in 0..=cut {
                for (width, read) in READS {
                    let mut r = ByteReader::new("test", &image[..cut]);
                    r.take(skip, "skip").unwrap();
                    match read(&mut r) {
                        Ok(()) => assert!(skip + width <= cut),
                        Err(e) => {
                            assert!(skip + width > cut, "{e}");
                            assert!(e.offset <= cut, "{e}");
                            assert_eq!(r.offset(), skip, "a failed read consumes nothing");
                        }
                    }
                }
                let r = ByteReader::new("test", &image[skip..cut]);
                assert_eq!(r.expect_end("tail").is_ok(), skip == cut);
                assert_eq!(r.expect_room(2, 3, "count").is_ok(), 6 <= cut - skip);
            }
        }
    }

    #[test]
    fn lengths_that_overflow_are_errors() {
        let mut r = ByteReader::new("test", &[1, 2, 3]);
        r.u8("first").unwrap();
        let e = r.take(usize::MAX, "huge").unwrap_err();
        assert_eq!(e.offset, 1);
        assert!(e.message.contains("truncated"), "{e}");
        assert!(r.records(usize::MAX, 2, "huge").is_err());
        assert!(r.expect_room(usize::MAX, 2, "huge").is_err());
        assert_eq!(r.u16_be("rest").unwrap(), 0x0203);
    }

    #[test]
    fn sub_readers_keep_absolute_offsets() {
        let bytes = [0u8, 1, 2, 3, 4, 5, 6, 7, 8, 9];
        let mut r = ByteReader::new("test", &bytes);
        r.take(3, "head").unwrap();
        let mut body = r.sub(5, "body").unwrap();
        assert_eq!(r.offset(), 8);
        assert_eq!(body.offset(), 3);
        assert_eq!(body.u8("first").unwrap(), 3);
        let mut inner = body.sub(2, "inner").unwrap();
        assert_eq!(inner.u16_be("word").unwrap(), 0x0405);
        assert_eq!(inner.u8("past").unwrap_err().offset, 6);
        assert_eq!(body.err_last(2, "bad word").offset, 4);
        assert_eq!(body.expect_end("body").unwrap_err().offset, 6);
        let e = body.take(3, "tail").unwrap_err();
        let want = "test parse error at byte 6: tail: truncated, wanted 3 bytes, 2 remain";
        assert_eq!(e.to_string(), want);
    }

    #[test]
    fn expect_room_refuses_before_anything_is_allocated() {
        let body = [0u8; 12];
        let (got, usage) = flatnet_testkit::measure(|| {
            let r = ByteReader::new("test", &body);
            r.expect_room(65_535, 13, "peer count")?;
            Ok::<_, ByteError>(Vec::<u8>::with_capacity(65_535 * 13))
        });
        let e = got.unwrap_err();
        assert_eq!(e.message, "peer count 65535 needs at least 851955 bytes but only 12 remain");
        assert!(usage.peak < 1024, "the refusal held {} bytes", usage.peak);
        let r = ByteReader::new("test", &body);
        assert!(r.expect_room(4, 3, "count").is_ok());
        assert!(r.expect_room(3, 5, "count").is_err());
    }

    #[test]
    fn cursor_reads_are_bounds_checked() {
        let mut c = ByteReader::new("test", &[1, 0, 0]);
        assert!(c.u32_le("field").is_err());
        let mut c = ByteReader::new("test", &[1, 0, 0, 0, 9]);
        assert_eq!(c.u32_le("field").unwrap(), 1);
        assert!(c.expect_end("payload").is_err());
        assert_eq!(c.u8("tail").unwrap(), 9);
        assert!(c.expect_end("payload").is_ok());
    }

    #[test]
    fn read_framed_checks_each_length_and_skips_bad_bodies_when_lenient() {
        // Records of a one-byte tag and a u32 length; a body must be empty.
        let records = [0u8, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0xAA, 2, 0, 0, 0, 0];
        let read = |bytes: &[u8], opts| {
            let mut tags = Vec::new();
            let header = |r: &mut ByteReader<'_>| r.u8("tag");
            let diag = read_framed(bytes, &opts, "Test", header, |tag, body| {
                body.expect_end("body")?;
                tags.push(tag);
                Ok(())
            })?;
            Ok::<_, ByteError>((tags, diag.dropped()))
        };
        let e = read(&records, ParseOptions::strict()).unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (10, "body: 1 trailing bytes"));
        assert_eq!(read(&records, ParseOptions::lenient()).unwrap(), (vec![0, 2], 1));
        let mut long = records;
        long[9] = 9;
        let e = read(&long, ParseOptions::lenient()).unwrap_err();
        assert_eq!(e.offset, 6, "the length field: {e}");
        assert_eq!(
            e.message,
            "record length 9 exceeds the 6 bytes remaining (truncated dump or corrupt length field)"
        );
    }

    /// Reads `text` with a record closure that keeps digits, refuses
    /// anything else, drops `-` lines as collateral and stops at `!`.
    fn digits(text: &[u8], opts: ParseOptions) -> Result<(Vec<u32>, ParseDiagnostics), LineError> {
        let mut kept = Vec::new();
        let diag = read_lines(text, &opts, "test", |line| match line? {
            "-" => Err(BadLine::Collateral),
            "!" => Err(BadLine::Fatal("stop".into())),
            text => {
                kept.push(text.parse().map_err(|_| format!("not a number: {text:?}"))?);
                Ok(())
            }
        })?;
        Ok((kept, diag))
    }

    #[test]
    fn read_lines_numbers_trims_and_skips_by_one_rule() {
        let text = b"1\r\n  # note\n\n\t2  \n#3\n 4";
        let (kept, diag) = digits(text, ParseOptions::strict()).unwrap();
        assert_eq!((kept, diag.records_ok, diag.dropped()), (vec![1, 2, 4], 3, 0));
        let e = digits(b"1\n\n x \n", ParseOptions::strict()).unwrap_err();
        assert_eq!(e.to_string(), "line 3: not a number: \"x\"");
    }

    #[test]
    fn read_lines_tallies_bare_messages_and_locates_only_its_errors() {
        let text = b"1\nx\n\xff\xfe\n-\n2\n";
        let (kept, diag) = digits(text, ParseOptions::lenient()).unwrap();
        assert_eq!((kept, diag.records_ok), (vec![1, 2], 2));
        let issues: Vec<String> = diag.issues.iter().map(|i| i.to_string()).collect();
        assert_eq!(issues, ["line 2: not a number: \"x\"", "line 3: not valid UTF-8"]);
        let e = digits(text, ParseOptions::lenient().with_max_errors(1)).unwrap_err();
        let last = "last: line 3: not valid UTF-8";
        assert_eq!(e.line, 3);
        assert_eq!(e.message, format!("error budget exhausted after 2 malformed records (max 1); {last}"));
        let e = digits(text, ParseOptions::strict()).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (2, "not a number: \"x\""));
    }

    #[test]
    fn read_lines_stops_at_a_fatal_line_in_both_modes() {
        for opts in [ParseOptions::strict(), ParseOptions::lenient()] {
            let e = digits(b"1\n!\n2\n", opts).unwrap_err();
            assert_eq!(e, LineError { line: 2, message: "stop".into() });
        }
    }

    #[test]
    fn locations_render() {
        assert_eq!(RecordLocation::Line(3).to_string(), "line 3");
        assert_eq!(RecordLocation::Record(0).to_string(), "record 0");
    }
}

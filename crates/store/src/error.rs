//! Typed failures for the snapshot store.
//!
//! Every way a store file can be wrong maps to a distinct variant, so
//! callers (the serve daemon's fallback ladder, `flatnet snapshot
//! verify`, the fault-injection harness) can tell a truncated download
//! from a bit-flip from a format-version skew — and none of them ever
//! surfaces as a panic.

use std::fmt;

/// The section of the container a failure was located in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionId {
    /// Store-level metadata (snapshot version).
    Meta,
    /// The AS graph (ASN table + canonical edge list).
    Graph,
    /// The Tier-1 / Tier-2 node sets.
    Tiers,
}

impl SectionId {
    /// Wire id (also the required table order, ascending).
    pub(crate) fn wire(self) -> u32 {
        match self {
            SectionId::Meta => 1,
            SectionId::Graph => 2,
            SectionId::Tiers => 3,
        }
    }

    /// Parses a wire id. Id 4 (format v1's compiled-adjacency section)
    /// stays unassigned.
    pub(crate) fn from_wire(id: u32) -> Option<Self> {
        match id {
            1 => Some(SectionId::Meta),
            2 => Some(SectionId::Graph),
            3 => Some(SectionId::Tiers),
            _ => None,
        }
    }

    /// Human-readable name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            SectionId::Meta => "meta",
            SectionId::Graph => "graph",
            SectionId::Tiers => "tiers",
        }
    }
}

/// Any way loading, verifying, or writing a store can fail.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure, annotated with the path involved.
    Io {
        /// The file or directory the operation touched.
        path: String,
        /// The underlying I/O error message.
        message: String,
    },
    /// The file does not start with the store magic.
    BadMagic,
    /// The file's format version is not one this build can read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The file ends before the fixed header + section table.
    TruncatedHeader {
        /// Bytes present.
        len: usize,
        /// Bytes the header declares it needs.
        need: usize,
    },
    /// The header checksum does not match its contents.
    HeaderChecksum,
    /// The section table is structurally invalid (wrong ids, wrong
    /// order, or a section extent outside the file).
    BadSectionTable {
        /// What is wrong with it.
        detail: String,
    },
    /// A section's payload fails its checksum (bit-flip or a truncation
    /// that the extent check could not see).
    SectionChecksum {
        /// Which section.
        section: SectionId,
    },
    /// A section's payload passes its checksum but does not parse into
    /// a valid structure.
    Malformed {
        /// Which section.
        section: SectionId,
        /// First violation found.
        detail: String,
    },
    /// The file is longer than the header + sections account for.
    TrailingBytes {
        /// Unaccounted-for byte count.
        extra: usize,
    },
}

impl StoreError {
    /// A short machine-friendly kind label, for structured logs and
    /// `/healthz`.
    pub fn kind(&self) -> &'static str {
        match self {
            StoreError::Io { .. } => "io",
            StoreError::BadMagic => "bad-magic",
            StoreError::UnsupportedVersion { .. } => "unsupported-version",
            StoreError::TruncatedHeader { .. } => "truncated-header",
            StoreError::HeaderChecksum => "header-checksum",
            StoreError::BadSectionTable { .. } => "bad-section-table",
            StoreError::SectionChecksum { .. } => "section-checksum",
            StoreError::Malformed { .. } => "malformed-section",
            StoreError::TrailingBytes { .. } => "trailing-bytes",
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "{path}: {message}"),
            StoreError::BadMagic => write!(f, "not a flatnet snapshot store (bad magic)"),
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported store format version {found}")
            }
            StoreError::TruncatedHeader { len, need } => {
                write!(f, "truncated header: {len} bytes, need {need}")
            }
            StoreError::HeaderChecksum => write!(f, "header checksum mismatch"),
            StoreError::BadSectionTable { detail } => write!(f, "bad section table: {detail}"),
            StoreError::SectionChecksum { section } => {
                write!(f, "checksum mismatch in section '{}'", section.name())
            }
            StoreError::Malformed { section, detail } => {
                write!(f, "malformed section '{}': {detail}", section.name())
            }
            StoreError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last section")
            }
        }
    }
}

impl std::error::Error for StoreError {}

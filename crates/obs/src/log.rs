//! A leveled stderr logger.
//!
//! One process-wide level filters four severities. The level comes from
//! the `FLATNET_LOG` environment variable (via [`init_from_env`]) or a
//! CLI flag (via [`set_level`]); the default is [`Level::Info`]. Use the
//! crate-root macros:
//!
//! ```
//! flatnet_obs::warn!("dropped {} records", 3);
//! ```
//!
//! Messages go to stderr so they never mix with piped report output.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Message severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The operation failed or produced unusable output.
    Error = 0,
    /// Something degraded but the run continues (drops, skips, retries).
    Warn = 1,
    /// Progress and one-line results.
    Info = 2,
    /// Detail useful only when debugging.
    Debug = 3,
}

impl Level {
    /// The label printed in front of each message.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Sets the process-wide level: messages at `level` and more severe pass.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether a message at `l` would currently be printed.
#[inline]
pub(crate) fn enabled(l: Level) -> bool {
    (l as u8) <= LEVEL.load(Ordering::Relaxed)
}

/// Parses a level name (`error`/`warn`/`info`/`debug`, case-insensitive).
pub fn parse_level(s: &str) -> Option<Level> {
    match s.to_ascii_lowercase().as_str() {
        "error" => Some(Level::Error),
        "warn" | "warning" => Some(Level::Warn),
        "info" => Some(Level::Info),
        "debug" => Some(Level::Debug),
        _ => None,
    }
}

/// Applies `FLATNET_LOG` if set to a valid level name; unknown values are
/// ignored so a typo can't silence errors.
pub fn init_from_env() {
    if let Some(level) = std::env::var("FLATNET_LOG").ok().as_deref().and_then(parse_level) {
        set_level(level);
    }
}

/// Prints one message if `l` passes the filter. Prefer the macros.
pub fn log(l: Level, args: fmt::Arguments<'_>) {
    if enabled(l) {
        eprintln!("[{}] {}", l.label(), args);
    }
}

/// Logs at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Error, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Warn, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Info, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Debug, format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert_eq!(parse_level("WARN"), Some(Level::Warn));
        assert_eq!(parse_level("warning"), Some(Level::Warn));
        assert_eq!(parse_level("debug"), Some(Level::Debug));
        assert_eq!(parse_level("verbose"), None);
        assert_eq!(Level::Info.to_string(), "info");
    }

    #[test]
    fn filter_respects_the_level() {
        // Tests share the process-wide level; restore it on exit.
        let before = LEVEL.load(Ordering::Relaxed);
        set_level(Level::Warn);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        LEVEL.store(before, Ordering::Relaxed);
    }
}

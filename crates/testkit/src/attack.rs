//! The decoder attack: its inputs and its one check.

use crate::alloc::{installed, measure};
use proptest::collection::vec;
use proptest::prelude::*;
use std::fmt::Display;
use std::io::Read;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Byte soup: `parts` pieces end to end, each one of `pieces` or a random
/// run of fewer than `run` bytes (a pick past the end of `pieces` is the
/// run). Pieces are what steers the soup past a reader's first checks:
/// magics, headers, hostile lengths.
pub fn soup(
    pieces: &'static [&'static [u8]],
    parts: Range<usize>,
    run: usize,
) -> impl Strategy<Value = Vec<u8>> {
    vec((0..=pieces.len(), vec(any::<u8>(), 0..run)), parts).prop_map(move |parts| {
        let mut out = Vec::new();
        for (pick, random) in parts {
            out.extend_from_slice(pieces.get(pick).copied().unwrap_or(&random));
        }
        out
    })
}

/// One edit of a byte string, made where its `u16` scales to.
#[derive(Debug, Clone)]
pub enum Edit {
    /// Insert the bytes there.
    Splice(Vec<u8>),
    /// Write the bytes over what is there.
    Overwrite(Vec<u8>),
    /// Drop everything from there on.
    Truncate,
}

/// `count` edits, each with where to make it.
pub fn edits(count: Range<usize>) -> impl Strategy<Value = Vec<(Edit, u16)>> {
    let edit = (0..3u8, vec(any::<u8>(), 1..24), any::<u16>()).prop_map(|(kind, bytes, at)| {
        let edit = match kind {
            0 => Edit::Splice(bytes),
            1 => Edit::Overwrite(bytes),
            _ => Edit::Truncate,
        };
        (edit, at)
    });
    vec(edit, count)
}

/// `base` with `edits` made one after another; each `u16` scales to a
/// position within the bytes as they are by then.
pub fn edited(base: &[u8], edits: &[(Edit, u16)]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for (edit, at) in edits {
        let pos = bytes.len() * *at as usize / (u16::MAX as usize + 1);
        match edit {
            Edit::Splice(new) => {
                bytes.splice(pos..pos, new.iter().copied());
            }
            Edit::Overwrite(new) => {
                let end = (pos + new.len()).min(bytes.len());
                bytes[pos..end].copy_from_slice(&new[..end - pos]);
            }
            Edit::Truncate => bytes.truncate(pos),
        }
    }
    bytes
}

/// A transport that hands over one byte per `read`.
pub struct Dribble<'a>(pub &'a [u8]);

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.len().min(buf.len()).min(1);
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

type Decode<'a, T, E> = Box<dyn Fn(&[u8]) -> Result<T, E> + 'a>;
type Encode<'a, T> = Box<dyn Fn(&T) -> Vec<u8> + 'a>;

/// How an accepted input must come back out of the target's writer.
enum RoundTrip<'a, T> {
    /// One spelling per value: the input's own bytes.
    Exact(Encode<'a, T>),
    /// One spelling per value once written: bytes that read back and
    /// write again to themselves.
    Rewritten(Encode<'a, T>),
}

/// A decoder under attack: how it reads bytes, the most heap it may hold
/// for an input of a given length, and how what it accepts must come
/// back out of its writer.
pub struct Target<'a, T, E> {
    decode: Decode<'a, T, E>,
    cap: fn(usize) -> usize,
    round_trip: Option<RoundTrip<'a, T>>,
}

impl<'a, T, E: Display> Target<'a, T, E> {
    /// A target reading with `decode` under the heap cap `cap(len)`.
    /// Panics unless [`Counting`](crate::Counting) is the global
    /// allocator, without which no cap could be checked.
    pub fn new(cap: fn(usize) -> usize, decode: impl Fn(&[u8]) -> Result<T, E> + 'a) -> Self {
        assert!(installed(), "install flatnet_testkit::Counting as the #[global_allocator]");
        Target { decode: Box::new(decode), cap, round_trip: None }
    }

    /// The format is canonical: an accepted input re-encodes to its own
    /// bytes.
    pub fn canonical(self, encode: impl Fn(&T) -> Vec<u8> + 'a) -> Self {
        Target { round_trip: Some(RoundTrip::Exact(Box::new(encode))), ..self }
    }

    /// The writer is canonical: an accepted input, written once, reads
    /// back and writes the same bytes again.
    pub fn rewritten(self, write: impl Fn(&T) -> Vec<u8> + 'a) -> Self {
        Target { round_trip: Some(RoundTrip::Rewritten(Box::new(write))), ..self }
    }

    /// The one check: decoding `input` does not panic and holds no more
    /// heap than the cap; a refusal says why; an accepted input round-trips
    /// as the target's format promises. Returns what `decode` returned.
    pub fn check(&self, input: &[u8]) -> Result<T, E> {
        let (result, usage) = catch_unwind(AssertUnwindSafe(|| measure(|| (self.decode)(input))))
            .unwrap_or_else(|_| panic!("decode panicked on {}", shown(input)));
        let cap = (self.cap)(input.len());
        assert!(
            usage.peak <= cap,
            "decode held {} bytes of heap, over its cap of {cap}, on {}",
            usage.peak,
            shown(input)
        );
        match (&result, &self.round_trip) {
            (Err(e), _) => {
                assert!(!e.to_string().is_empty(), "a refusal without a reason on {}", shown(input))
            }
            (Ok(value), Some(RoundTrip::Exact(encode))) => {
                assert!(encode(value) == input, "an accepted input re-encodes to other bytes: {}", shown(input))
            }
            (Ok(value), Some(RoundTrip::Rewritten(write))) => {
                let once = write(value);
                let back = (self.decode)(&once)
                    .unwrap_or_else(|e| panic!("the writer's {} does not read back: {e}", shown(&once)));
                assert!(write(&back) == once, "written twice, {} changes", shown(&once));
            }
            (Ok(_), None) => {}
        }
        result
    }

    /// Checks every proper prefix of `base`, shortest first; returns the
    /// lengths of those that decoded.
    pub fn truncations(&self, base: &[u8]) -> Vec<usize> {
        (0..base.len()).filter(|&cut| self.check(&base[..cut]).is_ok()).collect()
    }
}

/// An input as a failure message shows it: its length and its first
/// bytes, escaped.
fn shown(input: &[u8]) -> String {
    const SHOWN: usize = 512;
    let more = if input.len() > SHOWN { " …" } else { "" };
    format!("{} bytes \"{}\"{more}", input.len(), input[..input.len().min(SHOWN)].escape_ascii())
}

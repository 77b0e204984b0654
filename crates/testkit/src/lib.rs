#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

//! # flatnet-testkit — what the workspace's tests attack with
//!
//! A dev-dependency only, never linked into a shipped binary. It holds
//! the three things the allocation-budget, fuzz and routing tests would
//! otherwise each write for themselves.
//!
//! **One counting allocator**, [`Counting`]. Per thread it counts
//! allocations, bytes, live heap and the peak of live heap; [`measure`]
//! reads them around a closure, so tests running in parallel do not see
//! each other. Per process it counts allocations and bytes of every
//! thread that has not called [`mute_this_thread`] ([`process`]), for
//! code that does its work on threads of its own. A `realloc` counts as
//! one allocation of what it grows by, and it raises the thread's peak
//! by its new size before it releases the old one — what `GlobalAlloc`'s
//! default alloc-copy-free `realloc` holds at its worst, so a heap cap
//! measured here is never looser than one measured through that default.
//! The `unsafe impl` forwards every call unchanged to
//! [`std::alloc::System`]; `tests/counting.rs` attacks it from several
//! threads at once.
//!
//! **One decoder attack**: the inputs — byte [`soup`] of format
//! pieces and random runs, splice/overwrite/truncate [`edits`] of valid
//! images at a scaled position, every prefix of a valid image
//! ([`Target::truncations`]), and the one-byte-per-`read` transport
//! [`Dribble`] — and the one property they are held to,
//! [`Target::check`]: no panic, peak heap within the target's cap for the
//! input's length, a refusal that names its reason, and, where the
//! format or its writer is canonical, an accepted input that round-trips.
//! A new fuzz target is a decode closure and a cap:
//!
//! ```
//! use flatnet_testkit::{Counting, Target};
//!
//! #[global_allocator]
//! static ALLOC: Counting = Counting;
//!
//! fn main() {
//!     let number = Target::new(|len| 64 + 2 * len, |b: &[u8]| String::from_utf8_lossy(b).parse::<u64>())
//!         .rewritten(|n| n.to_string().into_bytes());
//!     assert_eq!(number.check(b"0042").ok(), Some(42));
//!     assert_eq!(number.truncations(b"17"), [1]);
//! }
//! ```

//!
//! **One routing reference**, [`stable_paths`]: the paper's route
//! propagation (§6.1) solved as a Stable Paths Problem — every AS takes
//! the best route its neighbours export to it until nothing changes —
//! from the policy [`Rules`] a test draws, with no code of the engine it
//! judges. [`StablePaths::check`] holds a finished engine run to it,
//! selection and tie set of every AS; [`leak_states`] is §8's leak
//! competition from two such fixpoints.

mod alloc;
mod attack;
mod stable;

pub use alloc::{measure, mute_this_thread, process, Counting, Totals, Usage};
pub use attack::{edited, edits, soup, Dribble, Edit, Target};
pub use stable::{leak_states, stable_paths, Route, Rules, StablePaths};

//! The counting allocator under fire. Eight threads at once allocate,
//! grow and shrink in place of `realloc`, free memory other threads
//! allocated, and half of them mute themselves. Every thread must
//! measure exactly its own pattern, every byte handed out must hold what
//! was written to it at the alignment asked for, and the process totals
//! must be the unmuted threads' allocations and not the muted ones'.
//!
//! ONE `#[test]`: a second test's thread would allocate into the process
//! totals while this one reads them.

use flatnet_testkit::{measure, mute_this_thread, process, Counting, Usage};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Barrier;

#[global_allocator]
static ALLOC: Counting = Counting;

const THREADS: usize = 8;
const ROUNDS: usize = 400;

/// A 4 KiB-aligned value, to see the layout reach `System` unchanged.
#[repr(align(4096))]
struct Page([u8; 4096]);

/// Allocates 64 bytes, grows them to 256 (a `realloc`) and shrinks them
/// to 128 (another).
fn pattern(seed: u8) -> Vec<u8> {
    let mut v: Vec<u8> = Vec::with_capacity(64);
    v.extend((0..64u8).map(|i| i ^ seed));
    v.reserve_exact(192);
    v.extend((64..=255u8).map(|i| i ^ seed));
    v.truncate(128);
    v.shrink_to_fit();
    v
}

/// What [`pattern`] must measure: three allocations (two of them
/// reallocs), 64 + 192 grown + 0 shrunk bytes, and a peak of 256 + 128:
/// each realloc holds its old block until the new one exists, so the
/// grow peaks at 64 + 256 and the shrink at 256 + 128.
const PATTERN: Usage = Usage { allocations: 3, bytes: 64 + 192, peak: 256 + 128 };

fn holds_pattern(v: &[u8], seed: u8) -> bool {
    v.len() == 128 && v.iter().enumerate().all(|(i, &b)| b == i as u8 ^ seed)
}

/// What one worker saw: the whole run's usage, and the first count or
/// byte that came out wrong. A worker never panics mid-run, or its
/// neighbours would wait for it forever.
struct Seen {
    usage: Usage,
    wrong: Option<String>,
}

/// One worker's rounds: measure the pattern, pass the result on, and free
/// the one passed in.
fn work(k: usize, to_next: &Sender<Vec<u8>>, from_prev: &Receiver<Vec<u8>>) -> Seen {
    let seed = k as u8 * 31;
    let prev_seed = ((k + THREADS - 1) % THREADS) as u8 * 31;
    let mut wrong = None;
    let (_, usage) = measure(|| {
        for round in 0..ROUNDS {
            let (v, usage) = measure(|| pattern(seed));
            if usage != PATTERN {
                wrong.get_or_insert(format!("thread {k} round {round}: the pattern measured {usage:?}"));
            }
            let page = Box::new(Page([seed; 4096]));
            let aligned = (&*page as *const Page as usize).is_multiple_of(4096);
            if !aligned || page.0.iter().any(|&b| b != seed) {
                wrong.get_or_insert(format!("thread {k} round {round}: a page lost its alignment or bytes"));
            }
            to_next.send(v).expect("the next thread is alive");
            let foreign = from_prev.recv().expect("the previous thread is alive");
            if !holds_pattern(&foreign, prev_seed) {
                wrong.get_or_insert(format!("thread {k} round {round}: a passed-on block was clobbered"));
            }
            // Memory another thread allocated: freeing it here costs this
            // thread nothing and cannot drive its live heap negative.
            let (_, freed) = measure(|| drop(foreign));
            if freed != (Usage { allocations: 0, bytes: 0, peak: 0 }) {
                wrong.get_or_insert(format!("thread {k} round {round}: a cross-thread free measured {freed:?}"));
            }
        }
    });
    Seen { usage, wrong }
}

#[test]
fn every_thread_counts_its_own_and_the_process_counts_the_unmuted() {
    mute_this_thread();
    // Calls nest: the inner sees its own block, the outer both.
    let (inner, outer) = measure(|| {
        let held = vec![1u8; 1000];
        let (_, inner) = measure(|| vec![2u8; 10]);
        drop(held);
        inner
    });
    assert_eq!((inner.allocations, inner.bytes, inner.peak), (1, 10, 10));
    assert_eq!((outer.allocations, outer.bytes, outer.peak), (2, 1010, 1010));

    let (senders, receivers): (Vec<_>, Vec<_>) = (0..THREADS).map(|_| channel()).unzip();
    let mut receivers: Vec<Option<Receiver<Vec<u8>>>> = receivers.into_iter().map(Some).collect();
    let gates = Barrier::new(THREADS + 1);
    let (before, after, unmuted) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|k| {
                let to_next = senders[(k + 1) % THREADS].clone();
                let from_prev = receivers[k].take().expect("one receiver per thread");
                let gates = &gates;
                s.spawn(move || {
                    let muted = k % 2 == 1;
                    if muted {
                        mute_this_thread();
                    }
                    gates.wait(); // everyone is up
                    gates.wait(); // the totals are read
                    let seen = work(k, &to_next, &from_prev);
                    gates.wait(); // done
                    gates.wait(); // the totals are read again
                    (muted, seen)
                })
            })
            .collect();
        gates.wait();
        let before = process();
        gates.wait();
        gates.wait();
        let after = process();
        gates.wait();
        let mut unmuted = (0, 0);
        for w in workers {
            let (muted, Seen { usage, wrong }) = w.join().expect("a worker panicked");
            assert_eq!(wrong, None);
            if !muted {
                unmuted.0 += usage.allocations;
                unmuted.1 += usage.bytes;
            }
        }
        (before, after, unmuted)
    });
    // The unmuted workers' own, and at most a handful more: the test
    // harness's thread cannot be muted, and it may first block on its
    // result channel (a few allocations, under 1 KiB) while they run.
    let (allocations, bytes) = (after.allocations - before.allocations, after.bytes - before.bytes);
    assert!(
        (unmuted.0..unmuted.0 + 16).contains(&allocations) && (unmuted.1..unmuted.1 + 4096).contains(&bytes),
        "process totals {:?} vs the unmuted threads' own {unmuted:?}",
        (allocations, bytes)
    );
}

//! The real-data readers under attack: the CAIDA as-rel reader (either
//! serial), MRT TABLE_DUMP_V2, the warts-style and scamper-style
//! traceroute readers, and the Cymru-style prefix dump with the CIDR
//! parser under it — the files a user with real data supplies. Each is a
//! `flatnet-testkit` target, run strict and lenient on bases its own
//! crate's writer made from a 150-AS synthetic Internet: every truncation
//! of every base, then random splices, overwrites and cuts. Whatever
//! arrives, a reader never panics, never holds more heap than its cap,
//! says why it refuses, and what it accepts, written once, reads back and
//! writes the same bytes again.
//!
//! Generation is the vendored fixed-seed `proptest`, so every run
//! explores the same inputs and a failure reproduces.

use flatnet_asgraph::caida::{parse_auto, write_serial1, write_serial2};
use flatnet_asgraph::{AsGraph, AsGraphBuilder, GraphError, NodeId, ParseOptions};
use flatnet_mrt::{from_rib_entries, parse_mrt_with, write_mrt, MrtError, MrtRib};
use flatnet_netgen::{generate, NetGenConfig};
use flatnet_prefixdb::{AnnouncedDb, Ipv4Prefix};
use flatnet_testkit::{edited, edits, Counting, Edit, Target};
use flatnet_tracesim::scamper::{parse_traces_with, write_traces};
use flatnet_tracesim::warts::{parse_warts_with, write_warts, WartsError};
use flatnet_tracesim::{run_campaign, CampaignOptions, Traceroute};
use proptest::prelude::*;
use std::fmt::Display;

#[global_allocator]
static ALLOC: Counting = Counting;

// ---------------------------------------------------------------------
// The targets and their heap caps. A cap's slope is the most heap one
// input byte can cost. Valid records stay under 35x (a 14-byte `/32`
// line is up to 32 trie nodes of 16 bytes; a 2-byte warts hop is a
// 32-byte `Hop`). What sets the slope is the lenient tally: every
// dropped record, up to the budget of 1 000, keeps a 40-byte `ParseIssue`
// and its message, up to ~200 bytes as their vector doubles, however few
// bytes the record had — 2 for a text line, 9 for a warts record, 12 for
// an MRT record. Hand-built worst cases (1 to 1 300 lines of `x`, of
// `/32`s, of 2-byte hops, of failing records) peak at 0.76 of these caps
// or less; the bases here at 1.2-4.5x their length.
// ---------------------------------------------------------------------

fn modes() -> [ParseOptions; 2] {
    [ParseOptions::strict(), ParseOptions::lenient()]
}

/// The text readers take `&str`; `edited_input` hands them lossy UTF-8.
fn text(bytes: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(bytes).map_err(|e| e.to_string())
}

fn text_cap(len: usize) -> usize {
    4096 + 128 * len
}

fn binary_cap(len: usize) -> usize {
    4096 + 32 * len
}

fn caida(opts: ParseOptions) -> Target<'static, AsGraph, GraphError> {
    Target::new(text_cap, move |b| parse_auto(b, &opts).map(|(links, _)| links.build()))
        .rewritten(|g| write_serial1(g).into_bytes())
}

fn mrt(opts: ParseOptions) -> Target<'static, MrtRib, MrtError> {
    Target::new(binary_cap, move |b| parse_mrt_with(b, &opts).map(|(rib, _)| rib))
        .rewritten(|rib| write_mrt(rib, 0))
}

fn warts(opts: ParseOptions) -> Target<'static, Vec<Traceroute>, WartsError> {
    Target::new(binary_cap, move |b| parse_warts_with(b, &opts).map(|(traces, _)| traces))
        .rewritten(|traces| write_warts(traces))
}

fn scamper(opts: ParseOptions) -> Target<'static, Vec<Traceroute>, String> {
    Target::new(text_cap, move |b| parse_traces_with(text(b)?, &opts).map(|(traces, _)| traces))
        .rewritten(|traces| write_traces(traces).into_bytes())
}

fn prefixes(opts: ParseOptions) -> Target<'static, AnnouncedDb, String> {
    Target::new(text_cap, move |b| AnnouncedDb::parse_with(text(b)?, &opts).map(|(db, _)| db))
        .rewritten(|db| db.write().into_bytes())
}

/// One prefix: its error quotes the input, escaped.
fn cidr() -> Target<'static, Ipv4Prefix, String> {
    let parse = |b: &[u8]| text(b)?.parse::<Ipv4Prefix>().map_err(|e| e.to_string());
    Target::new(|len| 1024 + 16 * len, parse).rewritten(|p| p.to_string().into_bytes())
}

// ---------------------------------------------------------------------
// The bases, each written by its reader's own crate.
// ---------------------------------------------------------------------

struct Bases {
    caida: Vec<Vec<u8>>,
    mrt: Vec<Vec<u8>>,
    warts: Vec<Vec<u8>>,
    scamper: Vec<Vec<u8>>,
    prefixes: Vec<Vec<u8>>,
    cidrs: Vec<Vec<u8>>,
}

fn bases() -> &'static Bases {
    static BASES: std::sync::OnceLock<Bases> = std::sync::OnceLock::new();
    BASES.get_or_init(build_bases)
}

/// A slice of one world per format: every truncation of a base costs a
/// read of each of its prefixes, so each base is kept to a few KB.
fn build_bases() -> Bases {
    let net = generate(&NetGenConfig::paper_2020(150, 7));
    let g = &net.truth;
    let mut links = AsGraphBuilder::new();
    for (a, b, rel) in g.edges().take(200) {
        links.add_link(g.asn(a), g.asn(b), rel);
    }
    let slice = links.build();

    let announced = &net.addressing().resolver.announced;
    let monitors = [NodeId(0), NodeId(20)];
    let origins: Vec<NodeId> = g.nodes().step_by(5).collect();
    let ribs = flatnet_bgpsim::collect_ribs(g, &monitors, &origins);
    let prefix_of = |asn| announced.iter().find(|&(_, a)| a == asn).map(|(p, _)| p);
    let rib = from_rib_entries(&ribs, prefix_of);

    let options = CampaignOptions { dest_sample: 0.1, max_vps: 1, ..Default::default() };
    let campaign = run_campaign(&net, &options);
    let traces = &campaign.traces[..16];

    let mut db = AnnouncedDb::new();
    for (prefix, asn) in announced.iter().take(150) {
        db.announce(prefix, asn);
    }
    let mut cidrs: Vec<String> = db.iter().take(4).map(|(p, _)| p.to_string()).collect();
    cidrs.extend(["10.1.2.3/16", " 0.0.0.0/0"].map(String::from));

    Bases {
        caida: vec![write_serial1(&slice).into_bytes(), write_serial2(&slice).into_bytes()],
        mrt: vec![write_mrt(&rib, 1_600_000_000)],
        warts: vec![write_warts(traces)],
        scamper: vec![write_traces(traces).into_bytes()],
        prefixes: vec![db.write().into_bytes()],
        cidrs: cidrs.into_iter().map(String::into_bytes).collect(),
    }
}

// ---------------------------------------------------------------------
// The attacks.
// ---------------------------------------------------------------------

/// Every truncation of every base through each target, once each base
/// is known to read.
fn every_truncation<T, E: Display>(targets: &[Target<'static, T, E>], bases: &[Vec<u8>]) {
    for target in targets {
        for base in bases {
            if let Err(e) = target.check(base) {
                panic!("a base does not read: {e}");
            }
            target.truncations(base);
        }
    }
}

/// `edits` of `base` through each target; a text reader gets the result
/// as lossy UTF-8, as a caller holding a `&str` would.
fn edited_input<T, E: Display>(
    targets: &[Target<'static, T, E>],
    base: &[u8],
    edits: &[(Edit, u16)],
    text: bool,
) {
    let input = edited(base, edits);
    let input = if text { String::from_utf8_lossy(&input).into_owned().into_bytes() } else { input };
    for target in targets {
        let _ = target.check(&input);
    }
}

#[test]
fn caida_survives_every_truncation() {
    every_truncation(&modes().map(caida), &bases().caida);
}

#[test]
fn mrt_survives_every_truncation() {
    every_truncation(&modes().map(mrt), &bases().mrt);
}

#[test]
fn warts_survives_every_truncation() {
    every_truncation(&modes().map(warts), &bases().warts);
}

#[test]
fn scamper_survives_every_truncation() {
    every_truncation(&modes().map(scamper), &bases().scamper);
}

#[test]
fn prefix_dump_and_cidr_survive_every_truncation() {
    every_truncation(&modes().map(prefixes), &bases().prefixes);
    every_truncation(&[cidr()], &bases().cidrs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn caida_survives_random_edits(base in 0..2usize, edits in edits(1..4)) {
        edited_input(&modes().map(caida), &bases().caida[base], &edits, false);
    }

    #[test]
    fn mrt_survives_random_edits(edits in edits(1..4)) {
        edited_input(&modes().map(mrt), &bases().mrt[0], &edits, false);
    }

    #[test]
    fn warts_survives_random_edits(edits in edits(1..4)) {
        edited_input(&modes().map(warts), &bases().warts[0], &edits, false);
    }

    #[test]
    fn scamper_survives_random_edits(edits in edits(1..4)) {
        edited_input(&modes().map(scamper), &bases().scamper[0], &edits, true);
    }

    #[test]
    fn prefix_dump_and_cidr_survive_random_edits(base in 0..6usize, edits in edits(1..4)) {
        edited_input(&modes().map(prefixes), &bases().prefixes[0], &edits, true);
        edited_input(&[cidr()], &bases().cidrs[base], &edits, true);
    }
}

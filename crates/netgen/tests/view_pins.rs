//! Byte pin for everything the generator derives beside the truth graph:
//! the per-AS metadata, each cloud peer link's interconnect address, the
//! address plan (link addresses, per-AS prefixes, IXPs) and every file of
//! a written dataset bundle. The as-rel texts alone are pinned in
//! `flatnet-store`'s `byte_pins.rs`; this one holds the views a caller
//! reads on demand to the same standard. The constant was recorded before
//! the address plan and the public view became derived on first read, and
//! must never be re-recorded to make a change pass.

use flatnet_netgen::{generate, write_dataset, NetGenConfig};
use std::fmt::Write as _;
use std::net::Ipv4Addr;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn derived_views_and_dataset_files_are_pinned() {
    let net = generate(&NetGenConfig::paper_2020(4000, 1));
    let addressing = net.addressing();
    let mut out = String::new();
    for m in &net.meta {
        writeln!(out, "meta {} {:?} {:?} {} {}", m.asn.0, m.role, m.class, m.users, m.home_city).unwrap();
    }
    for c in &net.clouds {
        for l in &c.peer_links {
            let la = addressing.links.get(&(c.asn.0, l.peer.0));
            let peer_ip = la.map_or(Ipv4Addr::UNSPECIFIED, |la| la.peer_ip);
            let in_peeringdb = la.is_some_and(|la| la.in_peeringdb);
            writeln!(out, "peer {} {} {} {peer_ip} {in_peeringdb}", c.asn.0, l.peer.0, l.kind.name()).unwrap();
        }
    }
    for (&(cloud, peer), la) in &addressing.links {
        writeln!(
            out,
            "link {cloud} {peer} {} {} {:?} {}",
            la.peer_ip, la.cloud_ip, la.ixp, la.in_peeringdb
        )
        .unwrap();
    }
    for (asn, prefixes) in &addressing.prefixes {
        let list: Vec<String> = prefixes.iter().map(|p| p.to_string()).collect();
        writeln!(out, "prefixes {asn} {}", list.join(",")).unwrap();
    }
    for ix in &addressing.ixps {
        writeln!(out, "ixp {:?} {} {} {} {}", ix.id, ix.city, ix.asn.0, ix.lan, ix.announced).unwrap();
    }

    let dir = std::env::temp_dir().join(format!("flatnet-view-pins-{}", std::process::id()));
    write_dataset(&net, &dir).unwrap();
    let mut files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    files.sort();
    for path in &files {
        let body = std::fs::read_to_string(path).unwrap();
        let name = path.file_name().unwrap().to_string_lossy();
        writeln!(out, "file {name} {} {:#x}", body.len(), fnv1a64(body.as_bytes())).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();

    let got = (out.len(), fnv1a64(out.as_bytes()));
    assert_eq!(got, (899_247, 0x2d76_bab8_d438_8219), "(bytes, fnv1a64) of the rendering drifted: got {got:#x?}");
}

//! What the router's test binaries share: shards over one small
//! generated topology, and ASes known to be in it.

// Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use flatnet_netgen::{generate, NetGenConfig};
use flatnet_serve::{ServeConfig, Server, TopologySource};

/// The topology every shard and lone daemon of these tests serves.
pub const ASES: usize = 300;
pub const SEED: u64 = 17;

/// Starts a daemon over the shared topology as shard `id` of `count`.
pub fn start_shard(id: u32, count: u32) -> Server {
    let net = generate(&NetGenConfig::paper_2020(ASES, SEED));
    let tiers = net.tiers_for(&net.truth);
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        // `flatnet router`'s floor for a spawned shard: pooled data-plane
        // connections, a probe and a reload each hold a worker at once.
        workers: 8,
        shard: Some((id, count)),
        source: TopologySource::Preloaded { graph: net.truth, tiers },
        ..ServeConfig::default()
    })
    .expect("shard starts")
}

/// `n` ASes of the shared topology, spread evenly over its ASN order.
pub fn known_origins(n: usize) -> Vec<u32> {
    let net = generate(&NetGenConfig::paper_2020(ASES, SEED));
    let total = net.truth.len();
    let step = (total / n).max(1);
    net.truth.asns().step_by(step).take(n).map(|a| a.0).collect()
}

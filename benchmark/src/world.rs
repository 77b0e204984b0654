//! The benchmark's inputs and its independent reference: a seeded netgen
//! topology written out as a CAIDA as-rel file (all the program ever
//! sees), and the same file re-read by the harness so that every answer
//! can be recomputed by calling `bgpsim`/`core` directly.

use crate::metrics::Metrics;
use flatnet_asgraph::tiers::infer_tiers;
use flatnet_asgraph::{
    caida, validate_topology, AsGraph, AsId, NodeId, ParseOptions, Tiers, ValidateOptions,
};
use flatnet_bgpsim::{
    reliance, NextHopDag, PropagationConfig, Simulation, TopologySnapshot, Workspace,
};
use flatnet_core::leaks::{leak_cdf, Announce, LeakCdf, Locking};
use flatnet_netgen::{generate, NetGenConfig};
use flatnet_store::StoredSnapshot;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `exclude=` policy bits, in the order the daemon documents them.
pub const EXCL_PROVIDERS: u8 = 1;
pub const EXCL_TIER1: u8 = 2;
pub const EXCL_TIER2: u8 = 4;
/// The hierarchy-free policy of the paper: bypass providers, Tier-1s and
/// Tier-2s.
pub const HIERARCHY_FREE: u8 = EXCL_PROVIDERS | EXCL_TIER1 | EXCL_TIER2;

/// Renders policy bits as the `exclude=` query value (empty for none).
pub fn exclude_query(bits: u8) -> String {
    let mut names = Vec::new();
    if bits & EXCL_PROVIDERS != 0 {
        names.push("providers");
    }
    if bits & EXCL_TIER1 != 0 {
        names.push("tier1");
    }
    if bits & EXCL_TIER2 != 0 {
        names.push("tier2");
    }
    names.join(",")
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What generation leaves behind for the workloads: the as-rel file and
/// the ASN populations requests are drawn from.
pub struct World {
    pub as_rel_path: PathBuf,
    pub as_rel_bytes: usize,
    /// Every ASN of the topology, ascending.
    pub asns: Vec<u32>,
    /// The largest eyeball ASes by estimated users, descending, at most
    /// [`World::EYEBALLS`] of them, with their user counts.
    pub eyeballs: Vec<(u32, f64)>,
    /// The cloud / content-giant ASNs (the paper's subjects).
    pub clouds: Vec<u32>,
    pub generate_ms: f64,
}

impl World {
    pub const EYEBALLS: usize = 1024;

    /// Generates the `ases`-AS topology for `seed` and writes it to
    /// `dir/as-rel.txt` in CAIDA serial-2 form.
    pub fn generate(ases: usize, seed: u64, dir: &Path) -> std::io::Result<World> {
        let t = Instant::now();
        let net = generate(&NetGenConfig::paper_2020(ases, seed));
        let generate_ms = ms_since(t);
        let text = caida::write_serial2(&net.truth);
        let as_rel_path = dir.join("as-rel.txt");
        std::fs::write(&as_rel_path, &text)?;

        let mut asns: Vec<u32> = net.truth.asns().map(|a| a.0).collect();
        asns.sort_unstable();
        let mut eyeballs: Vec<(u32, f64)> = net
            .meta
            .iter()
            .filter(|m| m.users > 0)
            .map(|m| (m.asn.0, m.users as f64))
            .collect();
        eyeballs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        eyeballs.truncate(World::EYEBALLS);
        let clouds = net.clouds.iter().map(|c| c.asn.0).collect();
        Ok(World {
            as_rel_path,
            as_rel_bytes: text.len(),
            asns,
            eyeballs,
            clouds,
            generate_ms,
        })
    }
}

/// The harness's own view of the topology, built from the as-rel file
/// exactly as `flatnet_serve::snapshot` builds the daemon's (strict
/// serial-2 parse, inferred tiers, health gate, compile), plus one
/// scalar workspace to answer queries with.
pub struct Reference {
    pub snap: StoredSnapshot,
    ws: Workspace,
    cfg: PropagationConfig,
    pub parse_ms: f64,
    pub infer_tiers_ms: f64,
    pub validate_ms: f64,
    pub compile_ms: f64,
    /// `--inject-wrong-expected`: every expected reach count is off by
    /// one, so verification must fail.
    pub corrupt: bool,
}

impl Reference {
    pub fn load(as_rel_path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(as_rel_path)
            .map_err(|e| format!("{}: {e}", as_rel_path.display()))?;
        let t = Instant::now();
        let (builder, _) = caida::parse_serial2_with(text.as_bytes(), &ParseOptions::strict())
            .map_err(|e| format!("{}: {e}", as_rel_path.display()))?;
        let conflicts = builder.conflicts().to_vec();
        let graph = builder.build();
        let parse_ms = ms_since(t);

        let t = Instant::now();
        let tiers = infer_tiers(&graph, 32, 28);
        let infer_tiers_ms = ms_since(t);

        let t = Instant::now();
        let asns_of = |nodes: &[NodeId]| nodes.iter().map(|&n| graph.asn(n)).collect::<Vec<AsId>>();
        let report = validate_topology(
            &graph,
            &asns_of(tiers.tier1()),
            &asns_of(tiers.tier2()),
            &conflicts,
            &ValidateOptions::default(),
        );
        let validate_ms = ms_since(t);
        if !report.is_usable() {
            return Err(format!(
                "generated topology fails the health gate:\n{}",
                report.render()
            ));
        }

        let t = Instant::now();
        let topo = TopologySnapshot::compile(&graph);
        let compile_ms = ms_since(t);
        let ws = Workspace::for_snapshot(&topo);
        Ok(Reference {
            snap: StoredSnapshot {
                version: 1,
                graph,
                tiers,
                topo,
            },
            ws,
            cfg: PropagationConfig::default(),
            parse_ms,
            infer_tiers_ms,
            validate_ms,
            compile_ms,
            corrupt: false,
        })
    }

    /// The set-up metrics of the layers between the as-rel file and a
    /// compiled snapshot, as timed while this reference was built.
    pub fn report_setup_layers(&self, world: &World, m: &mut Metrics) {
        m.set("netgen.generate_ms", world.generate_ms);
        m.set("asgraph.parse_ms", self.parse_ms);
        m.set(
            "asgraph.parse_mb_per_s",
            world.as_rel_bytes as f64 / 1e6 / (self.parse_ms / 1e3),
        );
        m.set("asgraph.infer_tiers_ms", self.infer_tiers_ms);
        m.set("asgraph.validate_ms", self.validate_ms);
        m.set("bgpsim.compile_ms", self.compile_ms);
    }

    pub fn graph(&self) -> &AsGraph {
        &self.snap.graph
    }

    pub fn tiers(&self) -> &Tiers {
        &self.snap.tiers
    }

    pub fn node(&self, asn: u32) -> Result<NodeId, String> {
        self.snap
            .graph
            .index_of(AsId(asn))
            .ok_or_else(|| format!("AS{asn} not in the reference graph"))
    }

    /// The excluded-node mask of `bits` for `node`: its providers and the
    /// tier sets, the origin itself never excluded.
    pub fn exclusion_mask(&self, node: NodeId, bits: u8) -> Vec<bool> {
        let g = &self.snap.graph;
        let mut mask = vec![false; g.len()];
        if bits & EXCL_PROVIDERS != 0 {
            for &p in g.providers(node) {
                mask[p.idx()] = true;
            }
        }
        if bits & EXCL_TIER1 != 0 {
            for &t in self.snap.tiers.tier1() {
                mask[t.idx()] = true;
            }
        }
        if bits & EXCL_TIER2 != 0 {
            for &t in self.snap.tiers.tier2() {
                mask[t.idx()] = true;
            }
        }
        mask[node.idx()] = false;
        mask
    }

    /// Propagates `asn` under `bits` on the scalar engine; the workspace
    /// holds the outcome afterwards.
    fn run(&mut self, asn: u32, bits: u8) -> Result<NodeId, String> {
        let node = self.node(asn)?;
        let mask = self.exclusion_mask(node, bits);
        self.cfg
            .excluded_mask_mut(mask.len())
            .copy_from_slice(&mask);
        self.ws.run(&self.snap.topo, node, &self.cfg);
        Ok(node)
    }

    /// ASes reached from `asn` under `bits`, the origin not counted.
    pub fn reach_count(&mut self, asn: u32, bits: u8) -> Result<usize, String> {
        self.run(asn, bits)?;
        Ok(self.ws.reachable_count() + usize::from(self.corrupt))
    }

    /// [`Reference::reach_count`] for many origins at once, on the lane
    /// kernel: tier exclusions in the shared mask, each origin's
    /// providers in its own lane.
    pub fn reach_counts_kernel(&self, asns: &[u32], bits: u8) -> Result<Vec<usize>, String> {
        let g = &self.snap.graph;
        let nodes: Vec<NodeId> = asns
            .iter()
            .map(|&a| self.node(a))
            .collect::<Result<_, _>>()?;
        let mut shared = vec![false; g.len()];
        let tiers = [
            (EXCL_TIER1, self.snap.tiers.tier1()),
            (EXCL_TIER2, self.snap.tiers.tier2()),
        ];
        for (_, members) in tiers.iter().filter(|(bit, _)| bits & bit != 0) {
            for t in members.iter() {
                shared[t.idx()] = true;
            }
        }
        let counts = Simulation::over(&self.snap.topo)
            .excluded(shared)
            .run_sweep_reach_counts_with(&nodes, |o, ex| {
                if bits & EXCL_PROVIDERS != 0 {
                    for &p in g.providers(o) {
                        ex.exclude(p);
                    }
                }
                ex.allow(o);
            });
        Ok(counts
            .into_iter()
            .map(|c| c as usize + usize::from(self.corrupt))
            .collect())
    }

    /// The reached ASNs, ascending, the origin left out.
    pub fn reach_set(&mut self, asn: u32, bits: u8) -> Result<Vec<u32>, String> {
        let origin = self.run(asn, bits)?;
        let g = &self.snap.graph;
        let mut set: Vec<u32> = g
            .nodes()
            .filter(|&n| n != origin && self.ws.reachable(n))
            .map(|n| g.asn(n).0)
            .collect();
        set.sort_unstable();
        Ok(set)
    }

    /// `(receivers, [(asn, rely)] descending)` for `asn` with no
    /// exclusions, as `GET /v1/reliance` defines them.
    pub fn reliance(&mut self, asn: u32) -> Result<(f64, Vec<(u32, f64)>), String> {
        let origin = self.run(asn, 0)?;
        let g = &self.snap.graph;
        let dag = NextHopDag::build(g, &self.cfg, &self.ws.to_outcome());
        let scores = reliance(&dag);
        let mut top: Vec<(u32, f64)> = g
            .nodes()
            .filter(|&n| n != origin && scores[n.idx()] > 0.0)
            .map(|n| (g.asn(n).0, scores[n.idx()]))
            .collect();
        top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        Ok((scores[origin.idx()], top))
    }

    /// The leak CDF `POST /v1/whatif/leak` answers from (announce to all).
    pub fn leak(
        &self,
        victim: u32,
        leakers: usize,
        lock: Locking,
        seed: u64,
    ) -> Result<LeakCdf, String> {
        leak_cdf(
            &self.snap.graph,
            &self.snap.tiers,
            AsId(victim),
            Announce::ToAll,
            lock,
            leakers,
            seed,
            None,
        )
        .ok_or_else(|| format!("AS{victim} not in the reference graph"))
    }
}

/// The `lock` names of the leak endpoint, in the order the `cold`
/// workload cycles them.
pub const LOCKS: [(&str, Locking); 4] = [
    ("none", Locking::None),
    ("t1", Locking::Tier1),
    ("t12", Locking::Tier12),
    ("global", Locking::Global),
];

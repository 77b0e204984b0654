//! The `sweep` workload: the paper's own computation, called as a
//! library. No sockets — one caller, `Simulation::threads(2)`, a fixed
//! cycle of ten calls over the paper-scale topology.

use crate::metrics::Metrics;
use crate::ops::Kind;
use crate::replay;
use crate::stats::{cyclic_mix, Rng};
use crate::trace::Trace;
use crate::window::{run_window, Caller, OpDone, Window};
use crate::world::{ms_since, Reference, World, HIERARCHY_FREE};
use crate::{report_window, Opts, Outcome, Workload};
use flatnet_asgraph::{AsId, NodeId};
use flatnet_bgpsim::{LaneExcluder, Simulation};
use flatnet_core::leaks::{leak_cdf, Announce, Locking};
use flatnet_core::reachability::hierarchy_free_all_t;
use flatnet_core::reliance_exp::reliance_under_hierarchy_free;
use std::hint::black_box;
use std::time::Instant;

/// Worker threads of every sweep (the reference box has two cores).
const THREADS: usize = 2;
const DENSE_ORIGINS: usize = 512;
/// Six 256-lane blocks. At 2 048 origins a hierarchy-free sweep cost a
/// quarter more than a dense sweep or a leak CDF, and the median call sat
/// on the edge between those kinds; at 1 536 the three cost about the
/// same 8–9 ms and the median lies inside them.
const HFREE_ORIGINS: usize = 1536;
const LEAKERS: usize = 2;
/// Origins whose kernel counts are checked against the scalar engine.
const VERIFY_ORIGINS: usize = 64;

/// The two sweep configurations, built once per run: every phase uses
/// the same pooled lane workspaces, as a long-lived caller would.
struct Sims<'a> {
    dense: Simulation<'a>,
    hfree: Simulation<'a>,
}

impl<'a> Sims<'a> {
    fn new(reference: &'a Reference) -> Sims<'a> {
        let topo = &reference.snap.topo;
        let mut tier_mask = vec![false; reference.graph().len()];
        for &t in reference
            .tiers()
            .tier1()
            .iter()
            .chain(reference.tiers().tier2())
        {
            tier_mask[t.idx()] = true;
        }
        Sims {
            dense: Simulation::over(topo).threads(THREADS),
            hfree: Simulation::over(topo).threads(THREADS).excluded(tier_mask),
        }
    }
}

/// The inputs of the cycle: seeded origin lists, re-drawn per call.
struct Cycle<'a> {
    reference: &'a Reference,
    world: &'a World,
    sims: &'a Sims<'a>,
    mix: Vec<Kind>,
    rng: Rng,
}

fn fill_providers<'g>(
    reference: &'g Reference,
) -> impl Fn(NodeId, &mut LaneExcluder<'_>) + Sync + 'g {
    let g = reference.graph();
    move |o, ex| {
        for &p in g.providers(o) {
            ex.exclude(p);
        }
        ex.allow(o);
    }
}

impl<'a> Cycle<'a> {
    fn new(reference: &'a Reference, world: &'a World, sims: &'a Sims<'a>, seed: u64) -> Cycle<'a> {
        Cycle {
            reference,
            world,
            sims,
            // 3 dense, 3 hierarchy-free, 2 reliance, 2 leak per ten calls.
            mix: cyclic_mix(&[
                (Kind::Dense, 3),
                (Kind::Hfree, 3),
                (Kind::Reliance, 2),
                (Kind::Leak, 2),
            ]),
            rng: Rng::new(seed, 0x5EE9),
        }
    }

    fn origins(&mut self, n: usize) -> Vec<NodeId> {
        let count = self.reference.graph().len();
        (0..n)
            .map(|_| NodeId(self.rng.below(count) as u32))
            .collect()
    }

    /// The `i`-th call of the cycle.
    fn call(&mut self, i: usize) -> Result<OpDone, String> {
        let kind = self.mix[i % self.mix.len()];
        let (g, tiers) = (self.reference.graph(), self.reference.tiers());
        let cloud = AsId(self.world.clouds[i % self.world.clouds.len()]);
        let origins = match kind {
            Kind::Dense => {
                let origins = self.origins(DENSE_ORIGINS);
                let counts = self.sims.dense.run_sweep_reach_counts(&origins);
                if counts.len() != origins.len() {
                    return Err("dense sweep lost origins".into());
                }
                black_box(counts).len()
            }
            Kind::Hfree => {
                let origins = self.origins(HFREE_ORIGINS);
                let counts = self
                    .sims
                    .hfree
                    .run_sweep_reach_counts_with(&origins, fill_providers(self.reference));
                if counts.len() != origins.len() {
                    return Err("hierarchy-free sweep lost origins".into());
                }
                black_box(counts).len()
            }
            Kind::Reliance => {
                black_box(
                    reliance_under_hierarchy_free(g, tiers, cloud).ok_or("cloud AS missing")?,
                );
                1
            }
            _ => {
                let cdf = leak_cdf(
                    g,
                    tiers,
                    cloud,
                    Announce::ToAll,
                    Locking::None,
                    LEAKERS,
                    i as u64,
                    None,
                );
                black_box(cdf.ok_or("cloud AS missing")?);
                1
            }
        };
        Ok(OpDone {
            kind,
            bytes: 0,
            origins: origins as u64,
            io: None,
            dialed: false,
        })
    }
}

/// Kernel counts against scalar `Workspace` counts for 64 origins under
/// both exclusion regimes, plus a checksum over everything the cycle
/// computes for fixed inputs — identical across runs of one seed.
fn verify(
    reference: &mut Reference,
    world: &World,
    seed: u64,
) -> Result<(u64, Vec<String>, u64), String> {
    let mut rng = Rng::new(seed, 0x7E57);
    let asns: Vec<u32> = (0..VERIFY_ORIGINS)
        .map(|_| world.asns[rng.below(world.asns.len())])
        .collect();
    let nodes: Vec<NodeId> = asns
        .iter()
        .map(|&a| reference.node(a))
        .collect::<Result<_, _>>()?;
    let (dense, hfree) = {
        let sims = Sims::new(reference);
        (
            sims.dense.run_sweep_reach_counts(&nodes),
            sims.hfree
                .run_sweep_reach_counts_with(&nodes, fill_providers(reference)),
        )
    };
    let mut mismatches = Vec::new();
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |v: u64| checksum = (checksum ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    for (k, &asn) in asns.iter().enumerate() {
        for (bits, kernel) in [(0, dense[k]), (HIERARCHY_FREE, hfree[k])] {
            let scalar = reference.reach_count(asn, bits)?;
            if scalar != kernel as usize {
                mismatches.push(format!(
                    "AS{asn} exclude={bits}: kernel {kernel}, scalar engine {scalar}"
                ));
            }
            fold(kernel as u64);
        }
    }
    let cloud = AsId(world.clouds[0]);
    let profile = reliance_under_hierarchy_free(reference.graph(), reference.tiers(), cloud)
        .ok_or("cloud AS missing")?;
    fold(profile.receivers as u64);
    for e in profile.top(20) {
        fold(e.asn.0 as u64);
        fold(e.rely.to_bits());
    }
    let cdf = leak_cdf(
        reference.graph(),
        reference.tiers(),
        cloud,
        Announce::ToAll,
        Locking::None,
        LEAKERS,
        1,
        None,
    )
    .ok_or("cloud AS missing")?;
    cdf.fractions.iter().for_each(|f| fold(f.to_bits()));
    Ok((2 * VERIFY_ORIGINS as u64, mismatches, checksum))
}

fn window(
    reference: &Reference,
    world: &World,
    sims: &Sims<'_>,
    seed: u64,
    seconds: f64,
    keep_spans: usize,
) -> Window {
    let mut cycle = Cycle::new(reference, world, sims, seed);
    let caller: Caller<'_> = Box::new(move |i| cycle.call(i));
    run_window(vec![caller], seconds, keep_spans)
}

/// Replays the first five cycles call by call, each as a span named
/// after the layer entered, and returns the mean call time in µs.
fn replay_cycles(
    reference: &Reference,
    world: &World,
    sims: &Sims<'_>,
    seed: u64,
    trace: &mut Trace,
) -> Result<f64, String> {
    const CALLS: usize = 50;
    let mut cycle = Cycle::new(reference, world, sims, seed);
    let mut total_ns = 0.0;
    for i in 0..CALLS {
        let layer = match cycle.mix[i % cycle.mix.len()] {
            Kind::Dense => "bgpsim.lane_sweep.dense",
            Kind::Hfree => "bgpsim.lane_sweep.hfree",
            Kind::Reliance => "core.reliance_profile",
            _ => "core.leak_cdf",
        };
        let (done, ns) = trace.time(i as u32, layer, None, || cycle.call(i));
        done?;
        total_ns += ns;
    }
    Ok(total_ns / CALLS as f64 / 1e3)
}

/// `core.*`: the paper's three experiments through `flatnet_core`'s
/// public entry points, once each.
fn core_layers(reference: &Reference, world: &World, m: &mut Metrics) -> Result<(), String> {
    let (g, tiers) = (reference.graph(), reference.tiers());
    let cloud = AsId(world.clouds[0]);
    let t = Instant::now();
    black_box(hierarchy_free_all_t(g, tiers, THREADS));
    m.set("core.hfree_all_ms", ms_since(t));
    let t = Instant::now();
    black_box(reliance_under_hierarchy_free(g, tiers, cloud).ok_or("cloud AS missing")?);
    m.set("core.reliance_profile_ms", ms_since(t));
    let t = Instant::now();
    black_box(
        leak_cdf(
            g,
            tiers,
            cloud,
            Announce::ToAll,
            Locking::None,
            LEAKERS,
            1,
            None,
        )
        .ok_or("cloud AS missing")?,
    );
    m.set("core.leak_cdf_ms", ms_since(t));
    Ok(())
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    // Set-up as a library user pays it: generate, write the as-rel file,
    // read it back, infer tiers, pass the health gate, compile.
    let t = Instant::now();
    let world = World::generate(opts.ases, opts.seed, &opts.scratch).map_err(|e| e.to_string())?;
    let mut reference = Reference::load(&world.as_rel_path)?;
    let setup_s = t.elapsed().as_secs_f64();
    reference.corrupt = opts.inject_wrong_expected;

    let (verified, mismatches, checksum) = verify(&mut reference, &world, opts.seed)?;
    println!("sweep checksum: {checksum:016x}");
    let mut out = Outcome::new(verified, &mismatches);
    out.checksum = Some(checksum);
    let sims = Sims::new(&reference);
    let warmup = window(&reference, &world, &sims, opts.seed, opts.warmup_s, 0);
    out.absorb_failures(&warmup);

    if !opts.trace {
        let w = window(&reference, &world, &sims, opts.seed, opts.seconds, 0);
        out.absorb_failures(&w);
        report_window(&w, setup_s, &mut out.metrics);
        Outcome::print_window(Workload::Sweep, "measured window (tracing off)", &w);
    } else {
        let untraced = window(
            &reference,
            &world,
            &sims,
            opts.seed,
            opts.seconds * 2.0 / 3.0,
            0,
        );
        out.absorb_failures(&untraced);
        report_window(&untraced, setup_s, &mut out.metrics);
        Outcome::print_window(Workload::Sweep, "untraced window", &untraced);
        let traced = window(
            &reference,
            &world,
            &sims,
            opts.seed,
            opts.seconds / 3.0,
            crate::serving::TRACED_OPS,
        );
        out.absorb_failures(&traced);
        Outcome::print_window(Workload::Sweep, "traced window", &traced);

        let m = &mut out.metrics;
        crate::report_traced_window(&traced, &untraced, m);
        reference.report_setup_layers(&world, m);

        // The layer under a library call is the call's own entry point,
        // so the replay runs the first cycles again, one call at a time
        // with nothing else in flight, under the layer's name.
        let mut trace = Trace::new();
        crate::client_spans(&traced, &mut trace);
        let replayed_us = replay_cycles(&reference, &world, &sims, opts.seed, &mut trace)?;
        replay::bgpsim_layers(&reference, &world.asns, opts.seed, m)?;
        core_layers(&reference, &world, m)?;
        replay::obs_layers(m);
        m.set(
            "trace.reconcile_ratio",
            replayed_us / traced.mean_latency_us().max(1e-9),
        );
        out.reconcile_line(Workload::Sweep, &traced, replayed_us);
        let path = opts.out_dir.join("trace-sweep.json");
        trace
            .write_json(&path, "sweep", opts.seed)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {} spans -> {}", trace.spans.len(), path.display());
    }
    Ok(out)
}

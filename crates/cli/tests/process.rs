//! What only the `flatnet` *process* can show, driven through the built
//! binary: flags reaching the daemons, spawned shards and their pids,
//! `/admin/shutdown` ending a process with exit 0, `--metrics` writing the
//! snapshot on the way out, and no child left holding a port. Everything
//! a library test can hold is held there (DESIGN.md, "Retired gates").
//!
//! Topologies are ≤ 400 ASes. A daemon's address is read from the line it
//! prints, fixed ports come from [`free_ports`], and a [`Proc`] kills its
//! child on drop, so a failed assertion leaves nothing running.

use flatnet_wire::{Client, Reply};
use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU16, Ordering};
use std::time::{Duration, Instant};

const STORE_DATA: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../store/tests/data");

fn flatnet(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_flatnet"));
    cmd.args(args).stdin(Stdio::null()).stderr(Stdio::null());
    cmd
}

/// Runs a command to its end: exit code, stdout, stderr.
fn run(args: &[&str]) -> (i32, String, String) {
    let out = flatnet(args).stderr(Stdio::piped()).output().expect("spawn flatnet");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code().unwrap_or(-1), text(&out.stdout), text(&out.stderr))
}

/// A running `flatnet`, killed and reaped on drop.
struct Proc(Child);

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Proc {
    /// The exit code, once the process ends by itself.
    fn exit_code(mut self) -> i32 {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.0.try_wait().expect("try_wait") {
                Some(status) => return status.code().unwrap_or(-1),
                None if Instant::now() > deadline => panic!("flatnet did not exit"),
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }
}

fn client(addr: &str) -> Client {
    Client::new(addr.to_string(), Duration::from_secs(30))
}

fn get(server: &Client, target: &str) -> Reply {
    server.one_shot("GET", target).unwrap_or_else(|e| panic!("GET {target}: {e}"))
}

/// `POST /admin/shutdown`, then the exit code the process leaves with.
fn shut_down(proc: Proc, server: &Client) -> i32 {
    server.one_shot("POST", "/admin/shutdown").expect("POST /admin/shutdown");
    proc.exit_code()
}

/// Starts `flatnet serve --addr 127.0.0.1:0 ARGS` and reads the bound
/// address off the line it prints once it listens.
fn serve(args: &[&str]) -> (Proc, Client) {
    let args = [&["serve", "--addr", "127.0.0.1:0"], args].concat();
    let mut proc = Proc(flatnet(&args).stdout(Stdio::piped()).spawn().expect("spawn serve"));
    // The pipe stays open in `proc`: the daemon prints once more as it exits.
    let mut line = String::new();
    BufReader::new(proc.0.stdout.as_mut().expect("piped")).read_line(&mut line).expect("stdout");
    let addr = line
        .trim()
        .strip_prefix("flatnet-serve listening on http://")
        .unwrap_or_else(|| panic!("no listening line, got {line:?}"));
    (proc, client(addr))
}

/// `n` consecutive free ports, a fresh stretch per call, below the
/// ephemeral range that the `:0` binds of the tests beside this one draw
/// from.
fn free_ports(n: u16) -> u16 {
    static NEXT: AtomicU16 = AtomicU16::new(0);
    loop {
        let base = 21_000 + (std::process::id() % 400) as u16 * 20 + NEXT.fetch_add(n, Ordering::Relaxed);
        if (base..base + n).all(|p| TcpListener::bind(("127.0.0.1", p)).is_ok()) {
            return base;
        }
    }
}

fn refuses_connections(port: u16) -> bool {
    TcpStream::connect(("127.0.0.1", port)).is_err()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flatnet-process-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn repro_metrics_file_holds_the_pipeline_phases_and_the_parser_counters() {
    let dir = scratch("metrics");
    let file = dir.join("m.json");
    let (code, _, err) =
        run(&["repro", "fig2", "--fast", "--ases", "400", "--metrics", file.to_str().unwrap()]);
    assert_eq!(code, 0, "{err}");
    // `from_json` refuses any schema but flatnet-obs/v2.
    let snap = flatnet_obs::Snapshot::from_json(&std::fs::read_to_string(&file).unwrap()).unwrap();
    for phase in ["preflight", "measure", "campaign", "infer", "augment", "propagate", "report"] {
        let name = format!("pipeline.phase_us{{phase=\"{phase}\"}}");
        assert!(snap.histograms.get(&name).is_some_and(|h| h.count() > 0), "{name} never timed");
    }
    for format in ["caida", "mrt", "scamper", "warts", "prefixdb"] {
        let name = format!("parse.{format}.records_ok");
        assert!(snap.counters.contains_key(&name), "missing {name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--fast` picks the base scale; `--ases`, `--seed` and `--leakers` hold
/// on top of it on either side of it.
#[test]
fn repro_scale_flags_hold_on_either_side_of_fast() {
    let header = "# flatnet repro — 300 ASes (2020 epoch), seed 7, 9 leak sims/config";
    for args in [
        ["table3", "--ases", "300", "--seed", "7", "--leakers", "9", "--fast"],
        ["table3", "--fast", "--ases", "300", "--seed", "7", "--leakers", "9"],
    ] {
        let (code, out, err) = run(&[&["repro"], &args[..]].concat());
        assert_eq!(code, 0, "{args:?}: {err}");
        assert_eq!(out.lines().next(), Some(header), "{args:?}");
    }
    // The flags not given keep `--fast`'s values.
    let (code, out, _) = run(&["repro", "table3", "--ases", "300", "--fast"]);
    assert_eq!(code, 0);
    let header = "# flatnet repro — 300 ASes (2020 epoch), seed 2020, 60 leak sims/config";
    assert_eq!(out.lines().next(), Some(header));
}

#[test]
fn serve_takes_its_flags_answers_and_exits_zero_on_shutdown() {
    let (proc, daemon) = serve(&["--ases", "300", "--seed", "5", "--workers", "3"]);
    let health = get(&daemon, "/healthz");
    assert_eq!(health.status, 200);
    assert!(health.body.contains(r#""ases":300,"workers":3,"#), "{}", health.body);
    let answer = get(&daemon, "/v1/reachability?origin=15169");
    assert_eq!(answer.status, 200);
    assert!(answer.body.contains(r#""schema":"flatnet-serve/v1""#), "{}", answer.body);
    let refused = get(&daemon, "/v1/reachability?origin=nope");
    assert!(refused.body.contains(r#""error":{"kind":"bad-request""#), "{}", refused.body);
    assert_eq!(shut_down(proc, &daemon), 0);
}

#[test]
fn a_saved_store_warm_starts_and_a_flipped_byte_is_healed() {
    let dir = scratch("store");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (rel, store) = (path("ds/as-rel-truth.txt"), path("snap.store"));
    assert_eq!(run(&["gen", "--out", &path("ds"), "--ases", "400", "--seed", "5"]).0, 0);
    let (code, _, err) = run(&["snapshot", "save", "--out", &store, "--as-rel", &rel]);
    assert_eq!(code, 0, "{err}");

    // Graph and tiers and nothing compiled from them: 9 bytes a link, 4
    // an AS. Adjacency arrays (8 more a link, 12 an AS) would not fit.
    let (code, verified, _) = run(&["snapshot", "verify", "--store", &store]);
    assert_eq!(code, 0);
    let number_before = |unit: &str| -> u64 {
        let digits = verified.split(unit).next().unwrap().rsplit([' ', '(']).next().unwrap();
        digits.replace(',', "").parse().unwrap_or_else(|_| panic!("no count before {unit:?}: {verified}"))
    };
    let (ases, links, bytes) = (number_before(" ASes"), number_before(" links"), number_before(" bytes"));
    assert!(ases == 400 && bytes < 9 * links + 4 * ases + 4096, "{verified}");

    let warm_start = |want: bool| {
        let (proc, daemon) = serve(&["--as-rel", &rel, "--store", &store]);
        let health = get(&daemon, "/healthz").body;
        assert!(health.contains(&format!(r#""warm_start":{want}"#)), "{health}");
        assert_eq!(get(&daemon, "/v1/reachability?origin=15169").status, 200);
        assert_eq!(shut_down(proc, &daemon), 0);
    };
    warm_start(true);
    let mut image = std::fs::read(&store).unwrap();
    let middle = image.len() / 2;
    image[middle] ^= 0x40;
    std::fs::write(&store, image).unwrap();
    assert_ne!(run(&["snapshot", "verify", "--store", &store]).0, 0);
    // Rejected, rebuilt from the source, served, and rewritten.
    warm_start(false);
    assert_eq!(run(&["snapshot", "verify", "--store", &store]).0, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_verify_refuses_format_v1_and_retired_commands_are_unknown() {
    let (code, _, err) = run(&["snapshot", "verify", "--store", &format!("{STORE_DATA}/tiny.v1.store")]);
    assert_eq!(code, 1);
    assert!(err.contains("unsupported store format version 1"), "{err}");
    assert_eq!(run(&["snapshot", "verify", "--store", &format!("{STORE_DATA}/tiny.store")]).0, 0);
    // Retired gates answer as any unknown command does: the store's fault
    // cases are `flatnet-store`'s own tests now.
    let (code, _, err) = run(&["snapshot", "fuzz", "--store", &format!("{STORE_DATA}/tiny.store")]);
    assert_eq!(code, 1);
    assert!(err.contains("unknown snapshot subcommand \"fuzz\""), "{err}");
    assert_eq!(run(&["bench", "propagate"]).0, 1);
}

/// A declared Tier-1 the graph lacks reaches the health gate on both
/// shipped paths: a command's `--validate`, and the daemon's snapshot build
/// (`snapshot save` runs it). Tier resolution drops the unknown AS, so a
/// gate that read the resolved sets would call this topology healthy.
#[test]
fn the_health_gate_reads_the_declared_tier_lists() {
    let dir = scratch("tiers");
    let rel = dir.join("as-rel.txt");
    std::fs::write(&rel, "1|2|0\n1|10|-1\n2|11|-1\n").unwrap();
    let rel = rel.to_str().unwrap();
    let store = dir.join("snap.store");
    let tiers = ["--tier1", "1,2,99999"];
    for args in [
        &[&["reach", "--as-rel", rel, "--origin", "10", "--validate"], &tiers[..]].concat(),
        &[&["snapshot", "save", "--out", store.to_str().unwrap(), "--as-rel", rel], &tiers[..]].concat(),
    ] {
        let (code, _, err) = run(args);
        assert_eq!(code, 0, "{args:?}: {err}");
        assert!(err.contains("tier-membership") && err.contains("99999"), "{args:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Starts `flatnet router --shards 2 ARGS` on `base` (router) and the
/// two ports above it (shards); returns once the router answers.
fn fleet(base: u16, args: &[&str]) -> (Proc, Client) {
    let addr = format!("127.0.0.1:{base}");
    let fleet = ["router", "--shards", "2", "--ases", "300", "--seed", "5"];
    let ports = ["--addr", &addr, "--base-port", &(base + 1).to_string()];
    let args = [&fleet[..], &ports, args].concat();
    let proc = Proc(flatnet(&args).stdout(Stdio::null()).spawn().unwrap());
    let router = client(&addr);
    // The front port is bound only once both shards are healthy.
    let deadline = Instant::now() + Duration::from_secs(30);
    while router.one_shot("GET", "/healthz").is_err() {
        assert!(Instant::now() < deadline, "router never listened");
        std::thread::sleep(Duration::from_millis(20));
    }
    (proc, router)
}

#[test]
fn router_spawns_its_shards_and_takes_them_down_with_it() {
    let dir = scratch("fleet");
    let store = dir.join("fleet.store").to_str().unwrap().to_string();
    let base = free_ports(3);
    // Both shards start cold from the one store path and persist at once.
    let (proc, router) = fleet(base, &["--store", &store]);
    let health = get(&router, "/healthz").body;
    assert!(health.contains(r#""status":"ok","router":true,"shards":2,"#), "{health}");
    let shards = flatnet_wire::json::parse(&get(&router, "/debug/shards").body).unwrap();
    let shards = shards.get("data").and_then(|d| d.get("shards")).and_then(|s| s.as_array()).unwrap();
    assert_eq!(shards.len(), 2);
    for shard in shards {
        assert_eq!(shard.get("healthy").and_then(|h| h.as_bool()), Some(true), "{shard:?}");
        assert!(shard.get("pid").and_then(|p| p.as_u64()).is_some_and(|pid| pid > 0), "{shard:?}");
    }
    let batch = get(&router, "/v1/reachability?origins=15169,8075,32934");
    assert!(batch.status == 200 && batch.body.contains(r#""batch":3"#), "{}", batch.body);
    assert_eq!(shut_down(proc, &router), 0);
    assert!((base..base + 3).all(refuses_connections), "a port outlived the router");

    // The racing saves left one complete image and no temp file.
    assert_eq!(run(&["snapshot", "verify", "--store", &store]).0, 0);
    let files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(files, ["fleet.store"]);
    // And both shards of the next fleet start warm from it.
    let base = free_ports(3);
    let (proc, router) = fleet(base, &["--store", &store]);
    for shard in [base + 1, base + 2] {
        let health = get(&client(&format!("127.0.0.1:{shard}")), "/healthz").body;
        assert!(health.contains(r#""warm_start":true"#), "shard on {shard}: {health}");
    }
    assert_eq!(shut_down(proc, &router), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn router_that_cannot_bind_its_address_leaves_no_shard_behind() {
    let taken = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    let base = free_ports(2);
    let args = ["router", "--shards", "2", "--ases", "300", "--addr", &addr, "--base-port", &base.to_string()];
    // Not `run`: a shard left behind would hold the pipes open for ever.
    let proc = Proc(flatnet(&args).stdout(Stdio::null()).spawn().unwrap());
    assert_eq!(proc.exit_code(), 1);
    assert!((base..base + 2).all(refuses_connections), "an orphaned shard still listens");
}

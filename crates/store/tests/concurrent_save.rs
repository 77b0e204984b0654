//! Saves racing on one store path — the shards of one `flatnet router
//! --store P` persisting their first rebuild at once — all succeed,
//! every load in between reads one of the complete images, and no temp
//! file outlives its save.

use flatnet_asgraph::tiers::infer_tiers;
use flatnet_bgpsim::TopologySnapshot;
use flatnet_netgen::{generate, NetGenConfig};
use flatnet_store::{load, save_atomic, StoredSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

fn snapshot(version: u64, ases: usize, seed: u64) -> StoredSnapshot {
    let graph = generate(&NetGenConfig::paper_2020(ases, seed)).truth;
    let tiers = infer_tiers(&graph, 32, 28);
    let topo = TopologySnapshot::compile(&graph);
    StoredSnapshot { version, graph, tiers, topo }
}

#[test]
fn racing_saves_to_one_path_all_land_and_every_load_reads_a_whole_image() {
    const SAVES: usize = 40;
    let dir = std::env::temp_dir().join(format!("flatnet-store-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snap.store");
    let snaps = [snapshot(1, 2000, 3), snapshot(2, 2000, 4)];
    let shape = |s: &StoredSnapshot| (s.version, s.graph.len(), s.graph.edge_count());
    save_atomic(&path, &snaps[0]).expect("the first save");

    let start = Barrier::new(3);
    let saving = AtomicBool::new(true);
    let (failed, loads) = std::thread::scope(|s| {
        let savers: Vec<_> = snaps
            .iter()
            .map(|snap| {
                let (start, path) = (&start, &path);
                s.spawn(move || {
                    start.wait();
                    (0..SAVES).filter(|_| save_atomic(path, snap).is_err()).count()
                })
            })
            .collect();
        let loader = s.spawn(|| {
            start.wait();
            let mut loads = 0;
            while saving.load(Ordering::SeqCst) {
                let back = load(&path).expect("a load between saves reads a whole image");
                assert!(snaps.iter().any(|s| shape(s) == shape(&back)), "{:?}", shape(&back));
                loads += 1;
            }
            loads
        });
        let failed: usize = savers.into_iter().map(|t| t.join().unwrap()).sum();
        saving.store(false, Ordering::SeqCst);
        (failed, loader.join().unwrap())
    });
    assert_eq!(failed, 0, "{failed} of {} saves failed", 2 * SAVES);
    assert!(loads > 0, "the loader never ran between saves");
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(left, ["snap.store"], "a temp file outlived its save");
    let _ = std::fs::remove_dir_all(&dir);
}

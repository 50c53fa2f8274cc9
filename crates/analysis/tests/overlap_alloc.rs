//! The overlap index remaps vertex ids densely: clusters whose ids sit
//! next to `u32::MAX` must not make `overlap_table` or `lost_and_found`
//! allocate anything sized by the largest id.
//!
//! A counting global allocator tracks the peak of live heap bytes, and
//! refuses any single request above 64 MiB, so an id-sized buffer aborts
//! the test instead of reserving gigabytes. One `#[test]` only: the
//! counters are process-wide.

use casbn_analysis::{lost_and_found, overlap_table};
use casbn_mcode::Cluster;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
const REFUSE_ABOVE: usize = 64 << 20;

impl Counting {
    fn charge(&self, size: usize) {
        let now = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        let p = System.alloc(layout);
        if !p.is_null() {
            self.charge(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            self.charge(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn mk(vertices: Vec<u32>, edges: Vec<(u32, u32)>) -> Cluster {
    Cluster {
        vertices,
        edges,
        score: 0.0,
        seed: 0,
    }
}

#[test]
fn ids_near_u32_max_allocate_by_cluster_size_not_by_id() {
    let top = u32::MAX;
    let original: Vec<Cluster> = (0..64u32)
        .map(|c| {
            let vs: Vec<u32> = (0..8).map(|k| top - (c * 4 + k)).collect();
            let es = vs.windows(2).map(|w| (w[0], w[1])).collect();
            mk(vs, es)
        })
        .collect();
    let filtered: Vec<Cluster> = original
        .iter()
        .map(|c| mk(c.vertices[..5].to_vec(), c.edges[..3].to_vec()))
        .chain([mk(vec![0, top / 2], vec![(0, top)])])
        .collect();

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let table = overlap_table(&original, &filtered);
    let (lost, found) = lost_and_found(&original, &filtered);
    let peak = PEAK.load(Ordering::Relaxed) - base;

    assert_eq!(table.len(), filtered.len());
    assert!(table[..64].iter().all(|r| r.best_original.is_some()));
    assert_eq!(table[64].best_original, None);
    assert!(lost.is_empty());
    assert_eq!(found, vec![64]);
    // the inputs hold ~1,000 ids; the index is a few words per id
    assert!(peak < 256 << 10, "peak {peak} bytes for ~1,000 ids");
}

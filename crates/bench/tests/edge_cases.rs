//! Degenerate inputs for the lab's baseline indexes: heap accounting of
//! IVF-Flat, HNSW and LSH beside the product's progressive index.

use cda_bench::hnsw::{HnswIndex, HnswParams};
use cda_bench::ivf::IvfIndex;
use cda_bench::lsh::{LshIndex, LshParams};
use cda_vector::progressive::ProgressiveIndex;
use cda_vector::VectorSet;

#[test]
fn index_memory_accounting_is_positive_and_ordered() {
    let data = VectorSet::uniform(2000, 16, 9).unwrap();
    let ivf = IvfIndex::build(&data, 16, 1);
    let hnsw = HnswIndex::build(&data, HnswParams::default());
    let lsh = LshIndex::build(&data, LshParams::default());
    let prog = ProgressiveIndex::build(&data, 16, 0, 5, 1);
    for (name, bytes) in [
        ("ivf", ivf.heap_bytes()),
        ("hnsw", hnsw.heap_bytes()),
        ("lsh", lsh.heap_bytes()),
        ("progressive", prog.heap_bytes()),
    ] {
        assert!(bytes > 1000, "{name} reports {bytes} bytes");
        assert!(bytes < 100_000_000, "{name} reports {bytes} bytes");
    }
    // the graph index (adjacency lists, ~2M edges per node) outweighs IVF's
    // flat lists on the same data
    assert!(hnsw.heap_bytes() > ivf.heap_bytes());
}

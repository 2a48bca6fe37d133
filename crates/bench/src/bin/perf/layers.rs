//! Layer kernels: the public functions of the lower layers, timed
//! directly on rows and keys from the workloads' generator. Each kernel
//! runs for a fixed wall budget; its calls are grouped into ten
//! equal-count slices and the metric is the fast-decile slice's cost
//! per operation. Untimed preparation (filling a heap before timing its
//! deletes) is excluded from the cost but counts against the budget.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pvm::engine::{exec, NetPayload};
use pvm::net::{Fabric, MessageSize, NetConfig};
use pvm::prelude::*;
use pvm::runtime::spsc;
use pvm::storage::{
    btree::BPlusTree, AccessMode, BufferPool, FileId, HeapFile, Page, PageKey, TableStorage,
};
use pvm::types::{CostLedger, Rid, SlotId};

use crate::gen::{self, sql, Tpcr};
use crate::registry::Metrics;
use crate::stats;

const ROWS: usize = 2_000;
const SLICES: usize = 10;

/// Run `call` until `budget` is spent. Each call returns (operations,
/// timed nanoseconds). The result is ns per operation of the
/// fast-decile one of [`SLICES`] equal-count groups of calls.
fn kernel(budget: Duration, mut call: impl FnMut() -> (u64, u64)) -> stats::Summary {
    let start = Instant::now();
    let mut calls = Vec::new();
    while calls.len() < SLICES || start.elapsed() < budget {
        calls.push(call());
    }
    let per_slice: Vec<f64> = calls
        .chunks(calls.len() / SLICES)
        .take(SLICES)
        .map(|chunk| {
            let (ops, ns) = chunk.iter().fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
            ns as f64 / ops.max(1) as f64
        })
        .collect();
    stats::summarise(
        &per_slice,
        calls.iter().map(|c| c.0).sum(),
        stats::Pick::FastLow,
    )
}

/// Time `f` once; it returns how many operations it performed.
fn timed(f: impl FnOnce() -> u64) -> (u64, u64) {
    let t0 = Instant::now();
    let ops = f();
    (ops, t0.elapsed().as_nanos() as u64)
}

fn heap_with(rows: &[Vec<u8>]) -> (HeapFile, Vec<Rid>) {
    let mut heap = HeapFile::new(FileId(1), BufferPool::shared(8192));
    let rids = rows
        .iter()
        .map(|r| heap.insert(r).expect("heap insert"))
        .collect();
    (heap, rids)
}

fn tree_with(entries: &[(Vec<u8>, Vec<u8>)]) -> BPlusTree {
    let mut tree = BPlusTree::new(FileId(2), BufferPool::shared(8192));
    for (k, v) in entries {
        tree.insert(k, v).expect("btree insert");
    }
    tree
}

fn table_with(rows: &[Row]) -> TableStorage {
    let mut table = TableStorage::new(
        "customer",
        Tpcr::customer_schema().into_ref(),
        pvm::storage::Organization::Clustered { key: vec![0] },
        0,
        BufferPool::shared(8192),
    );
    let mut ledger = CostLedger::new();
    for r in rows {
        table.insert(r.clone(), &mut ledger).expect("table insert");
    }
    table
}

fn customer_cluster(nodes: usize, rows: Vec<Row>) -> (Cluster, TableId) {
    let mut cluster = Cluster::new(ClusterConfig::new(nodes).with_buffer_pages(8192));
    let table = cluster
        .create_table(TableDef::hash_clustered(
            "customer",
            Tpcr::customer_schema().into_ref(),
            0,
        ))
        .expect("create table");
    cluster.insert(table, rows).expect("load");
    (cluster, table)
}

/// Per-step cost of a program of sending no-op stages on a backend.
fn empty_steps<B: Backend>(backend: &mut B) -> (u64, u64) {
    const STAGES: u64 = 16;
    let mut program = pvm::engine::StepProgram::new();
    for _ in 0..STAGES {
        program = program.stage(|_ctx, carry| Ok(carry));
    }
    let init = vec![Vec::new(); backend.node_count()];
    timed(|| {
        black_box(backend.run_stages(init, &program).expect("empty program"));
        STAGES
    })
}

/// Time every kernel for `each`, returning the `layer kernel` metrics.
pub fn run(seed: u64, each: Duration) -> Metrics {
    let data = Tpcr::new(seed, ROWS as u64);
    let rows = data.customer_rows();
    let encoded: Vec<Vec<u8>> = rows.iter().map(Row::encode).collect();
    let keys: Vec<Vec<u8>> = rows
        .iter()
        .map(|r| r.encode_key(&[0]).expect("key"))
        .collect();
    let mut order: Vec<usize> = (0..ROWS).collect();
    gen::Rng::new(seed ^ 0x1A7E).shuffle(&mut order);
    let mut m = Metrics::default();
    let mut put = |name: &str, s: stats::Summary| m.put(name, s);

    // -- types: the row codec --
    put(
        "types.row.encode_ns",
        kernel(each, || {
            timed(|| {
                rows.iter().for_each(|r| drop(black_box(r.encode())));
                ROWS as u64
            })
        }),
    );
    put(
        "types.row.decode_ns",
        kernel(each, || {
            timed(|| {
                encoded.iter().for_each(|b| drop(black_box(Row::decode(b))));
                ROWS as u64
            })
        }),
    );
    put(
        "types.row.encode_key_ns",
        kernel(each, || {
            timed(|| {
                rows.iter()
                    .for_each(|r| drop(black_box(r.encode_key(&[0]))));
                ROWS as u64
            })
        }),
    );

    // -- storage: slotted page, heap file, B+tree, buffer pool, table --
    put(
        "storage.page.insert_ns",
        kernel(each, || {
            timed(|| {
                let mut page = Page::new();
                let mut n = 0;
                for t in &encoded {
                    if !page.fits(t.len()) {
                        break;
                    }
                    black_box(page.insert(t).expect("page insert"));
                    n += 1;
                }
                n
            })
        }),
    );
    {
        let mut page = Page::new();
        let slots: Vec<SlotId> = encoded
            .iter()
            .take(64)
            .map(|t| page.insert(t).expect("page insert"))
            .collect();
        put(
            "storage.page.get_ns",
            kernel(each, || {
                timed(|| {
                    for _ in 0..16 {
                        slots.iter().for_each(|s| drop(black_box(page.get(*s))));
                    }
                    16 * slots.len() as u64
                })
            }),
        );
    }
    put(
        "storage.heap.insert_ns",
        kernel(each, || {
            timed(|| heap_with(black_box(&encoded)).1.len() as u64)
        }),
    );
    {
        let (heap, rids) = heap_with(&encoded);
        put(
            "storage.heap.get_ns",
            kernel(each, || {
                timed(|| {
                    order
                        .iter()
                        .for_each(|&i| drop(black_box(heap.get(rids[i]))));
                    ROWS as u64
                })
            }),
        );
    }
    put(
        "storage.heap.delete_ns",
        kernel(each, || {
            let (mut heap, rids) = heap_with(&encoded);
            timed(|| {
                order
                    .iter()
                    .for_each(|&i| heap.delete(rids[i]).expect("heap delete"));
                ROWS as u64
            })
        }),
    );
    let entries: Vec<(Vec<u8>, Vec<u8>)> = order
        .iter()
        .map(|&i| {
            (
                keys[i].clone(),
                Rid::new(i as u32 / 64, i as u16 % 64).encode().to_vec(),
            )
        })
        .collect();
    put(
        "storage.btree.insert_ns",
        kernel(each, || timed(|| tree_with(black_box(&entries)).len())),
    );
    {
        let tree = tree_with(&entries);
        put(
            "storage.btree.search_ns",
            kernel(each, || {
                timed(|| {
                    entries
                        .iter()
                        .for_each(|(k, _)| drop(black_box(tree.search(k))));
                    ROWS as u64
                })
            }),
        );
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        put(
            "storage.btree.search_many_ns_per_key",
            kernel(each, || {
                timed(|| {
                    // Probe batches of 64 ascending keys, as a coalesced
                    // maintenance batch does.
                    sorted
                        .chunks(64)
                        .for_each(|c| drop(black_box(tree.search_many(c))));
                    sorted.len() as u64
                })
            }),
        );
    }
    put(
        "storage.btree.delete_ns",
        kernel(each, || {
            let mut tree = tree_with(&entries);
            timed(|| {
                entries.iter().for_each(|(k, v)| {
                    black_box(tree.delete(k, v));
                });
                ROWS as u64
            })
        }),
    );
    {
        let mut pool = BufferPool::new(1024);
        put(
            "storage.buffer.hit_ns",
            kernel(each, || {
                timed(|| {
                    for p in 0..1024 {
                        black_box(pool.access(PageKey::new(FileId(1), p), AccessMode::Read));
                    }
                    1024
                })
            }),
        );
        let mut small = BufferPool::new(64);
        put(
            "storage.buffer.miss_evict_ns",
            kernel(each, || {
                timed(|| {
                    for p in 0..4096 {
                        black_box(small.access(PageKey::new(FileId(1), p), AccessMode::Write));
                    }
                    4096
                })
            }),
        );
    }
    put(
        "storage.table.insert_ns",
        kernel(each, || timed(|| table_with(black_box(&rows)).row_count())),
    );
    put(
        "storage.table.delete_row_ns",
        kernel(each, || {
            // As base-relation deletes run today: by row value, no key hint.
            let mut table = table_with(&rows[..1000]);
            let mut ledger = CostLedger::new();
            timed(|| {
                for &i in order.iter().filter(|&&i| i < 1000).take(100) {
                    black_box(
                        table
                            .delete_row(&rows[i], &[], &mut ledger)
                            .expect("delete_row"),
                    );
                }
                100
            })
        }),
    );
    {
        let table = table_with(&rows);
        let probes: Vec<Row> = order
            .iter()
            .map(|&i| Row::new(vec![rows[i][0].clone()]))
            .collect();
        let mut ledger = CostLedger::new();
        put(
            "storage.table.index_search_ns",
            kernel(each, || {
                timed(|| {
                    for p in &probes {
                        black_box(table.index_search(&[0], p, &mut ledger).expect("search"));
                    }
                    ROWS as u64
                })
            }),
        );
        put(
            "storage.table.index_search_batch_ns_per_key",
            kernel(each, || {
                timed(|| {
                    for c in probes.chunks(64) {
                        black_box(
                            table
                                .index_search_batch(&[0], c, &mut ledger)
                                .expect("batch"),
                        );
                    }
                    ROWS as u64
                })
            }),
        );
    }

    // -- engine: client DML on a 4-node cluster, local join kernels --
    put(
        "engine.cluster.insert_ns_per_row",
        kernel(each, || {
            let (mut cluster, table) = customer_cluster(4, Vec::new());
            let batch = rows.clone();
            timed(|| cluster.insert(table, batch).expect("insert").len() as u64)
        }),
    );
    put(
        "engine.cluster.delete_ns_per_row",
        kernel(each, || {
            let (mut cluster, table) = customer_cluster(4, rows.clone());
            let doomed: Vec<Row> = order.iter().take(200).map(|&i| rows[i].clone()).collect();
            timed(|| cluster.delete(table, &doomed, &[]).expect("delete") as u64)
        }),
    );
    {
        let orders: Vec<Row> = data.orders_rows();
        put(
            "engine.exec.hash_join_ns_per_row",
            kernel(each, || {
                timed(|| {
                    black_box(exec::hash_join(&rows, &orders, 0, 1).expect("hash join"));
                    (rows.len() + orders.len()) as u64
                })
            }),
        );
        let (mut cluster, table) = customer_cluster(1, rows.clone());
        let values: Vec<Value> = order.iter().map(|&i| rows[i][0].clone()).collect();
        put(
            "engine.exec.group_probe_ns_per_key",
            kernel(each, || {
                let node = cluster.node_mut(NodeId::from(0)).expect("node 0");
                timed(|| {
                    for c in values.chunks(64) {
                        black_box(exec::group_probe(node, table, &[0], c).expect("group probe"));
                    }
                    ROWS as u64
                })
            }),
        );
    }

    // -- net: the fabric and payload sizing --
    {
        let mut fabric: Fabric<Vec<u8>> = Fabric::new(4, NetConfig::default());
        put(
            "net.fabric.send_recv_ns",
            kernel(each, || {
                timed(|| {
                    for (i, t) in encoded.iter().take(256).enumerate() {
                        let (src, dst) = (NodeId::from(i % 4), NodeId::from((i + 1) % 4));
                        fabric.send(src, dst, t.clone()).expect("send");
                    }
                    for dst in 0..4 {
                        black_box(fabric.recv_all(NodeId::from(dst)));
                    }
                    256
                })
            }),
        );
        let payload = NetPayload::DeltaRows {
            table: TableId(0),
            rows: rows.clone(),
        };
        put(
            "net.payload.byte_size_ns_per_row",
            kernel(each, || {
                timed(|| {
                    black_box(black_box(&payload).byte_size());
                    ROWS as u64
                })
            }),
        );
    }

    // -- runtime: the SPSC ring and an empty step on each scheduler --
    {
        let (mut tx, mut rx) = spsc::ring::<u64>(256);
        put(
            "runtime.spsc.push_pop_ns",
            kernel(each, || {
                timed(|| {
                    for i in 0..4096u64 {
                        tx.push(i).expect("ring has room");
                        black_box(rx.pop());
                    }
                    4096
                })
            }),
        );
        let config = ClusterConfig::new(2);
        let mut pipe = ThreadedCluster::new(config);
        let step_us = |s: stats::Summary| s.scaled(1e-3);
        put(
            "runtime.pipe.empty_step_us",
            step_us(kernel(each, || empty_steps(&mut pipe))),
        );
        let mut barrier =
            ThreadedCluster::with_runtime(Cluster::new(config), RuntimeConfig::barriered());
        put(
            "runtime.barrier.empty_step_us",
            step_us(kernel(each, || empty_steps(&mut barrier))),
        );
    }

    // -- serve: publish, snapshot, lookup on a JV1-sized chain --
    {
        let view_rows: Vec<Row> = rows.iter().flat_map(|r| data.jv1_rows(r)).collect();
        let publisher = ServePublisher::new("jv1", 0, view_rows.clone(), None);
        let reader = publisher.reader();
        let mut epoch = 0;
        put(
            "serve.publish_ns_per_change",
            kernel(each, || {
                // Delete four rows, then put them back: the chain's
                // contents return to the start after every call.
                let at = (epoch as usize * 4) % (ROWS - 4);
                let block = &view_rows[at..at + 4];
                timed(|| {
                    for insert in [false, true] {
                        epoch += 1;
                        publisher
                            .publish(epoch, block.iter().map(|r| (r.clone(), insert)).collect());
                    }
                    8
                })
            }),
        );
        put(
            "serve.snapshot_ns",
            kernel(each, || {
                timed(|| {
                    (0..256).for_each(|_| drop(black_box(reader.snapshot())));
                    256
                })
            }),
        );
        let snap = reader.snapshot();
        put(
            "serve.lookup_ns",
            kernel(each, || {
                timed(|| {
                    for &i in order.iter().take(256) {
                        black_box(snap.lookup(0, &rows[i][0]));
                    }
                    256
                })
            }),
        );
    }

    // -- sql: lex + parse of the four statements sql_serve issues --
    {
        let k = data.base_keys().start;
        let script = [
            sql::insert(&rows[..4]),
            sql::update(k, 12.25),
            sql::select("jv0", k),
            sql::delete_range(k, k + 3),
        ];
        put(
            "sql.parse_ns_per_stmt",
            kernel(each, || {
                timed(|| {
                    for _ in 0..16 {
                        script
                            .iter()
                            .for_each(|s| drop(black_box(pvm::sql::parse(s))));
                    }
                    16 * script.len() as u64
                })
            }),
        );
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_slices_its_calls_and_counts_operations() {
        let mut n = 0u64;
        let s = kernel(Duration::ZERO, || {
            n += 1;
            (10, 10 * n)
        });
        assert_eq!(s.groups, SLICES);
        assert_eq!(s.samples, 10 * n);
        assert!(s.value >= 1.0 && s.value <= n as f64);
    }
}

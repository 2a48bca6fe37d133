//! Micro-benchmarks of the storage substrate's B+tree: insert, point
//! search (unique and duplicate-heavy keys), ordered scan, a view
//! index's bulk inserts and a partial view's delete/insert churn — the
//! access paths behind SEARCH, INSERT and the sort-merge scan.

use std::collections::VecDeque;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pvm::storage::btree::BPlusTree;
use pvm::storage::{BufferPool, FileId};
use pvm::types::{Rid, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn key(i: u64) -> [u8; 8] {
    i.to_be_bytes()
}

fn loaded_tree(n: u64) -> BPlusTree {
    let mut t = BPlusTree::new(FileId(0), BufferPool::shared(4096));
    for i in 0..n {
        // Scrambled insert order.
        let k = (i * 2654435761) % n;
        t.insert(&key(k), &k.to_be_bytes()).unwrap();
    }
    t
}

fn bench_insert(c: &mut Criterion) {
    c.bench_function("btree/insert_10k_scrambled", |b| {
        b.iter_batched(|| (), |_| loaded_tree(10_000), BatchSize::SmallInput)
    });
}

/// One bulk batch into a view's index: 1 000 join keys in seeded random
/// order, each with 4 rids.
fn bench_insert_view_index(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut keys: Vec<i64> = (0..1000).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..i + 1));
    }
    let entries: Vec<(Vec<u8>, [u8; 6])> = keys
        .iter()
        .flat_map(|&k| {
            (0..4).map(move |j| {
                let rid = Rid::new((k * 4 + j) as u32 / 64, (k * 4 + j) as u16 % 64);
                (Value::Int(k).encode_key(), rid.encode())
            })
        })
        .collect();
    c.bench_function("btree/insert_view_index", |b| {
        b.iter_batched(
            || BPlusTree::new(FileId(2), BufferPool::shared(4096)),
            |mut t| {
                for (k, v) in &entries {
                    t.insert(k, v).unwrap();
                }
                t
            },
            BatchSize::SmallInput,
        )
    });
}

/// A partial view's churn over a loaded tree: each iteration deletes the
/// oldest of 8 live blocks of 4 entries and inserts a fresh block.
fn bench_insert_delete_churn(c: &mut Criterion) {
    const BLOCK: usize = 4;
    let value = |k: u64, version: u64| {
        let mut v = version.to_be_bytes().to_vec();
        v.resize(96, k as u8);
        v
    };
    let mut t = BPlusTree::new(FileId(3), BufferPool::shared(4096));
    for i in 0..2000u64 {
        t.insert(&key(i * 2), &value(i, 0)).unwrap();
    }
    let mut pool: VecDeque<u64> = (0..256u64)
        .map(|i| (i * 2654435761) % 2000 * 2 + 1)
        .collect();
    let mut live: VecDeque<(Vec<u64>, u64)> = VecDeque::new();
    let mut version = 0u64;
    let mut insert_block = |t: &mut BPlusTree, live: &mut VecDeque<_>, pool: &mut VecDeque<u64>| {
        version += 1;
        let keys: Vec<u64> = pool.drain(..BLOCK).collect();
        for &k in &keys {
            t.insert(&key(k), &value(k, version)).unwrap();
        }
        live.push_back((keys, version));
    };
    for _ in 0..8 {
        insert_block(&mut t, &mut live, &mut pool);
    }
    c.bench_function("btree/insert_delete_churn", |b| {
        b.iter(|| {
            let (keys, old) = live.pop_front().unwrap();
            for &k in &keys {
                assert!(t.delete(&key(k), &value(k, old)));
            }
            pool.extend(keys);
            insert_block(&mut t, &mut live, &mut pool);
        })
    });
}

fn bench_search(c: &mut Criterion) {
    let t = loaded_tree(100_000);
    let mut i = 0u64;
    c.bench_function("btree/point_search_100k", |b| {
        b.iter(|| {
            i = (i + 7919) % 100_000;
            std::hint::black_box(t.search(&key(i)));
        })
    });

    // Duplicate-heavy: 100 values × 1,000 entries each.
    let mut dup = BPlusTree::new(FileId(1), BufferPool::shared(4096));
    for i in 0..100_000u64 {
        dup.insert(&key(i % 100), &i.to_be_bytes()).unwrap();
    }
    c.bench_function("btree/dup_search_1000_matches", |b| {
        b.iter(|| {
            i = (i + 13) % 100;
            std::hint::black_box(dup.search(&key(i)).len());
        })
    });
}

fn bench_scan(c: &mut Criterion) {
    let t = loaded_tree(100_000);
    c.bench_function("btree/ordered_scan_100k", |b| {
        b.iter(|| {
            let n = t.scan().count();
            std::hint::black_box(n);
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_insert, bench_insert_view_index, bench_insert_delete_churn, bench_search, bench_scan
}
criterion_main!(benches);

//! The paper's operational-data-warehouse scenario (§3.3) end to end:
//! a TPC-R-shaped warehouse with views JV1 (customer ⋈ orders) and JV2
//! (customer ⋈ orders ⋈ lineitem), receiving a continuous stream of
//! real-time customer updates while the views stay fresh.
//!
//! ```sh
//! cargo run -p pvm --release --example warehouse
//! ```

use pvm::prelude::*;

fn main() -> Result<()> {
    let l = 4;
    println!("== operational warehouse on {l} nodes: TPC-R + JV1 + JV2 ==\n");

    for method in [
        MaintenanceMethod::Naive,
        MaintenanceMethod::AuxiliaryRelation,
    ] {
        let mut cluster = Cluster::new(ClusterConfig::new(l).with_buffer_pages(1_000));
        let dataset = TpcrDataset::new(TpcrScale { customers: 500 });
        dataset.install(&mut cluster)?;
        println!("method: {}", method.label());
        println!(
            "  loaded customer={} orders={} lineitem={}",
            dataset.scale.customers,
            dataset.scale.orders(),
            dataset.scale.lineitems()
        );

        // Three views maintained simultaneously over the shared tables —
        // two joins and a revenue-per-customer aggregate.
        let mut jv1 = MaintainedView::create(&mut cluster, TpcrDataset::jv1(), method)?;
        let mut jv2 = MaintainedView::create(&mut cluster, TpcrDataset::jv2(), method)?;
        let (rev_def, rev_shape) = TpcrDataset::revenue_view();
        let mut revenue =
            MaintainedView::create_aggregate(&mut cluster, rev_def, rev_shape, method)?;

        // A stream of 4 batches × 32 new customers, each matching exactly
        // one order (and therefore 4 lineitems) — the paper's real-time
        // update workload. Each batch updates the base table ONCE and
        // maintains both views from it.
        let mut busiest = 0.0f64;
        let mut total_io = 0.0;
        let deltas = dataset.customer_delta(128);
        for batch in deltas.chunks(32) {
            let outcomes = maintain(
                &mut cluster,
                None,
                &mut [&mut jv1, &mut jv2, &mut revenue],
                "customer",
                &Delta::Insert(batch.to_vec()),
            )?;
            for o in &outcomes {
                busiest = busiest.max(o.compute.response_time_io());
                total_io += o.tw_io();
            }
        }
        jv1.check_consistent(&cluster)?;
        jv2.check_consistent(&cluster)?;
        revenue.check_consistent(&cluster)?;

        println!("  stream applied: 128 customers in 4 batches; all three views consistent");
        println!("  maintenance TW (both views) : {total_io:>8.0} I/Os");
        println!("  busiest-node batch cost     : {busiest:>8.0} I/Os");
        println!(
            "  extra storage JV1 + JV2     : {:>8} pages",
            jv1.storage_overhead_pages(&cluster)? + jv2.storage_overhead_pages(&cluster)?
        );
        println!(
            "  view sizes                  : JV1={} JV2={} revenue groups={}\n",
            jv1.contents(&cluster)?.len(),
            jv2.contents(&cluster)?.len(),
            revenue.contents(&cluster)?.len()
        );
    }

    println!("Note how the AR method does a small, bounded amount of work per batch");
    println!("while the naive method pays an all-node probe for every delta tuple —");
    println!("the paper's motivating observation for operational warehouses.");
    Ok(())
}

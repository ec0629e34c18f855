//! HTAP in action: run graph analytics (PageRank, components, BFS,
//! triangles) over an MVCC snapshot of the social network while update
//! transactions keep committing against the same PMem tables.
//!
//! ```sh
//! cargo run --release --example analytics
//! ```

use pmemgraph::ganalytics::{algo, CsrSnapshot, SnapshotSpec};
use pmemgraph::gquery::ExecCtx;
use pmemgraph::graphcore::{DbOptions, PropOwner, Value};
use pmemgraph::ldbc::{generate, SnbParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("generating social network...");
    let snb = generate(&SnbParams::small(7), DbOptions::dram(1 << 30))?;
    let friendships = SnapshotSpec {
        node_label: snb.db.dict().code_of("Person"),
        rel_label: snb.db.dict().code_of("KNOWS"),
        node_props: Vec::new(),
    };
    let (workers, ctx) = (4, ExecCtx::new(&[]));

    // Analytics snapshot (a plain read transaction).
    let snapshot = snb.db.begin();
    let t = std::time::Instant::now();
    let view = CsrSnapshot::build_at(&snapshot, friendships.clone())?;
    println!(
        "KNOWS snapshot: {} persons, {} edges (built in {:?})",
        view.node_count(),
        view.edge_count(),
        t.elapsed()
    );

    // OLTP keeps going while we crunch — invisible to the snapshot.
    let mut w = snb.db.begin();
    let newcomer = w.create_node("Person", &[("id", Value::Int(999_999))])?;
    let first = view.nodes()[0];
    w.create_rel(newcomer, "KNOWS", first, &[])?;
    w.create_rel(first, "KNOWS", newcomer, &[])?;
    w.commit()?;

    // PageRank: most-connected people.
    let pr = algo::pagerank(&view, 30, 0.85, workers, &ctx)?;
    let mut ranked: Vec<(usize, f64)> = pr.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop-5 by PageRank:");
    for &(dense, score) in ranked.iter().take(5) {
        let node = view.node_id(dense as u32);
        let name = snapshot.prop(PropOwner::Node(node), "firstName")?;
        let id = snapshot.prop(PropOwner::Node(node), "id")?;
        println!("  {score:.5}  person id={id:?} name={name:?}");
    }

    // Connectivity structure.
    let comps = algo::wcc(&view, workers, &ctx)?;
    let distinct: std::collections::HashSet<u32> = comps.iter().copied().collect();
    println!("\nweakly connected components: {}", distinct.len());
    println!(
        "triangles in the friendship graph: {}",
        algo::triangles(&view, workers, &ctx)?
    );

    // BFS reach from the top person.
    let start = view.node_id(ranked[0].0 as u32);
    let depths = algo::bfs(&view, start, workers, &ctx)?;
    let reached = depths.iter().filter(|&&d| d != algo::UNREACHED);
    println!(
        "BFS from the top person reaches {} of {} persons (eccentricity {})",
        reached.clone().count(),
        view.node_count(),
        reached.max().unwrap_or(&0)
    );

    // The snapshot never saw the concurrent commit:
    assert_eq!(view.index_of(newcomer), None);
    let view2 = CsrSnapshot::build(&snb.db, friendships)?;
    assert_eq!(view2.node_count(), view.node_count() + 1);
    println!(
        "\nsnapshot isolation held: analytic view {} persons, fresh view {}",
        view.node_count(),
        view2.node_count()
    );
    Ok(())
}

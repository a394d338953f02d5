//! Influence ranking: compare plain PageRank with the Motif-based PageRank
//! of §IV-B-1 on a synthetic social network, and show how triangular
//! structure changes who counts as influential.
//!
//! ```sh
//! cargo run --release --example influence_ranking
//! ```

use ahntp_data::{DatasetConfig, TrustDataset};
use ahntp_graph::{
    motif_instance_count, motif_pagerank, pagerank, Motif, MotifPageRankConfig, PageRankConfig,
};

fn top_k(scores: &[f64], k: usize) -> Vec<(usize, f64)> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("finite scores"));
    idx.into_iter().take(k).map(|i| (i, scores[i])).collect()
}

fn main() {
    let dataset = TrustDataset::generate(&DatasetConfig::epinions_like(400, 11));
    let g = &dataset.graph;
    println!(
        "social network: {} users, {} trust edges",
        g.n(),
        g.n_edges()
    );

    // How common is each triangular motif in this network?
    println!("\nmotif census (instances per motif of Fig. 4):");
    for motif in Motif::ALL {
        println!("  {motif}: {:>8.0}", motif_instance_count(g, motif));
    }

    // Plain PageRank: popularity by incoming trust alone.
    let pr = pagerank(g, &PageRankConfig::default());
    // Motif-based PageRank (Eqs. 1-5): popularity weighted by participation
    // in M6 triangles ("two friends both trust this user").
    let mpr = motif_pagerank(g, Motif::M6, &MotifPageRankConfig::default());

    println!("\ntop 10 by plain PageRank:");
    for (u, s) in top_k(&pr, 10) {
        println!(
            "  user {u:>4}: score {s:.5}  (in-degree {:>3}, triangles {:>4})",
            g.in_degree(u),
            g.triangle_counts()[u]
        );
    }
    println!("\ntop 10 by Motif-based PageRank (alpha = 0.8, motif M6):");
    for (u, s) in top_k(&mpr, 10) {
        println!(
            "  user {u:>4}: score {s:.5}  (in-degree {:>3}, triangles {:>4})",
            g.in_degree(u),
            g.triangle_counts()[u]
        );
    }

    // Rank-agreement summary: how much does the motif view reshuffle?
    let pr_top: Vec<usize> = top_k(&pr, 20).into_iter().map(|(u, _)| u).collect();
    let mpr_top: Vec<usize> = top_k(&mpr, 20).into_iter().map(|(u, _)| u).collect();
    let overlap = pr_top.iter().filter(|u| mpr_top.contains(u)).count();
    println!(
        "\noverlap of top-20 sets: {overlap}/20 — the motif term promotes users \
         embedded in triangles over bare in-degree hubs"
    );
}

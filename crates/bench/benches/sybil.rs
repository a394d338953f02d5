//! Adversarial trust — the Sybil degradation table of EXPERIMENTS.md.
//!
//! Injects dense Sybil clusters into the Ciao-like dataset
//! (`ahntp_data::inject_sybil`), trains all nine Table IV models on the
//! clean and the attacked graph, and reports per-model degradation:
//! attacked-vs-clean test AUC, undefended sybil-to-honest score
//! inflation on probe pairs, and the same inflation after blending with
//! the personalized-PageRank prior (`AHNTP_PPR_ALPHA`, default 0.3).
//! A first section shows the structural guarantee the defense rests on:
//! escaped PPR mass scales with the attack-edge budget — never with the
//! Sybil head-count — and stays under the Snippet 1 cut bound.
//!
//! Reproduction criteria (shape): every model inflates Sybil scores
//! undefended (ratio > 1), the defended ratio is strictly smaller for
//! every model, and escaped mass grows roughly linearly in the budget.
//! `AHNTP_DEFENSE=1` prints the defended column only.

use ahntp_bench::{build_model, print_row, Dataset, Scale, TABLE4_MODELS};
use ahntp_data::{inject_sybil, SybilConfig};
use ahntp_eval::evaluate_under_attack;
use ahntp_graph::{ppr, region_mass, sybil_mass_bound, trust_prior, PprConfig};

fn main() {
    let scale = Scale::from_env();
    let ds = Dataset::Ciao.generate(&scale);
    let base = SybilConfig {
        sybil_fraction: 0.15,
        n_clusters: 2,
        attack_edges: 12,
        intra_density: 0.8,
        colluding_attributes: 2,
        seed: scale.seed,
    };
    let ppr_cfg = PprConfig::default();

    println!("# Adversarial trust — Sybil degradation (Ciao-like, sybil_fraction=0.15)");
    println!();
    println!("## Escaped PPR mass vs. attack-edge budget");
    println!();
    print_row(&[
        "Attack edges".into(),
        "Escaped mass".into(),
        "Cut bound".into(),
    ]);
    print_row(&vec!["---".into(); 3]);
    for budget in [0usize, 2, 4, 8, 16] {
        let inj = inject_sybil(
            &ds,
            &SybilConfig {
                attack_edges: budget,
                ..base
            },
        );
        let mass = ppr(&inj.dataset.graph, &inj.honest, &ppr_cfg);
        let escaped = region_mass(&mass, &inj.sybil);
        let bound = sybil_mass_bound(
            inj.dataset.graph.adjacency(),
            &mass,
            &inj.attack_edges,
            ppr_cfg.damping,
        );
        print_row(&[
            budget.to_string(),
            format!("{escaped:.6}"),
            format!("{bound:.6}"),
        ]);
    }
    println!();

    let inj = inject_sybil(&ds, &base);
    let probes = inj.probe_pairs(64, scale.seed);
    let mass = ppr(&inj.dataset.graph, &inj.honest, &ppr_cfg);
    let prior = trust_prior(&mass);
    let clean_split = ds.split(0.8, 0.2, 2, scale.seed);
    let attacked_split = inj.dataset.split(0.8, 0.2, 2, scale.seed);
    let train_cfg = scale.train_config();
    let alpha = scale.ppr_alpha;

    println!("## Model degradation under attack (attack_edges=12, α={alpha})");
    println!();
    let mut header = vec![
        "Model".to_string(),
        "Clean AUC".into(),
        "Attacked AUC".into(),
        "AUC drop".into(),
    ];
    if !scale.defense {
        header.push("Inflation (undefended)".into());
    }
    header.push("Inflation (defended)".into());
    print_row(&header);
    print_row(&vec!["---".into(); header.len()]);
    for model in TABLE4_MODELS {
        let mut clean = build_model(model, &ds, &clean_split, &scale).expect("known model");
        let mut attacked =
            build_model(model, &inj.dataset, &attacked_split, &scale).expect("known model");
        let report = evaluate_under_attack(
            clean.as_mut(),
            &clean_split.train,
            &clean_split.test,
            attacked.as_mut(),
            &attacked_split.train,
            &attacked_split.test,
            &probes,
            &prior,
            &[alpha],
            &train_cfg,
        );
        let mut row = vec![
            model.to_string(),
            format!("{:.4}", report.clean.test.auc),
            format!("{:.4}", report.attacked.test.auc),
            format!("{:+.4}", report.auc_drop()),
        ];
        if !scale.defense {
            row.push(format!("{:.3}", report.undefended.ratio()));
        }
        row.push(format!("{:.3}", report.defended[0].inflation.ratio()));
        print_row(&row);
    }
    println!();
    println!(
        "Scale: {} users, {} epochs, seed {} (AHNTP_PPR_ALPHA / AHNTP_DEFENSE tune the defense).",
        scale.users_ciao, scale.epochs, scale.seed
    );
}

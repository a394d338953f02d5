//! Ablation tour: train the full AHNTP and its three §V-C variants on the
//! same split and print what each component buys — a miniature of
//! Figs. 7–8.
//!
//! ```sh
//! cargo run --release --example ablation_tour
//! ```

use ahntp::{Ahntp, AhntpConfig, AhntpVariant};
use ahntp_data::{DatasetConfig, TrustDataset};
use ahntp_eval::{train_and_evaluate, TrainConfig};

fn main() {
    let dataset = TrustDataset::generate(&DatasetConfig::epinions_like(250, 33));
    let split = dataset.split(0.8, 0.2, 2, 4);
    let train_cfg = TrainConfig {
        epochs: 70,
        ..TrainConfig::default()
    };

    let variants = [
        (AhntpVariant::Full, "all components"),
        (
            AhntpVariant::NoMpr,
            "plain PageRank replaces Motif-based PageRank",
        ),
        (
            AhntpVariant::NoAttention,
            "uniform hyperedge weighting (no attention)",
        ),
        (
            AhntpVariant::NoContrastive,
            "cross-entropy only (no contrastive loss)",
        ),
    ];

    println!("dataset: {}\n", dataset.stats());
    let mut full_acc = None;
    for (variant, description) in variants {
        let cfg = AhntpConfig {
            variant,
            ..AhntpConfig::small()
        };
        let mut model = Ahntp::new(
            &dataset.features,
            &dataset.attributes,
            &split.train_graph,
            &cfg,
        );
        let report = train_and_evaluate(&mut model, &split.train, &split.test, &train_cfg);
        let acc = report.test.accuracy;
        let delta = match full_acc {
            None => {
                full_acc = Some(acc);
                String::from("(reference)")
            }
            Some(full) => format!("Δacc {:+.2}pp vs full", (acc - full) * 100.0),
        };
        println!(
            "{:<14} acc {:>6.2}%  f1 {:>6.2}%  auc {:.3}  {}\n               — {}",
            report.model,
            acc * 100.0,
            report.test.f1 * 100.0,
            report.test.auc,
            delta,
            description
        );
    }
}

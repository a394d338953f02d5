//! Table VI — multi-hop experiments: HGNN+ and AHNTP at hop depths 1–3
//! under two layer-width settings on both datasets.
//!
//! Reproduction criterion: at the larger widths, performance degrades with
//! hop count (signal dilution from far neighbours); at the smaller widths,
//! 2 hops can overtake 1 hop — the interaction the paper reports.

use ahntp::{Ahntp, AhntpConfig};
use ahntp_baselines::{BaselineConfig, HgnnPlus};
use ahntp_bench::{pct, print_row, run_prepared, Dataset, Scale};

fn main() {
    let scale = Scale::from_env();
    println!("# Table VI — multi-hop experiments on two datasets");
    println!();
    print_row(&[
        "Model".into(),
        "Dimension".into(),
        "Multi-hop".into(),
        "Ciao Acc".into(),
        "Ciao F1".into(),
        "Epinions Acc".into(),
        "Epinions F1".into(),
    ]);
    print_row(&vec!["---".into(); 7]);

    let dim_settings = [scale.small_dims(), scale.large_dims()];
    let datasets: Vec<_> = Dataset::ALL
        .iter()
        .map(|d| (d.name(), d.generate(&scale)))
        .collect();

    for model_name in ["HGNN+", "AHNTP"] {
        for dims in &dim_settings {
            for hop in 1..=3usize {
                let mut cells = vec![
                    model_name.to_string(),
                    Scale::dims_label(dims),
                    hop.to_string(),
                ];
                for (name, ds) in &datasets {
                    let split = ds.split(0.8, 0.2, 2, scale.seed);
                    let report = match model_name {
                        "HGNN+" => {
                            let mut bcfg = BaselineConfig {
                                seed: scale.seed,
                                ..BaselineConfig::default()
                            };
                            bcfg.adam.lr = scale.lr;
                            let mut m = HgnnPlus::with_architecture(
                                &ds.features,
                                &ds.attributes,
                                &split.train_graph,
                                dims,
                                hop,
                                &bcfg,
                            );
                            run_prepared(&mut m, name, &split, &scale)
                        }
                        _ => {
                            let cfg = AhntpConfig {
                                conv_dims: dims.clone(),
                                tower_dims: vec![16],
                                multi_hops: hop,
                                seed: scale.seed,
                                ..AhntpConfig::default()
                            };
                            let mut m =
                                Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg);
                            run_prepared(&mut m, name, &split, &scale)
                        }
                    };
                    cells.push(pct(report.test.accuracy));
                    cells.push(pct(report.test.f1));
                }
                print_row(&cells);
            }
        }
    }
    println!();
    println!(
        "Dimension settings follow Table VI ({} and {}; paper-exact widths with AHNTP_FULL=1).",
        Scale::dims_label(&scale.small_dims()),
        Scale::dims_label(&scale.large_dims())
    );
}

//! Golden-seeded Sybil attack sweep: escaped personalized-PageRank mass
//! obeys the O(attack edges) cut bound on every swept configuration
//! (cluster counts × attack-edge budgets), scales with the budget rather
//! than the cluster size, and the PPR-defended score blend strictly
//! reduces sybil-to-honest inflation below the undefended model on every
//! configuration. Everything here is seed-deterministic and bitwise
//! thread-invariant — CI runs this suite at `AHNTP_THREADS={1,4}`.

use ahntp_bench::{build_model, Scale};
use ahntp_data::{inject_sybil, DatasetConfig, SybilConfig, TrustDataset};
use ahntp_eval::{
    evaluate_under_attack, score_inflation, train_and_evaluate, DefendedScore, TrainConfig,
};
use ahntp_graph::{ppr, region_mass, sybil_mass_bound, trust_prior, PprConfig};

const SEED: u64 = 2024;
const BUDGETS: [usize; 3] = [2, 4, 8];
const CLUSTERS: [usize; 2] = [1, 2];

fn host() -> TrustDataset {
    TrustDataset::generate(&DatasetConfig::ciao_like(120, SEED))
}

fn attack(n_clusters: usize, attack_edges: usize) -> SybilConfig {
    SybilConfig {
        sybil_fraction: 0.15,
        n_clusters,
        attack_edges,
        intra_density: 0.8,
        colluding_attributes: 2,
        seed: SEED,
    }
}

fn ppr_cfg() -> PprConfig {
    PprConfig {
        tolerance: 1e-12,
        ..PprConfig::default()
    }
}

fn tiny_scale() -> Scale {
    Scale {
        users_ciao: 120,
        users_epinions: 120,
        epochs: 10,
        full: false,
        seed: SEED,
        lr: 5e-3,
        ppr_alpha: 0.3,
        defense: false,
    }
}

#[test]
fn escaped_mass_obeys_the_cut_bound_and_scales_with_the_budget() {
    let h = host();
    let cfg = ppr_cfg();
    for n_clusters in CLUSTERS {
        // Zero attack edges: the Sybil region is unreachable from every
        // honest seed, so its mass is exactly zero — bit for bit.
        let inj0 = inject_sybil(&h, &attack(n_clusters, 0));
        let mass0 = ppr(&inj0.dataset.graph, &inj0.honest, &cfg);
        assert_eq!(
            region_mass(&mass0, &inj0.sybil),
            0.0,
            "{n_clusters} clusters"
        );

        let mut escaped = Vec::new();
        for budget in BUDGETS {
            let inj = inject_sybil(&h, &attack(n_clusters, budget));
            assert_eq!(inj.attack_edges.len(), budget, "budget fully wired");
            let mass = ppr(&inj.dataset.graph, &inj.honest, &cfg);
            let e = region_mass(&mass, &inj.sybil);
            let bound = sybil_mass_bound(
                inj.dataset.graph.adjacency(),
                &mass,
                &inj.attack_edges,
                cfg.damping,
            );
            assert!(e > 0.0, "a non-empty cut leaks some mass");
            assert!(
                e <= bound + 1e-9,
                "escaped {e} exceeds cut bound {bound} ({n_clusters} clusters, budget {budget})"
            );
            escaped.push(e);
        }
        // One seed makes the attack-edge sets nested prefixes across
        // budgets, so escaped mass must be monotone in the budget…
        for w in escaped.windows(2) {
            assert!(w[1] >= w[0], "escaped mass not monotone: {escaped:?}");
        }
        // …and the O(attack edges) claim: the per-edge leak stays within
        // a constant factor across a 4× budget range (linear scaling, not
        // super-linear blow-up and not saturation at zero).
        let per_edge: Vec<f64> = escaped
            .iter()
            .zip(BUDGETS)
            .map(|(e, b)| e / b as f64)
            .collect();
        let (lo, hi) = per_edge
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        assert!(
            hi / lo < 4.0,
            "per-edge leak varies superlinearly: {per_edge:?} ({n_clusters} clusters)"
        );
    }
}

#[test]
fn escaped_mass_depends_on_the_cut_not_the_cluster_size() {
    // Double the Sybil population behind the same attack-edge budget: the
    // bound — and therefore the escaped mass — must not grow with the
    // region, only with the cut.
    let h = host();
    let cfg = ppr_cfg();
    let budget = 6;
    let small = inject_sybil(
        &h,
        &SybilConfig {
            sybil_fraction: 0.15,
            ..attack(2, budget)
        },
    );
    let big = inject_sybil(
        &h,
        &SybilConfig {
            sybil_fraction: 0.45,
            ..attack(2, budget)
        },
    );
    assert!(big.sybil.len() >= 3 * small.sybil.len() - 3);
    let mass_small = ppr(&small.dataset.graph, &small.honest, &cfg);
    let mass_big = ppr(&big.dataset.graph, &big.honest, &cfg);
    let e_small = region_mass(&mass_small, &small.sybil);
    let e_big = region_mass(&mass_big, &big.sybil);
    let bound_big = sybil_mass_bound(
        big.dataset.graph.adjacency(),
        &mass_big,
        &big.attack_edges,
        cfg.damping,
    );
    assert!(e_big <= bound_big + 1e-9);
    // 3× the Sybils buys less than 2× the mass — the cut is the ceiling.
    assert!(
        e_big < 2.0 * e_small,
        "tripling the cluster tripled the mass: {e_small} -> {e_big}"
    );
}

#[test]
fn ppr_prior_is_bitwise_thread_invariant_on_the_attacked_graph() {
    let h = host();
    let inj = inject_sybil(&h, &attack(2, 8));
    let cfg = ppr_cfg();
    let bits_at = |threads: usize| -> Vec<u64> {
        ahntp_par::with_pool(threads, 0, || {
            ppr(&inj.dataset.graph, &inj.honest, &cfg)
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
    };
    let reference = bits_at(1);
    for threads in [2usize, 4] {
        assert_eq!(
            reference,
            bits_at(threads),
            "ppr differs at {threads} threads"
        );
    }
}

#[test]
fn defended_inflation_is_strictly_below_undefended_on_every_swept_config() {
    let h = host();
    let scale = tiny_scale();
    let cfg = ppr_cfg();
    let train_cfg = TrainConfig {
        epochs: 6,
        patience: 0,
        ..TrainConfig::default()
    };
    for n_clusters in CLUSTERS {
        for budget in BUDGETS {
            let inj = inject_sybil(&h, &attack(n_clusters, budget));
            let probes = inj.probe_pairs(40, SEED);
            let prior = trust_prior(&ppr(&inj.dataset.graph, &inj.honest, &cfg));
            let split = inj.dataset.split(0.8, 0.2, 2, SEED);
            let mut model = build_model("SGC", &inj.dataset, &split, &scale).expect("known model");
            train_and_evaluate(model.as_mut(), &split.train, &split.test, &train_cfg);
            let sybil_raw = model.predict(&probes.sybil);
            let honest_raw = model.predict(&probes.honest);
            let undefended = score_inflation(&sybil_raw, &honest_raw);
            let d = DefendedScore::new(scale.ppr_alpha, &prior);
            let defended = score_inflation(
                &d.blend_pairs(&probes.sybil, &sybil_raw),
                &d.blend_pairs(&probes.honest, &honest_raw),
            );
            assert!(
                defended.ratio() < undefended.ratio(),
                "defense failed to reduce inflation: {} !< {} ({n_clusters} clusters, budget {budget})",
                defended.ratio(),
                undefended.ratio()
            );
        }
    }
}

#[test]
fn attack_harness_detects_undefended_inflation_end_to_end() {
    // The full harness on the strongest swept attack: train the same
    // architecture on the clean and the injected graph, measure probe
    // inflation raw and blended. Golden-seeded, so the measured values
    // are stable; the margins are intentionally loose.
    let h = host();
    let scale = tiny_scale();
    let cfg = ppr_cfg();
    let inj = inject_sybil(&h, &attack(1, 8));
    let probes = inj.probe_pairs(40, SEED);
    let prior = trust_prior(&ppr(&inj.dataset.graph, &inj.honest, &cfg));
    let clean_split = h.split(0.8, 0.2, 2, SEED);
    let attacked_split = inj.dataset.split(0.8, 0.2, 2, SEED);
    let train_cfg = TrainConfig {
        epochs: scale.epochs,
        patience: 0,
        ..TrainConfig::default()
    };
    let mut clean = build_model("SGC", &h, &clean_split, &scale).expect("known model");
    let mut attacked =
        build_model("SGC", &inj.dataset, &attacked_split, &scale).expect("known model");
    let report = evaluate_under_attack(
        clean.as_mut(),
        &clean_split.train,
        &clean_split.test,
        attacked.as_mut(),
        &attacked_split.train,
        &attacked_split.test,
        &probes,
        &prior,
        &[0.0, scale.ppr_alpha],
        &train_cfg,
    );
    // The colluding cluster inflates the learned scores of its members
    // above matched honest controls…
    assert!(
        report.undefended.ratio() > 1.0,
        "expected detectable sybil inflation, got {}",
        report.undefended.ratio()
    );
    // …alpha = 0 is the undefended measurement, and the real alpha cuts
    // it strictly.
    assert_eq!(report.defended[0].inflation, report.undefended);
    assert!(report.defended[1].inflation.ratio() < report.undefended.ratio());
    // Both trainings produced usable models (sanity on the report shape).
    assert!(report.clean.test.auc.is_finite() && report.attacked.test.auc.is_finite());
    assert_eq!(report.model, "SGC");
}

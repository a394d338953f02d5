//! Memory guard at the paper's scale: two full-batch epochs at Ciao's
//! 4 104 users stay under a fixed peak resident set.
//!
//! The Eq. 23 term is trained from its factor `B` (Σ|e| entries) rather
//! than the Laplacian (Σ|e|², over six million entries at this size), so
//! the whole run fits in a small fraction of what the matrix needed. The
//! test reads its own `VmHWM`, so it runs alone in its binary and only in
//! release, where allocation is not distorted by debug builds:
//!
//! ```sh
//! cargo test --release --offline -p ahntp --test paper_scale_memory -- --ignored
//! ```

use ahntp::{Ahntp, AhntpConfig};
use ahntp_data::{DatasetConfig, TrustDataset};
use ahntp_eval::TrustModel;

/// Ciao's user count (Table III).
const USERS: usize = 4_104;

/// The bound on the process's peak resident set, in MiB. The factored
/// objective, with the adaptive layer's `W` applied per vertex rather than
/// per hyperedge, peaks near 137 MiB on x86-64 Linux (near 158 with
/// `W h̃_e` formed per hyperedge); the Laplacian it replaced needed about
/// 600.
const PEAK_RSS_MIB: f64 = 250.0;

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("the memory guard reads /proc/self/status (Linux only)");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("/proc/self/status reports VmHWM in kB");
    kib / 1024.0
}

#[test]
#[ignore = "paper-scale run; release only, see the module docs"]
fn two_full_batch_epochs_at_ciao_scale_stay_under_the_memory_bound() {
    // The benchmark's generator and model at Ciao's size.
    let ds = TrustDataset::generate(&DatasetConfig::epinions_like(USERS, 2024));
    let split = ds.split(0.8, 0.2, 2, 1);
    let mut cfg = AhntpConfig {
        conv_dims: vec![64, 32, 16],
        tower_dims: vec![16],
        seed: 1,
        ..AhntpConfig::default()
    };
    cfg.adam.lr = 5e-3;
    let mut model = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg);
    for epoch in 0..2 {
        let loss = model.train_epoch(&split.train);
        assert!(loss.is_finite(), "epoch {epoch} diverged");
    }
    let peak = peak_rss_mib();
    assert!(
        peak <= PEAK_RSS_MIB,
        "two epochs at {USERS} users peaked at {peak:.0} MiB, over the {PEAK_RSS_MIB} MiB bound"
    );
    eprintln!("peak resident set at {USERS} users: {peak:.0} MiB");
}

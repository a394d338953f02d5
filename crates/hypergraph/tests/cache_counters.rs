//! Every cache in the process moves `hypergraph.cache.hits` / `.misses`, so
//! the test holding them to exact deltas is the only test in its binary.

use ahntp_hypergraph::{AggregationCache, Hypergraph};

#[test]
fn cache_counters_move() {
    ahntp_telemetry::set_enabled(true);
    let mut h = Hypergraph::new(4);
    for members in [&[0, 1, 2][..], &[2, 3], &[0, 3]] {
        h.add_edge(members).expect("valid");
    }
    let cache = AggregationCache::new(h);
    let h0 = ahntp_telemetry::counter_get("hypergraph.cache.hits");
    let m0 = ahntp_telemetry::counter_get("hypergraph.cache.misses");
    cache.full_ops();
    cache.full_ops();
    cache.slice_ops(&[1, 2]);
    cache.slice_ops(&[1, 2]);
    assert_eq!(
        ahntp_telemetry::counter_get("hypergraph.cache.misses"),
        m0 + 2,
        "one miss per distinct build"
    );
    assert_eq!(
        ahntp_telemetry::counter_get("hypergraph.cache.hits"),
        h0 + 2,
        "one hit per reuse"
    );
}

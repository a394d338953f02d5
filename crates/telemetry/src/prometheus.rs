//! Prometheus text exposition (version 0.0.4) of the metrics registry.
//!
//! Counters and gauges map directly; histograms are rendered as Prometheus
//! *summaries* (pre-computed `quantile="0.5"` / `quantile="0.99"` series
//! plus `_sum` and `_count`), since the sketch already reduces to
//! quantiles. Metric names are sanitized to the Prometheus grammar
//! (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots and other separators become
//! underscores, so `serve.request.us` is exposed as `serve_request_us`.

use std::fmt::Write as _;

use crate::metrics::{metrics_snapshot, MetricValue};

/// Maps a dotted registry name onto the Prometheus metric-name grammar.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Formats an f64 the way Prometheus expects (`NaN`, `+Inf`, `-Inf`
/// spelled out).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders every registered metric in Prometheus text exposition format.
/// Served by `ahntp-serve` at `GET /metrics?format=prometheus`.
pub fn metrics_prometheus_text() -> String {
    let snap = metrics_snapshot();
    let mut out = String::new();
    for (name, value) in &snap {
        let pname = sanitize(name);
        match value {
            MetricValue::Counter(c) => {
                let _ = writeln!(out, "# TYPE {pname} counter");
                let _ = writeln!(out, "{pname} {c}");
            }
            MetricValue::Gauge(g) => {
                let _ = writeln!(out, "# TYPE {pname} gauge");
                let _ = writeln!(out, "{pname} {}", fmt_f64(*g));
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {pname} summary");
                let _ = writeln!(out, "{pname}{{quantile=\"0.5\"}} {}", h.p50);
                let _ = writeln!(out, "{pname}{{quantile=\"0.99\"}} {}", h.p99);
                let _ = writeln!(out, "{pname}_sum {}", h.sum);
                let _ = writeln!(out, "{pname}_count {}", h.count);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::tests::enabled_context;
    use crate::metrics::{counter_add, gauge_set, histogram_record};

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize("serve.request.us"), "serve_request_us");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("a-b c"), "a_b_c");
    }

    /// Parses the exposition text back into (name, labels, value) samples,
    /// validating the line grammar as it goes.
    fn parse_exposition(text: &str) -> Vec<(String, String, f64)> {
        let mut samples = Vec::new();
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().expect("TYPE line has a name");
                let kind = parts.next().expect("TYPE line has a kind");
                assert!(
                    matches!(kind, "counter" | "gauge" | "summary"),
                    "unknown TYPE {kind}"
                );
                assert!(!name.is_empty());
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
            let value: f64 = match value {
                "NaN" => f64::NAN,
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                v => v.parse().unwrap_or_else(|e| panic!("bad value {v:?}: {e}")),
            };
            let (name, labels) = match series.split_once('{') {
                Some((n, l)) => (n, l.strip_suffix('}').expect("closed label set")),
                None => (series, ""),
            };
            assert!(
                name.chars().enumerate().all(|(i, c)| {
                    c == '_' || c == ':' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit())
                }),
                "invalid metric name {name:?}"
            );
            samples.push((name.to_string(), labels.to_string(), value));
        }
        samples
    }

    #[test]
    fn exposition_parses_and_carries_all_three_kinds() {
        let text = enabled_context(|| {
            counter_add("test.prom.counter", 7);
            gauge_set("test.prom.gauge", -1.5);
            for v in [10u64, 20, 30, 1000] {
                histogram_record("test.prom.histo.us", v);
            }
            metrics_prometheus_text()
        });
        let samples = parse_exposition(&text);
        assert_eq!(
            samples.len(),
            2 + 4,
            "another context's metrics were exposed:\n{text}"
        );
        let get = |name: &str, labels: &str| {
            samples
                .iter()
                .find(|(n, l, _)| n == name && l == labels)
                .map(|&(_, _, v)| v)
                .unwrap_or_else(|| panic!("missing {name}{{{labels}}} in:\n{text}"))
        };
        assert_eq!(get("test_prom_counter", ""), 7.0);
        assert_eq!(get("test_prom_gauge", ""), -1.5);
        assert_eq!(get("test_prom_histo_us_count", ""), 4.0);
        assert_eq!(get("test_prom_histo_us_sum", ""), 1060.0);
        let p50 = get("test_prom_histo_us", "quantile=\"0.5\"");
        assert!((20.0..=22.0).contains(&p50), "p50 = {p50}");
        assert!(get("test_prom_histo_us", "quantile=\"0.99\"") >= 1000.0);
    }
}

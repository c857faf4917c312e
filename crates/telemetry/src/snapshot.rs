//! Point-in-time metric snapshots and their exposition formats.
//!
//! A [`Snapshot`] is the sorted, filtered rendering of a
//! [`Registry`](crate::Registry): plain `(name, value)` entries with all
//! handles and classes resolved. Two exposition formats are supported:
//!
//! * **Prometheus text** ([`Snapshot::render_prometheus`] /
//!   [`Snapshot::from_prometheus`]) — counters and gauges as plain
//!   samples, histograms as summaries (`{quantile="…"}` samples plus
//!   `_sum`/`_count`). Parsing is exact for counters and gauges;
//!   summaries parse back without their buckets (the text format does not
//!   carry them), so round-trips are byte-exact precisely for
//!   timing-stripped snapshots — which is the determinism contract.
//! * **JSON** (`serde` impls) — lossless for everything, including sparse
//!   histogram buckets.

use std::fmt::Write as _;

use serde::{Deserialize, Error, Serialize, Value};

use crate::histogram::Histogram;

/// The quantiles every histogram exposes.
pub const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.99, "0.99"), (0.999, "0.999")];

/// A histogram reduced to its exposition form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Total samples.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Conservative p50/p99/p999 (bucket upper bounds), in [`QUANTILES`]
    /// order.
    pub quantiles: [u64; 3],
    /// Sparse `(bucket index, count)` pairs; empty after a Prometheus
    /// round-trip.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSummary {
    /// Summarizes a histogram.
    pub fn of(histogram: &Histogram) -> Self {
        HistogramSummary {
            count: histogram.count(),
            sum: histogram.sum(),
            quantiles: [
                histogram.value_at_quantile(QUANTILES[0].0),
                histogram.value_at_quantile(QUANTILES[1].0),
                histogram.value_at_quantile(QUANTILES[2].0),
            ],
            buckets: histogram.sparse_buckets(),
        }
    }
}

/// One metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotValue {
    /// Monotonic count.
    Counter(u64),
    /// Instantaneous value.
    Gauge(u64),
    /// Distribution summary.
    Histogram(HistogramSummary),
}

impl SnapshotValue {
    /// Summarizes `histogram` as a snapshot value.
    pub fn histogram(histogram: &Histogram) -> Self {
        SnapshotValue::Histogram(HistogramSummary::of(histogram))
    }
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// Metric name (prefix encodes the determinism class).
    pub name: String,
    /// The value.
    pub value: SnapshotValue,
}

/// A sorted, filtered point-in-time view of a registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// The entries, sorted by name.
    pub entries: Vec<SnapshotEntry>,
}

/// A snapshot failed to parse back from an exposition format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpositionError(pub String);

impl std::fmt::Display for ExpositionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "exposition parse error: {}", self.0)
    }
}

impl std::error::Error for ExpositionError {}

impl Snapshot {
    /// Renders the snapshot as Prometheus text exposition. Histograms
    /// become summaries (quantile samples plus `_sum`/`_count`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            let name = &entry.name;
            match &entry.value {
                SnapshotValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
                }
                SnapshotValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
                }
                SnapshotValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} summary");
                    for ((_, label), value) in QUANTILES.iter().zip(h.quantiles.iter()) {
                        let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {value}");
                    }
                    let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum, h.count);
                }
            }
        }
        out
    }

    /// Parses Prometheus text produced by
    /// [`render_prometheus`](Snapshot::render_prometheus) back into a
    /// snapshot. Summary buckets are not representable in the text format,
    /// so parsed histograms come back with empty `buckets`; counters and
    /// gauges round-trip exactly.
    ///
    /// # Errors
    ///
    /// Returns [`ExpositionError`] on malformed lines, unknown sample
    /// names, or incomplete summaries.
    pub fn from_prometheus(text: &str) -> Result<Snapshot, ExpositionError> {
        let mut entries: Vec<SnapshotEntry> = Vec::new();
        // A summary under construction: (name, quantiles seen, sum, count).
        type OpenSummary = (String, Vec<u64>, Option<u64>, Option<u64>);
        let mut open_summary: Option<OpenSummary> = None;

        fn close_summary(
            entries: &mut Vec<SnapshotEntry>,
            summary: Option<OpenSummary>,
        ) -> Result<(), ExpositionError> {
            let Some((name, quantiles, sum, count)) = summary else {
                return Ok(());
            };
            let quantiles: [u64; 3] = quantiles
                .try_into()
                .map_err(|_| ExpositionError(format!("summary `{name}` is missing quantiles")))?;
            let sum =
                sum.ok_or_else(|| ExpositionError(format!("summary `{name}` has no _sum")))?;
            let count =
                count.ok_or_else(|| ExpositionError(format!("summary `{name}` has no _count")))?;
            entries.push(SnapshotEntry {
                name,
                value: SnapshotValue::Histogram(HistogramSummary {
                    count,
                    sum,
                    quantiles,
                    buckets: Vec::new(),
                }),
            });
            Ok(())
        }

        let mut pending_type: Option<(String, String)> = None;
        for (line_no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| ExpositionError(format!("line {}: {what}", line_no + 1));
            if let Some(comment) = line.strip_prefix('#') {
                let mut parts = comment.split_whitespace();
                if parts.next() == Some("TYPE") {
                    let name = parts.next().ok_or_else(|| err("# TYPE without a name"))?;
                    let kind = parts.next().ok_or_else(|| err("# TYPE without a kind"))?;
                    if !matches!(kind, "counter" | "gauge" | "summary") {
                        return Err(err("unknown metric kind"));
                    }
                    if kind == "summary" {
                        close_summary(&mut entries, open_summary.take())?;
                        open_summary = Some((name.to_string(), Vec::new(), None, None));
                        pending_type = None;
                    } else {
                        pending_type = Some((name.to_string(), kind.to_string()));
                    }
                }
                continue;
            }
            let (sample, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| err("sample line without a value"))?;
            let value: u64 = value.parse().map_err(|_| err("non-integer sample value"))?;
            let (name, labels) = match sample.split_once('{') {
                Some((name, rest)) => {
                    let labels = rest
                        .strip_suffix('}')
                        .ok_or_else(|| err("unterminated label set"))?;
                    (name, Some(labels))
                }
                None => (sample, None),
            };
            // Summary component lines.
            if let Some((ref sname, ref mut quantiles, ref mut sum, ref mut count)) = open_summary {
                let sname = sname.clone();
                if name == sname {
                    let labels = labels.ok_or_else(|| err("summary sample without quantile"))?;
                    if !labels.starts_with("quantile=\"") {
                        return Err(err("summary sample with non-quantile label"));
                    }
                    quantiles.push(value);
                    continue;
                } else if name == format!("{sname}_sum") {
                    *sum = Some(value);
                    continue;
                } else if name == format!("{sname}_count") {
                    *count = Some(value);
                    close_summary(&mut entries, open_summary.take())?;
                    continue;
                }
                close_summary(&mut entries, open_summary.take())?;
            }
            let (tname, kind) = pending_type
                .take()
                .ok_or_else(|| err("sample without a preceding # TYPE"))?;
            if tname != name {
                return Err(err("sample name disagrees with its # TYPE"));
            }
            if labels.is_some() {
                return Err(err("unexpected labels on a counter/gauge sample"));
            }
            entries.push(SnapshotEntry {
                name: name.to_string(),
                value: if kind == "counter" {
                    SnapshotValue::Counter(value)
                } else {
                    SnapshotValue::Gauge(value)
                },
            });
        }
        close_summary(&mut entries, open_summary.take())?;
        Ok(Snapshot { entries })
    }
}

impl Serialize for Snapshot {
    fn to_value(&self) -> Value {
        Value::Map(
            self.entries
                .iter()
                .map(|entry| {
                    let value = match &entry.value {
                        SnapshotValue::Counter(v) => Value::Map(vec![
                            ("type".to_string(), Value::Str("counter".to_string())),
                            ("value".to_string(), Value::U64(*v)),
                        ]),
                        SnapshotValue::Gauge(v) => Value::Map(vec![
                            ("type".to_string(), Value::Str("gauge".to_string())),
                            ("value".to_string(), Value::U64(*v)),
                        ]),
                        SnapshotValue::Histogram(h) => Value::Map(vec![
                            ("type".to_string(), Value::Str("histogram".to_string())),
                            ("count".to_string(), Value::U64(h.count)),
                            ("sum".to_string(), Value::U64(h.sum)),
                            ("p50".to_string(), Value::U64(h.quantiles[0])),
                            ("p99".to_string(), Value::U64(h.quantiles[1])),
                            ("p999".to_string(), Value::U64(h.quantiles[2])),
                            (
                                "buckets".to_string(),
                                Value::Seq(
                                    h.buckets
                                        .iter()
                                        .map(|&(i, c)| {
                                            Value::Seq(vec![
                                                Value::U64(u64::from(i)),
                                                Value::U64(c),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ]),
                    };
                    (entry.name.clone(), value)
                })
                .collect(),
        )
    }
}

impl Deserialize for Snapshot {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let map = value
            .as_map()
            .ok_or_else(|| Error::custom(format!("expected map, found {}", value.kind())))?;
        let mut entries = Vec::with_capacity(map.len());
        for (name, body) in map {
            let kind = body.field("type")?;
            let kind = kind
                .as_str()
                .ok_or_else(|| Error::custom(format!("metric `{name}`: missing type tag")))?;
            let value = match kind {
                "counter" => SnapshotValue::Counter(u64::from_value(body.field("value")?)?),
                "gauge" => SnapshotValue::Gauge(u64::from_value(body.field("value")?)?),
                "histogram" => SnapshotValue::Histogram(HistogramSummary {
                    count: u64::from_value(body.field("count")?)?,
                    sum: u64::from_value(body.field("sum")?)?,
                    quantiles: [
                        u64::from_value(body.field("p50")?)?,
                        u64::from_value(body.field("p99")?)?,
                        u64::from_value(body.field("p999")?)?,
                    ],
                    buckets: <Vec<(u32, u64)>>::from_value(body.field("buckets")?)?,
                }),
                other => {
                    return Err(Error::custom(format!(
                        "metric `{name}`: unknown type `{other}`"
                    )))
                }
            };
            entries.push(SnapshotEntry {
                name: name.clone(),
                value,
            });
        }
        Ok(Snapshot { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{MetricClass, Registry, SnapshotFilter};

    fn sample_registry() -> Registry {
        let mut r = Registry::new();
        let c = r.counter("spms_admitted_total", MetricClass::Outcome);
        r.add(c, 41);
        let m = r.counter("spms_mech_whole_probes_total", MetricClass::Mechanism);
        r.add(m, 7);
        let g = r.gauge("spms_mech_rebalance_last_moves", MetricClass::Mechanism);
        r.set_gauge(g, 2);
        let h = r.histogram("spms_timing_decision_latency_ns", MetricClass::Timing);
        for v in [100, 200, 5000, 80_000] {
            r.record(h, v);
        }
        r
    }

    #[test]
    fn prometheus_round_trips_timing_stripped_snapshots_exactly() {
        let snapshot = sample_registry().snapshot(SnapshotFilter::Deterministic);
        let text = snapshot.render_prometheus();
        let back = Snapshot::from_prometheus(&text).unwrap();
        assert_eq!(back, snapshot);
        // And the re-rendered text is byte-identical.
        assert_eq!(back.render_prometheus(), text);
    }

    #[test]
    fn prometheus_full_output_parses_with_summaries() {
        let snapshot = sample_registry().snapshot(SnapshotFilter::Full);
        let text = snapshot.render_prometheus();
        let back = Snapshot::from_prometheus(&text).unwrap();
        assert_eq!(back.entries.len(), snapshot.entries.len());
        let hist = back
            .entries
            .iter()
            .find(|e| e.name == "spms_timing_decision_latency_ns")
            .unwrap();
        match &hist.value {
            SnapshotValue::Histogram(h) => {
                assert_eq!(h.count, 4);
                // Buckets are not representable in the text format.
                assert!(h.buckets.is_empty());
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn json_round_trips_everything_including_buckets() {
        for filter in [
            SnapshotFilter::Full,
            SnapshotFilter::Deterministic,
            SnapshotFilter::ShardInvariant,
        ] {
            let snapshot = sample_registry().snapshot(filter);
            let json = serde_json::to_string(&snapshot).unwrap();
            let back: Snapshot = serde_json::from_str(&json).unwrap();
            assert_eq!(back, snapshot);
        }
    }

    #[test]
    fn malformed_prometheus_is_rejected() {
        assert!(Snapshot::from_prometheus("spms_x 1").is_err());
        assert!(Snapshot::from_prometheus("# TYPE spms_x counter\nspms_x nope").is_err());
        assert!(Snapshot::from_prometheus("# TYPE spms_x histogram\nspms_x 1").is_err());
        assert!(Snapshot::from_prometheus("# TYPE spms_x summary\nspms_x_sum 1").is_err());
    }
}

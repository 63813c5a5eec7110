//! Prometheus text scrapes of `GET /metrics`, reduced to per-family deltas.

use std::collections::BTreeMap;

/// One scrape: every sample keyed by its series (`name` or `name{labels}`).
pub type Scrape = BTreeMap<String, f64>;

/// Parse a Prometheus text exposition. Comment lines and lines without a
/// numeric value are skipped.
pub fn parse(text: &str) -> Scrape {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.trim().to_string(), value.trim().parse::<f64>().ok()?))
        })
        .collect()
}

/// `after - before` for every series in `after` (a series absent before counts
/// from 0).
pub fn delta(before: &Scrape, after: &Scrape) -> Scrape {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// The metric name of a series key (the part before any `{`).
fn metric_name(series: &str) -> &str {
    series.split('{').next().unwrap_or(series)
}

/// Sum of every series of exactly `name`, across label sets.
pub fn total(scrape: &Scrape, name: &str) -> f64 {
    scrape
        .iter()
        .filter(|(k, _)| metric_name(k) == name)
        .map(|(_, v)| v)
        .sum()
}

/// The value of one exact series (`name{labels}` as exposed), 0 when absent.
pub fn series(scrape: &Scrape, key: &str) -> f64 {
    scrape.get(key).copied().unwrap_or(0.0)
}

/// Mean of a histogram family: `sum(name_sum) / sum(name_count)` across label
/// sets; 0 when the family recorded nothing.
pub fn mean(scrape: &Scrape, name: &str) -> f64 {
    let count = total(scrape, &format!("{name}_count"));
    if count <= 0.0 {
        0.0
    } else {
        total(scrape, &format!("{name}_sum")) / count
    }
}

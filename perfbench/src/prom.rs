//! Validation of a `GET /metrics` body as Prometheus text exposition.

/// Checks every line of `body` as Prometheus text (comments, `# TYPE`
/// lines, and `name{labels} value` samples) and returns the value of the
/// unlabelled sample named `counter`.
pub fn check_scrape(body: &str, counter: &str) -> Result<f64, String> {
    let mut found = None;
    for (i, line) in body.lines().enumerate() {
        let at = |msg: &str| format!("line {}: {msg}: {line:?}", i + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            if words.next() == Some("TYPE") {
                let name = words.next().ok_or_else(|| at("TYPE without a name"))?;
                if !is_metric_name(name) {
                    return Err(at("bad metric name"));
                }
                let kind = words.next().ok_or_else(|| at("TYPE without a type"))?;
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(at("unknown metric type"));
                }
            }
            continue;
        }
        let (series, value) = line.rsplit_once(' ').ok_or_else(|| at("sample without a value"))?;
        let value: f64 = value.parse().map_err(|_| at("unparseable value"))?;
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                let labels = labels.strip_suffix('}').ok_or_else(|| at("unclosed label set"))?;
                if !labels.split(',').all(is_label_pair) {
                    return Err(at("bad label"));
                }
                name
            }
            None => series,
        };
        if !is_metric_name(name) {
            return Err(at("bad metric name"));
        }
        if series == counter {
            found = Some(value);
        }
    }
    found.ok_or_else(|| format!("scrape has no {counter} sample"))
}

fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_label_pair(pair: &str) -> bool {
    pair.split_once('=').is_some_and(|(k, v)| {
        is_metric_name(k)
            && !k.contains(':')
            && v.len() >= 2
            && v.starts_with('"')
            && v.ends_with('"')
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "# TYPE gtlb_dispatches_total counter\ngtlb_dispatches_total 4096\n\
        # TYPE gtlb_node_phi_3 gauge\ngtlb_node_phi_3 NaN\n\
        # TYPE gtlb_response_seconds summary\ngtlb_response_seconds{quantile=\"0.5\"} 0.25\n\
        gtlb_response_seconds_sum 12.5\n";

    #[test]
    fn accepts_valid_text_and_reads_the_counter() {
        assert_eq!(check_scrape(GOOD, "gtlb_dispatches_total"), Ok(4096.0));
    }

    #[test]
    fn rejects_a_missing_counter() {
        let err = check_scrape(GOOD, "gtlb_missing_total").unwrap_err();
        assert!(err.contains("no gtlb_missing_total"), "{err}");
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "gtlb_x\n",
            "gtlb_x abc\n",
            "9bad 1\n",
            "gtlb_x{quantile=0.5} 1\n",
            "gtlb_x{quantile=\"0.5\" 1\n",
            "# TYPE gtlb_x widget\n",
            "<html>\n",
        ] {
            let body = format!("{bad}gtlb_dispatches_total 1\n");
            assert!(check_scrape(&body, "gtlb_dispatches_total").is_err(), "{bad:?} passed");
        }
    }
}

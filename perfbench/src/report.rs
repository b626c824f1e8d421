//! The result line, metric naming rules and the summary statistics every
//! workload reports with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]`, starting with a letter or digit.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: String,
}

/// The last line a run prints: whether every output check passed, how
/// many timed operations ran and failed, and the metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Timed operations attempted (serve jobs, planner queries, sweeps).
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, the first a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

impl RunResult {
    /// Checks names, units and values before anything is printed.
    pub fn validate(&self) -> Result<(), String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let mut seen = BTreeMap::new();
        for m in &self.metrics {
            if !valid_name(&m.name) {
                return Err(format!("invalid metric name {:?}", m.name));
            }
            if !valid_unit(&m.unit) {
                return Err(format!("invalid unit {:?} on {}", m.unit, m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("{} is not finite ({})", m.name, m.value));
            }
            if seen.insert(m.name.as_str(), ()).is_some() {
                return Err(format!("metric {} reported twice", m.name));
            }
        }
        Ok(())
    }

    /// The one-line JSON form: exactly the keys `correct`, `attempted`,
    /// `failed` and `metrics`. Values print with every digit Rust needs to
    /// read them back bit-for-bit.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }

    /// Parses the form [`to_json`](Self::to_json) writes.
    pub fn from_json(text: &str) -> Result<RunResult, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let top = p.object()?;
        p.ws();
        if p.i != p.s.len() {
            return Err("trailing characters after the result object".into());
        }
        let field = |k: &str| top.get(k).ok_or_else(|| format!("missing key {k}"));
        if top.len() != 4 {
            return Err("result must have exactly four keys".into());
        }
        let correct = match field("correct")? {
            Json::Bool(b) => *b,
            _ => return Err("correct must be a boolean".into()),
        };
        let count = |k: &str| match field(k)? {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(format!("{k} must be a whole number")),
        };
        let (attempted, failed) = (count("attempted")?, count("failed")?);
        let Json::Obj(entries) = field("metrics")? else {
            return Err("metrics must be an object".into());
        };
        let mut metrics = Vec::new();
        for (name, v) in entries {
            let Json::Obj(kv) = v else {
                return Err(format!("metric {name} must be an object"));
            };
            let (Some(Json::Num(value)), Some(Json::Str(unit)), 2) =
                (kv.get("value"), kv.get("unit"), kv.len())
            else {
                return Err(format!("metric {name} needs exactly a value and a unit"));
            };
            metrics.push(Metric {
                name: name.clone(),
                value: *value,
                unit: unit.clone(),
            });
        }
        Ok(RunResult {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

/// The subset of JSON the result line uses. Objects keep key order so a
/// round trip preserves the report order.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Entries),
}

/// An insertion-ordered JSON object.
#[derive(Debug, Clone, PartialEq, Default)]
struct Entries(Vec<(String, Json)>);

impl Entries {
    fn get(&self, key: &str) -> Option<&Json> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

impl<'a> IntoIterator for &'a Entries {
    type Item = &'a (String, Json);
    type IntoIter = std::slice::Iter<'a, (String, Json)>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.i))
        }
    }

    fn object(&mut self) -> Result<Entries, String> {
        self.eat(b'{')?;
        let mut out = Entries::default();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(out);
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let value = self.value()?;
            if out.get(&key).is_some() {
                return Err(format!("duplicate key {key}"));
            }
            out.0.push((key, value));
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(out);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.i;
        while self.i < self.s.len() && self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                return Err("escapes never occur in a result line".into());
            }
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
        self.eat(b'"')?;
        Ok(text.to_string())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        let rest = &self.s[self.i..];
        if rest.starts_with(b"true") {
            self.i += 4;
            Ok(Json::Bool(true))
        } else if rest.starts_with(b"false") {
            self.i += 5;
            Ok(Json::Bool(false))
        } else if rest.first() == Some(&b'"') {
            self.string().map(Json::Str)
        } else if rest.first() == Some(&b'{') {
            self.object().map(Json::Obj)
        } else {
            let len = rest
                .iter()
                .take_while(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
                .count();
            let text = std::str::from_utf8(&rest[..len]).map_err(|e| e.to_string())?;
            let n: f64 = text
                .parse()
                .map_err(|_| format!("bad number {text:?} at byte {}", self.i))?;
            self.i += len;
            Ok(Json::Num(n))
        }
    }
}

/// Median of `samples` (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` ∈ (0, 100] of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile out of range");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` sorted samples, in
/// integer arithmetic on tenths of a percent so that, e.g., p99.9 of
/// 10 000 samples is rank 9 990 exactly.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of [`TAIL_PERCENTILES`] that leaves at least ten samples
/// beyond it among `n` samples, or `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n >= 1 && n - rank(n, p) >= 10)
}

/// The serial share `s` of a two-thread run under Amdahl's law, from the
/// one-thread time `t1` and the two-thread time `t2`:
/// `t2 = t1 · (s + (1 − s) / 2)`, so `s = 2·t2/t1 − 1`.
pub fn serial_share(t1: f64, t2: f64) -> f64 {
    2.0 * t2 / t1 - 1.0
}

/// How many of `total` evenly spread items are due once the share `frac`
/// of a run has passed: interleaving work by this count makes every metric
/// sample the whole run rather than one stretch of it.
pub fn due(total: usize, frac: f64) -> usize {
    ((total as f64 * frac.clamp(0.0, 1.0)).ceil() as usize).min(total)
}

/// FNV-1a offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a hash `h`.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(n, p) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn due_spreads_items_over_the_run() {
        assert_eq!(due(10, 0.0), 0);
        assert_eq!(due(10, 0.01), 1);
        assert_eq!(due(10, 0.5), 5);
        assert_eq!(due(10, 0.51), 6);
        assert_eq!(due(10, 1.0), 10);
        assert_eq!(due(10, 3.0), 10);
        assert_eq!(due(0, 0.7), 0);
    }

    #[test]
    fn serial_share_follows_amdahl() {
        assert_eq!(serial_share(10.0, 5.0), 0.0);
        assert_eq!(serial_share(10.0, 10.0), 1.0);
        assert!((serial_share(10.0, 6.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn metric_names_and_units_follow_the_charset() {
        for ok in ["req_per_s", "coordinator.serve_1t_ms", "a", "9-x.y_z"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "has space", "seventeen_chars__"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_json_round_trips_bit_for_bit() {
        let r = RunResult {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "latency_ms".into(),
                    value: 1.2034,
                    unit: "ms".into(),
                },
                Metric {
                    name: "tiny".into(),
                    value: 0.1 + 0.2,
                    unit: "s".into(),
                },
                Metric {
                    name: "big.count".into(),
                    value: 3.0e15,
                    unit: "count".into(),
                },
                Metric {
                    name: "neg".into(),
                    value: -1.5e-7,
                    unit: "1/s".into(),
                },
            ],
        };
        r.validate().unwrap();
        let line = r.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1234, \"failed\": 0,"));
        let back = RunResult::from_json(&line).unwrap();
        assert_eq!(back, r);
        for (a, b) in back.metrics.iter().zip(&r.metrics) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    #[test]
    fn malformed_results_are_rejected() {
        assert!(RunResult::from_json("{}").is_err());
        assert!(RunResult::from_json(
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
        assert!(RunResult::from_json(
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}} x"
        )
        .is_err());
        let dup = RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "a".into(),
                    value: 1.0,
                    unit: "s".into(),
                };
                2
            ],
        };
        assert!(dup.validate().is_err());
        let nan = RunResult {
            metrics: vec![Metric {
                name: "a".into(),
                value: f64::NAN,
                unit: "s".into(),
            }],
            ..dup
        };
        assert!(nan.validate().is_err());
    }
}

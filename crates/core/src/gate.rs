//! Typed pass/fail gates over experiment results.
//!
//! A gated table (7, 9, 11, 12, 13, 14) returns its verdict inputs as
//! [`Gate`] records computed from its struct. The report prints them,
//! the artifact stores them under `tables/<name>/gates`, and `graftstat
//! check` evaluates them: no gate reads report text. A gate whose cell
//! was not measured (`value: None`) or whose value is NaN or infinite
//! fails.

use std::fmt;

use graft_telemetry::json::Json;

/// How a gate's value is compared with its threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `value >= threshold`.
    Ge,
    /// `value <= threshold`.
    Le,
    /// `value == threshold`.
    Eq,
}

impl Cmp {
    /// The operator as printed and stored.
    pub fn symbol(self) -> &'static str {
        match self {
            Cmp::Ge => ">=",
            Cmp::Le => "<=",
            Cmp::Eq => "==",
        }
    }
}

/// One pass/fail verdict input.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// What is gated, unique within its table.
    pub name: String,
    /// The unrounded value; `None` when the cell was not measured.
    pub value: Option<f64>,
    /// The comparison that must hold.
    pub cmp: Cmp,
    /// The bound the value is compared with.
    pub threshold: f64,
}

impl Gate {
    /// A gate over a value that may be missing.
    pub fn new(name: &str, value: Option<f64>, cmp: Cmp, threshold: f64) -> Gate {
        Gate {
            name: name.to_string(),
            value,
            cmp,
            threshold,
        }
    }

    /// A gate over an exact count that must be zero.
    pub fn zero(name: &str, count: u64) -> Gate {
        Gate::new(name, Some(count as f64), Cmp::Eq, 0.0)
    }

    /// A gate over a flag that must hold (stored as 1 or 0).
    pub fn holds(name: &str, flag: bool) -> Gate {
        Gate::new(name, Some(f64::from(u8::from(flag))), Cmp::Eq, 1.0)
    }

    /// Whether the value is present, finite, and on the right side of
    /// the threshold.
    pub fn passes(&self) -> bool {
        match self.value {
            Some(v) if v.is_finite() => match self.cmp {
                Cmp::Ge => v >= self.threshold,
                Cmp::Le => v <= self.threshold,
                Cmp::Eq => v == self.threshold,
            },
            _ => false,
        }
    }

    /// The gate as stored in an artifact. JSON has no NaN or infinity,
    /// so such a value is stored as `null` and reads back unmeasured.
    pub fn to_json(&self) -> Json {
        let value = self.value.filter(|v| v.is_finite());
        let mut obj = Json::object();
        obj.set("name", self.name.as_str())
            .set("value", value.map_or(Json::Null, Json::from))
            .set("cmp", self.cmp.symbol())
            .set("threshold", self.threshold);
        obj
    }

    /// Reads a gate back from [`Gate::to_json`].
    pub fn from_json(j: &Json) -> Result<Gate, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("gate missing `{k}`"));
        let name = field("name")?
            .as_str()
            .ok_or("gate `name` is not a string")?;
        let symbol = field("cmp")?.as_str();
        let cmp = [Cmp::Ge, Cmp::Le, Cmp::Eq]
            .into_iter()
            .find(|c| symbol == Some(c.symbol()))
            .ok_or_else(|| format!("gate `{name}`: bad `cmp`"))?;
        let threshold = field("threshold")?
            .as_f64()
            .ok_or("gate `threshold` is not a number")?;
        Ok(Gate::new(name, field("value")?.as_f64(), cmp, threshold))
    }
}

/// `name = value (cmp threshold) pass|FAIL`, the one format every
/// report and `graftstat check` prints, with the value printed exactly.
impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let value = self
            .value
            .map_or("unmeasured".to_string(), |v| v.to_string());
        let verdict = if self.passes() { "pass" } else { "FAIL" };
        let (cmp, threshold) = (self.cmp.symbol(), self.threshold);
        write!(f, "{} = {value} ({cmp} {threshold}) {verdict}", self.name)
    }
}

/// The gates as an artifact array.
pub fn gates_json(gates: &[Gate]) -> Json {
    Json::Arr(gates.iter().map(Gate::to_json).collect())
}

/// The smallest value; NaN when any value is NaN (so a gate over it
/// fails instead of skipping the bad row), +inf when there are none.
pub fn min_of(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, |acc, v| {
        if acc.is_nan() || v.is_nan() {
            f64::NAN
        } else {
            acc.min(v)
        }
    })
}

/// The largest value; NaN when any value is NaN, -inf when none.
pub fn max_of(values: impl IntoIterator<Item = f64>) -> f64 {
    -min_of(values.into_iter().map(|v| -v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparisons_are_exact_and_inclusive() {
        assert!(Gate::new("g", Some(2.5), Cmp::Ge, 2.5).passes());
        assert!(!Gate::new("g", Some(2.499_999), Cmp::Ge, 2.5).passes());
        assert!(Gate::new("l", Some(10.0), Cmp::Le, 10.0).passes());
        // Prints as +10.0% at one decimal, but is over the bound.
        assert!(!Gate::new("l", Some(10.04), Cmp::Le, 10.0).passes());
        assert!(Gate::zero("z", 0).passes() && !Gate::zero("z", 1).passes());
        assert!(Gate::holds("h", true).passes() && !Gate::holds("h", false).passes());
    }

    #[test]
    fn nan_infinite_and_unmeasured_values_fail_every_comparison() {
        for cmp in [Cmp::Ge, Cmp::Le, Cmp::Eq] {
            for value in [
                Some(f64::NAN),
                Some(f64::INFINITY),
                Some(-f64::INFINITY),
                None,
            ] {
                let g = Gate::new("g", value, cmp, 0.0);
                assert!(!g.passes(), "{g}");
            }
        }
    }

    #[test]
    fn gates_round_trip_through_json_and_nan_reads_back_unmeasured() {
        for g in [
            Gate::new("speedup @4", Some(3.125), Cmp::Ge, 2.5),
            Gate::new("cell", None, Cmp::Le, 5.0),
            Gate::zero("leaked", 0),
        ] {
            let text = g.to_json().to_string_compact();
            let back = Gate::from_json(&graft_telemetry::json::parse(&text).unwrap());
            assert_eq!(back.unwrap(), g);
        }
        let back = Gate::from_json(&Gate::new("r", Some(f64::NAN), Cmp::Le, 2.0).to_json());
        assert_eq!(back.unwrap().value, None);
        assert!(Gate::from_json(&Json::object()).is_err());
    }

    #[test]
    fn min_and_max_propagate_nan() {
        assert_eq!(
            (min_of([3.0, 1.0, 2.0]), max_of([3.0, 1.0, 2.0])),
            (1.0, 3.0)
        );
        assert!(min_of([1.0, f64::NAN, 2.0]).is_nan() && max_of([f64::NAN, 1.0]).is_nan());
        assert_eq!((min_of([]), max_of([])), (f64::INFINITY, f64::NEG_INFINITY));
    }
}

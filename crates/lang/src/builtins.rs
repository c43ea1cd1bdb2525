//! The library of named sensing functions.
//!
//! The paper: "EnviroTrack contains a library of such functions for the
//! programmer to choose from. New user-defined functions can be easily
//! added by application developers." `Builtins::standard` is that
//! library, and what [`crate::compile_source`] compiles against. Every
//! function in it is one comparison `channel op value`, so the library is a
//! table of rows — a name, an arity, and the comparison it builds — and a
//! new function is one more row, or a composition written in the language
//! itself (`temperature > 180 and light`).

use envirotrack_core::context::{CmpOp, SensePredicate};
use envirotrack_world::target::Channel;

/// One library function: `name(args)` is `channel op value`, where the
/// value is fixed here for a detector that takes no argument, or is the
/// call's one argument when `value` is `None` — the function's arity.
#[derive(Debug)]
struct Builtin {
    name: String,
    channel: Channel,
    op: CmpOp,
    value: Option<f64>,
}

/// A registry of named sensing functions usable in `activation:` clauses.
#[derive(Debug)]
pub(crate) struct Builtins {
    rows: Vec<Builtin>,
}

impl Builtins {
    /// The standard library:
    ///
    /// * `magnetic_sensor_reading()` — the paper's vehicle detector
    ///   (`magnetic > 0.5`);
    /// * `light_sensor_reading()`, `motion_detected()`,
    ///   `acoustic_detected()` — analogous threshold detectors;
    /// * `<channel>_above(x)` / `<channel>_below(x)` for every channel.
    #[must_use]
    pub(crate) fn standard() -> Self {
        let row = |name: String, channel, op, value| Builtin {
            name,
            channel,
            op,
            value,
        };
        let detectors = [
            ("magnetic_sensor_reading", Channel::Magnetic),
            ("light_sensor_reading", Channel::Light),
            ("motion_detected", Channel::Motion),
            ("acoustic_detected", Channel::Acoustic),
        ];
        let mut rows: Vec<Builtin> = detectors
            .into_iter()
            .map(|(name, ch)| row(name.into(), ch, CmpOp::Gt, Some(0.5)))
            .collect();
        for ch in Channel::ALL {
            rows.push(row(format!("{ch}_above"), ch, CmpOp::Gt, None));
            rows.push(row(format!("{ch}_below"), ch, CmpOp::Lt, None));
        }
        Builtins { rows }
    }

    /// Instantiates a named function with arguments.
    ///
    /// # Errors
    ///
    /// Returns a message when the name is unknown or the arity is wrong.
    pub(crate) fn instantiate(&self, name: &str, args: &[f64]) -> Result<SensePredicate, String> {
        let Some(f) = self.rows.iter().find(|f| f.name == name) else {
            let mut names: Vec<&str> = self.rows.iter().map(|f| f.name.as_str()).collect();
            names.sort_unstable();
            return Err(format!(
                "unknown sensing function {name:?} (available: {})",
                names.join(", ")
            ));
        };
        let value = match (f.value, args) {
            (Some(value), []) | (None, &[value]) => value,
            _ => {
                let arity = usize::from(f.value.is_none());
                let got = args.len();
                return Err(format!("{name}() takes {arity} argument(s), got {got}"));
            }
        };
        Ok(SensePredicate::Cmp {
            channel: f.channel,
            op: f.op,
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use envirotrack_world::sensing::SensorSample;

    #[test]
    fn standard_library_has_the_papers_detector() {
        let b = Builtins::standard();
        let p = b.instantiate("magnetic_sensor_reading", &[]).unwrap();
        assert_eq!(p, SensePredicate::threshold(Channel::Magnetic, 0.5));
        let mut s = SensorSample::zero();
        assert!(!p.eval(&s));
        s.set(Channel::Magnetic, 0.9);
        assert!(p.eval(&s));
    }

    #[test]
    fn above_and_below_variants_exist_for_every_channel() {
        let b = Builtins::standard();
        for ch in Channel::ALL {
            let above = b.instantiate(&format!("{ch}_above"), &[10.0]).unwrap();
            let below = b.instantiate(&format!("{ch}_below"), &[10.0]).unwrap();
            assert_eq!(below.to_string(), format!("{ch} < 10"));
            let mut s = SensorSample::zero();
            s.set(ch, 20.0);
            assert!(above.eval(&s));
            assert!(!below.eval(&s));
        }
    }

    #[test]
    fn arity_is_checked() {
        let b = Builtins::standard();
        let e = b
            .instantiate("magnetic_sensor_reading", &[1.0])
            .unwrap_err();
        assert_eq!(e, "magnetic_sensor_reading() takes 0 argument(s), got 1");
        assert!(b.instantiate("temperature_above", &[]).is_err());
    }

    #[test]
    fn unknown_names_list_alternatives() {
        let b = Builtins::standard();
        let e = b.instantiate("seismic_reading", &[]).unwrap_err();
        assert!(e.contains("unknown sensing function"));
        assert!(e.contains("magnetic_sensor_reading"));
    }
}

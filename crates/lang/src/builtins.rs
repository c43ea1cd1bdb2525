//! The library of named sensing functions.
//!
//! The paper: "EnviroTrack contains a library of such functions for the
//! programmer to choose from. New user-defined functions can be easily
//! added by application developers." `Builtins::standard` is that
//! library, and what [`crate::compile_source`] compiles against;
//! `Builtins::register` is where a new function goes.

use std::collections::BTreeMap;
use std::sync::Arc;

use envirotrack_core::context::SensePredicate;
use envirotrack_world::target::Channel;

/// A factory producing a [`SensePredicate`] from numeric arguments.
type Factory = Arc<dyn Fn(&[f64]) -> Result<SensePredicate, String> + Send + Sync>;

/// A registry of named sensing functions usable in `activation:` clauses.
#[derive(Clone)]
pub(crate) struct Builtins {
    entries: BTreeMap<String, Factory>,
}

impl std::fmt::Debug for Builtins {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Builtins")
            .field("names", &self.names())
            .finish()
    }
}

fn expect_args(name: &str, args: &[f64], n: usize) -> Result<(), String> {
    if args.len() == n {
        Ok(())
    } else {
        Err(format!(
            "{name}() takes {n} argument(s), got {}",
            args.len()
        ))
    }
}

impl Builtins {
    /// An empty registry.
    #[must_use]
    pub(crate) fn empty() -> Self {
        Builtins {
            entries: BTreeMap::new(),
        }
    }

    /// The standard library:
    ///
    /// * `magnetic_sensor_reading()` — the paper's vehicle detector
    ///   (`magnetic > 0.5`);
    /// * `light_sensor_reading()`, `motion_detected()`,
    ///   `acoustic_detected()` — analogous threshold detectors;
    /// * `<channel>_above(x)` / `<channel>_below(x)` for every channel.
    #[must_use]
    pub(crate) fn standard() -> Self {
        let mut b = Builtins::empty();
        b.register("magnetic_sensor_reading", |args| {
            expect_args("magnetic_sensor_reading", args, 0)?;
            Ok(SensePredicate::threshold(Channel::Magnetic, 0.5))
        });
        b.register("light_sensor_reading", |args| {
            expect_args("light_sensor_reading", args, 0)?;
            Ok(SensePredicate::threshold(Channel::Light, 0.5))
        });
        b.register("motion_detected", |args| {
            expect_args("motion_detected", args, 0)?;
            Ok(SensePredicate::threshold(Channel::Motion, 0.5))
        });
        b.register("acoustic_detected", |args| {
            expect_args("acoustic_detected", args, 0)?;
            Ok(SensePredicate::threshold(Channel::Acoustic, 0.5))
        });
        for ch in Channel::ALL {
            b.register(format!("{ch}_above"), move |args| {
                expect_args("*_above", args, 1)?;
                Ok(SensePredicate::threshold(ch, args[0]))
            });
            b.register(format!("{ch}_below"), move |args| {
                expect_args("*_below", args, 1)?;
                let t = args[0];
                Ok(SensePredicate::new(format!("{ch} < {t}"), move |s| {
                    s.get(ch) < t
                }))
            });
        }
        b
    }

    /// Registers (or replaces) a named sensing function.
    pub(crate) fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(&[f64]) -> Result<SensePredicate, String> + Send + Sync + 'static,
    ) {
        self.entries.insert(name.into(), Arc::new(factory));
    }

    /// Instantiates a named function with arguments.
    ///
    /// # Errors
    ///
    /// Returns a message when the name is unknown or the arity is wrong.
    pub(crate) fn instantiate(&self, name: &str, args: &[f64]) -> Result<SensePredicate, String> {
        match self.entries.get(name) {
            Some(f) => f(args),
            None => Err(format!(
                "unknown sensing function {name:?} (available: {})",
                self.names().join(", ")
            )),
        }
    }

    /// The registered names, sorted.
    #[must_use]
    pub(crate) fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }
}

impl Default for Builtins {
    fn default() -> Self {
        Builtins::standard()
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
            let mut s = SensorSample::zero();
            s.set(ch, 20.0);
            assert!(above.eval(&s));
            assert!(!below.eval(&s));
        }
    }

    #[test]
    fn arity_is_checked() {
        let b = Builtins::standard();
        assert!(b.instantiate("magnetic_sensor_reading", &[1.0]).is_err());
        assert!(b.instantiate("temperature_above", &[]).is_err());
    }

    #[test]
    fn unknown_names_list_alternatives() {
        let b = Builtins::standard();
        let e = b.instantiate("seismic_reading", &[]).unwrap_err();
        assert!(e.contains("unknown sensing function"));
        assert!(e.contains("magnetic_sensor_reading"));
    }

    #[test]
    fn user_functions_can_be_registered() {
        let mut b = Builtins::empty();
        b.register("hot_and_bright", |_args| {
            Ok(SensePredicate::threshold(Channel::Temperature, 180.0)
                .and(SensePredicate::threshold(Channel::Light, 0.5)))
        });
        let p = b.instantiate("hot_and_bright", &[]).unwrap();
        let mut s = SensorSample::zero();
        s.set(Channel::Temperature, 200.0);
        s.set(Channel::Light, 1.0);
        assert!(p.eval(&s));
    }
}

//! The command line of the harness binaries: `--name value` pairs and bare
//! `--name` switches, which each binary matches against its own.

use std::fmt::Display;
use std::str::FromStr;

/// The arguments after the program name, not yet read. Iterating yields
/// the next flag.
pub struct Flags(std::vec::IntoIter<String>);

impl Flags {
    /// `parse` applied to this process's arguments; on an error it prints
    /// `{bin}: {error}` and exits with status 2.
    pub fn read<A>(bin: &str, parse: impl FnOnce(&mut Flags) -> Result<A, String>) -> A {
        let args: Vec<String> = std::env::args().skip(1).collect();
        parse(&mut Flags(args.into_iter())).unwrap_or_else(|e| {
            eprintln!("{bin}: {e}");
            std::process::exit(2)
        })
    }

    /// The value of `flag`, parsed: the next argument, which must exist
    /// and not start with `--`.
    ///
    /// # Errors
    ///
    /// `{flag} requires a value`, or `{flag}: {parse error}`.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let value = self.0.next().filter(|v| !v.starts_with("--"));
        let value = value.ok_or_else(|| format!("{flag} requires a value"))?;
        value.parse().map_err(|e| format!("{flag}: {e}"))
    }

    /// The error for a flag the binary does not know.
    ///
    /// # Errors
    ///
    /// Always: `unknown argument {flag}`.
    pub fn unknown<A>(flag: &str) -> Result<A, String> {
        Err(format!("unknown argument {flag}"))
    }
}

impl Iterator for Flags {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A binary's parser in miniature: `--seed N`, `--out PATH`, `--smoke`.
    fn parse(args: &[&str]) -> Result<(u64, String, bool), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let mut flags = Flags(args.into_iter());
        let (mut seed, mut out, mut smoke) = (1, "out.json".to_string(), false);
        while let Some(flag) = flags.next() {
            match flag.as_str() {
                "--seed" => seed = flags.value(&flag)?,
                "--out" => out = flags.value(&flag)?,
                "--smoke" => smoke = true,
                other => return Flags::unknown(other),
            }
        }
        Ok((seed, out, smoke))
    }

    #[test]
    fn flags_and_values_are_read_in_any_order() {
        assert_eq!(parse(&[]), Ok((1, "out.json".into(), false)));
        let args = ["--smoke", "--out", "a.json", "--seed", "7"];
        assert_eq!(parse(&args), Ok((7, "a.json".into(), true)));
    }

    #[test]
    fn an_unknown_flag_is_named() {
        let err = parse(&["--seed", "7", "--sed", "8"]);
        assert_eq!(err, Err("unknown argument --sed".into()));
    }

    #[test]
    fn a_missing_value_is_named() {
        assert_eq!(parse(&["--out"]), Err("--out requires a value".into()));
        let err = parse(&["--seed", "x"]);
        assert_eq!(err, Err("--seed: invalid digit found in string".into()));
    }

    #[test]
    fn a_value_that_starts_with_two_dashes_is_a_missing_value() {
        let err = parse(&["--out", "--smoke"]);
        assert_eq!(err, Err("--out requires a value".into()));
        // One dash is a value: a negative number fails as a number.
        let err = parse(&["--seed", "-1"]);
        assert_eq!(err, Err("--seed: invalid digit found in string".into()));
    }
}

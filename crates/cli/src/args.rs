//! Tiny hand-rolled argument parser (no external dependencies).
//!
//! Supports `--flag value` and `--flag=value` forms, valueless boolean
//! switches (declared up front), and positional arguments, which is all
//! the CLI needs.

use std::collections::HashMap;

/// Parsed command-line arguments: positionals in order, flags by name.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positionals: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses raw arguments (without the program name).  Every `--flag`
    /// takes a value; see [`Args::parse_with_switches`] for boolean
    /// switches.
    ///
    /// # Errors
    ///
    /// Returns a message if a `--flag` is missing its value.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
        Args::parse_with_switches(raw, &[])
    }

    /// Parses raw arguments, treating the named flags as valueless
    /// boolean switches (present or absent; probe with
    /// [`Args::flag`]`.is_some()`).  A switch may still be written
    /// `--name=value` explicitly.
    ///
    /// # Errors
    ///
    /// Returns a message if a non-switch `--flag` is missing its value.
    pub fn parse_with_switches(
        raw: impl IntoIterator<Item = String>,
        switches: &[&str],
    ) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = raw.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if let Some((k, v)) = name.split_once('=') {
                    args.flags.insert(k.to_string(), v.to_string());
                } else if switches.contains(&name) {
                    args.flags.insert(name.to_string(), "true".to_string());
                } else {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("flag --{name} requires a value"))?;
                    args.flags.insert(name.to_string(), v);
                }
            } else {
                args.positionals.push(a);
            }
        }
        Ok(args)
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Number of positional arguments.
    pub fn positional_count(&self) -> usize {
        self.positionals.len()
    }

    /// Whether any `--flag` or switch was given.
    pub fn has_flags(&self) -> bool {
        !self.flags.is_empty()
    }

    /// A flag's raw value.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A flag parsed to a type, with a default when absent.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn flag_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn positionals_and_flags() {
        let a = parse(&["run", "prog.mc", "--density", "100", "--seed=7"]);
        assert_eq!(a.positional(0), Some("run"));
        assert_eq!(a.positional(1), Some("prog.mc"));
        assert_eq!(a.positional_count(), 2);
        assert_eq!(a.flag("density"), Some("100"));
        assert_eq!(a.flag("seed"), Some("7"));
        assert_eq!(a.flag("missing"), None);
    }

    #[test]
    fn flag_or_defaults_and_parses() {
        let a = parse(&["--runs", "250"]);
        assert_eq!(a.flag_or("runs", 10usize).unwrap(), 250);
        assert_eq!(a.flag_or("seed", 42u64).unwrap(), 42);
        assert!(a.flag_or::<usize>("runs", 0).is_ok());
        let bad = parse(&["--runs", "abc"]);
        assert!(bad.flag_or::<usize>("runs", 0).is_err());
    }

    #[test]
    fn missing_flag_value_is_an_error() {
        assert!(Args::parse(vec!["--density".to_string()]).is_err());
    }

    #[test]
    fn switches_take_no_value() {
        let raw: Vec<String> = ["run", "p.mc", "--metrics", "--density", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let a = Args::parse_with_switches(raw, &["metrics"]).unwrap();
        assert_eq!(a.flag("metrics"), Some("true"));
        assert_eq!(a.flag("density"), Some("5"));
        assert_eq!(a.positional(1), Some("p.mc"));
        // A trailing switch needs no value either.
        let raw: Vec<String> = ["--metrics".to_string()].to_vec();
        let a = Args::parse_with_switches(raw, &["metrics"]).unwrap();
        assert_eq!(a.flag("metrics"), Some("true"));
    }
}

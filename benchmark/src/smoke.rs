//! `run --smoke`: every workload at tiny sizes, one rep, traced and not.
//! A gate, not a measurement: it fails when an oracle does, or when what a
//! run prints and what `BENCHMARK.json` lists are not the same names with
//! the same units.

use crate::bench::WORKLOADS;
use std::collections::BTreeMap;
use std::process::Command;

/// Read from the repository root, where the command is run.
const SPEC: &str = "BENCHMARK.json";

pub fn run() -> bool {
    let spec = match std::fs::read_to_string(SPEC) {
        Ok(spec) => spec,
        Err(why) => {
            eprintln!("{SPEC}: {why} (run from the repository root)");
            return false;
        }
    };
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut ok = true;
    for name in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(&exe)
                .args(["run", "--workload", name, "--smoke", "--trace", trace])
                .output()
                .expect("the benchmark can start itself");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut problems = compare(name, &stdout, &listed(&spec, key));
            if !out.status.success() {
                problems.push(format!("exit {}: an oracle failed", out.status));
            }
            let verdict = if problems.is_empty() { "ok" } else { "FAILED" };
            println!("smoke {name} {key}: {verdict}");
            for problem in &problems {
                println!("  {problem}");
            }
            ok &= problems.is_empty();
        }
    }
    ok
}

/// `(name, unit)` of every metric in the array `key` of the spec. The spec
/// is this repository's own file: flat objects, no escapes in strings.
fn listed(spec: &str, key: &str) -> Vec<(String, String)> {
    let Some(at) = spec.find(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let array = &spec[at..];
    let array = &array[..array.find(']').unwrap_or(array.len())];
    array
        .split('{')
        .skip(1)
        .filter_map(|object| Some((field(object, "name")?, field(object, "unit")?)))
        .collect()
}

fn field(object: &str, key: &str) -> Option<String> {
    let rest = &object[object.find(&format!("\"{key}\""))? + key.len() + 2..];
    let rest = &rest[rest.find('"')? + 1..];
    Some(rest[..rest.find('"')?].to_string())
}

/// What is wrong with the metric lines of one run's output, if anything.
fn compare(workload: &str, stdout: &str, want: &[(String, String)]) -> Vec<String> {
    let mut printed: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let prefix = format!("{workload}/");
    for line in stdout.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        let words: Vec<&str> = rest.split(' ').collect();
        match words[..] {
            [name, value, unit] if value.parse::<f64>().is_ok_and(f64::is_finite) => {
                printed.entry(name).or_default().push(unit);
            }
            _ => return vec![format!("malformed metric line {line:?}")],
        }
    }
    let mut problems = Vec::new();
    if want.is_empty() {
        problems.push(format!("{SPEC} lists no metrics for this kind of run"));
    }
    for (name, unit) in want {
        let plain = name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        if !plain || name.is_empty() {
            problems.push(format!("{name:?} is not made of [A-Za-z0-9_.-]"));
        }
        match printed.remove(name.as_str()).as_deref() {
            Some([one]) if one == unit => {}
            Some([one]) => problems.push(format!("{name}: printed in {one}, listed in {unit}")),
            Some(many) => problems.push(format!("{name}: printed {} times", many.len())),
            None => problems.push(format!("{name}: listed but not printed")),
        }
    }
    for name in printed.keys() {
        problems.push(format!("{name}: printed but not listed"));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC_TEXT: &str = r#"{
      "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2},
        {"name": "items_per_s.hybrid", "unit": "1/s", "better": "higher", "bound": 0.1}
      ],
      "per_layer": [ {"name": "pq.push_ns.binary", "unit": "ns", "better": "lower"} ]
    }"#;

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn the_spec_lists_names_with_units() {
        let want = pairs(&[("setup_s", "s"), ("items_per_s.hybrid", "1/s")]);
        assert_eq!(listed(SPEC_TEXT, "end_to_end"), want);
        assert_eq!(
            listed(SPEC_TEXT, "per_layer"),
            pairs(&[("pq.push_ns.binary", "ns")])
        );
        assert!(listed(SPEC_TEXT, "absent").is_empty());
    }

    #[test]
    fn matching_output_has_no_problems() {
        let out =
            "# w note\nw/setup_s 0.5 s\nother/x 1 s\nw/items_per_s.hybrid 9 1/s\n{\"json\": 1}\n";
        assert_eq!(
            compare("w", out, &listed(SPEC_TEXT, "end_to_end")),
            Vec::<String>::new()
        );
    }

    #[test]
    fn every_kind_of_mismatch_is_named() {
        let want = listed(SPEC_TEXT, "end_to_end");
        let found = |out: &str, what: &str| {
            let problems = compare("w", out, &want);
            assert!(problems.iter().any(|p| p.contains(what)), "{problems:?}");
        };
        found(
            "w/setup_s 0.5 s\n",
            "items_per_s.hybrid: listed but not printed",
        );
        found(
            "w/setup_s 0.5 ms\nw/items_per_s.hybrid 9 1/s\n",
            "printed in ms",
        );
        found(
            "w/setup_s 1 s\nw/setup_s 2 s\nw/items_per_s.hybrid 9 1/s\n",
            "2 times",
        );
        found(
            "w/setup_s 1 s\nw/items_per_s.hybrid 9 1/s\nw/extra 1 s\n",
            "extra: printed but",
        );
        found("w/setup_s NaN s\n", "malformed");
        let odd = pairs(&[("bad name", "s")]);
        assert!(compare("w", "", &odd)[0].contains("not made of"));
    }
}

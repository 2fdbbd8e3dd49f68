//! `BENCH_trajectory.json` is the checked-in record of every measured
//! claim. This checks its shape, not its numbers: entries come in PR order,
//! and every workload and metric an entry names is one `BENCHMARK.json`
//! declares.

use std::collections::HashSet;

/// A JSON value; numbers are kept as their text.
#[derive(Debug)]
enum Json {
    Scalar(String),
    Text(String),
    List(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        let Json::Object(fields) = self else {
            panic!("{key} of a non-object")
        };
        let found = fields.iter().find(|(k, _)| k == key);
        &found.unwrap_or_else(|| panic!("no {key}")).1
    }

    fn list(&self) -> &[Json] {
        let Json::List(items) = self else {
            panic!("not a list")
        };
        items
    }

    fn text(&self) -> &str {
        let (Json::Text(s) | Json::Scalar(s)) = self else {
            panic!("not text")
        };
        s
    }
}

/// Reads one value off the front of `s` (the JSON these files use: no
/// escapes but `\"` and `\\`).
fn parse(s: &mut &str) -> Json {
    *s = s.trim_start();
    let (first, rest) = (s.chars().next().expect("a value"), &s[1..]);
    let close = match first {
        '[' => ']',
        '{' => '}',
        '"' => {
            let (mut text, mut chars) = (String::new(), rest.char_indices());
            while let Some((i, c)) = chars.next() {
                match c {
                    '"' => {
                        *s = &rest[i + 1..];
                        return Json::Text(text);
                    }
                    '\\' => text.push(chars.next().expect("an escape").1),
                    _ => text.push(c),
                }
            }
            panic!("unterminated string")
        }
        _ => {
            let end = s.find([',', ']', '}']).unwrap_or(s.len());
            let scalar = s[..end].trim().to_string();
            *s = &s[end..];
            return Json::Scalar(scalar);
        }
    };
    *s = rest;
    let (mut items, mut fields) = (Vec::new(), Vec::new());
    loop {
        *s = s.trim_start().trim_start_matches(',').trim_start();
        if let Some(rest) = s.strip_prefix(close) {
            *s = rest;
            return if close == ']' {
                Json::List(items)
            } else {
                Json::Object(fields)
            };
        }
        let value = parse(s);
        if close == ']' {
            items.push(value);
            continue;
        }
        *s = s.trim_start().strip_prefix(':').expect("a colon");
        fields.push((value.text().to_string(), parse(s)));
    }
}

fn read(name: &str) -> Json {
    let path = format!("{}/../{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut rest = text.as_str();
    let value = parse(&mut rest);
    assert!(rest.trim().is_empty(), "{name}: trailing {rest:?}");
    value
}

#[test]
fn the_trajectory_names_declared_workloads_and_metrics_in_pr_order() {
    let bench = read("BENCHMARK.json");
    let names = |key| -> HashSet<String> {
        let list = bench.get(key).list().iter();
        list.map(|item| item.get("name").text().to_string())
            .collect()
    };
    let workloads = names("workloads");
    let metrics: HashSet<String> = &names("end_to_end") | &names("per_layer");
    let trajectory = read("BENCH_trajectory.json");
    let entries = trajectory.list();
    assert!(!entries.is_empty());
    let mut last_pr = 0;
    for entry in entries {
        let pr: u32 = entry.get("pr").text().parse().expect("a PR number");
        assert!(pr >= last_pr, "PR {pr} after PR {last_pr}");
        last_pr = pr;
        let workload = entry.get("workload").text();
        assert!(workloads.contains(workload), "PR {pr}: workload {workload}");
        let metric = entry.get("metric").text();
        assert!(metrics.contains(metric), "PR {pr}: metric {metric}");
        let source = entry.get("source").text();
        assert!(
            ["CHANGES.md", "driver", "run"].contains(&source),
            "PR {pr}: {source}"
        );
    }
}

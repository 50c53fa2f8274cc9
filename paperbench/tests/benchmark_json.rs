//! `BENCHMARK.json` at the repository root declares exactly the metrics
//! and workloads this program prints.

use paperbench::{Workload, E2E_METRICS, LAYER_METRICS};

#[test]
fn declared_names_match_the_program() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let declared = json.matches("\"name\":").count();
    assert_eq!(
        declared,
        Workload::ALL.len() + E2E_METRICS.len() + LAYER_METRICS.len(),
        "BENCHMARK.json names a different set of workloads and metrics"
    );
    let names = Workload::ALL.iter().map(|w| (w.name(), None)).chain(
        E2E_METRICS
            .iter()
            .chain(LAYER_METRICS)
            .map(|m| (m.0, Some((m.1, m.2)))),
    );
    for (name, declared) in names {
        let entry = format!("{{\"name\": \"{name}\"");
        let at = json
            .find(&entry)
            .unwrap_or_else(|| panic!("{name} missing from BENCHMARK.json"));
        if let Some((unit, better)) = declared {
            let entry = &json[at..json[at..].find('}').map_or(json.len(), |e| at + e)];
            assert!(
                entry.contains(&format!("\"unit\": \"{unit}\"")),
                "{name}: unit differs from {unit}"
            );
            assert!(
                entry.contains(&format!("\"better\": \"{better}\"")),
                "{name}: direction differs from {better}"
            );
        }
    }
}

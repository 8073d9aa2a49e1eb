//! `/BENCHMARK.json` and the program's own tables must say the same.

use dce_benchmark::spec::{self, Contract};
use dce_benchmark::Workload;

#[test]
fn the_contract_names_what_the_program_reports() {
    let contract = Contract::load().expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(contract.workloads, workloads);

    let reported: Vec<(String, String)> =
        spec::END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
    let promised: Vec<(String, String)> =
        contract.end_to_end.iter().map(|m| (m.name.clone(), m.unit.clone())).collect();
    assert_eq!(promised, reported);
    for m in &contract.end_to_end {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound {}", m.name, m.bound);
    }
    let setup = contract.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
    assert!(!setup.higher_is_better);
    assert!(contract.end_to_end.iter().all(|m| m.bound <= setup.bound), "setup_s has the widest");

    let reported: Vec<(String, String)> =
        spec::per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    assert_eq!(contract.per_layer, reported);
    assert!(reported.len() <= 128);
}

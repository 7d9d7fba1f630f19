//! Same seed, same inputs and same counts; a different seed changes the
//! generated inputs but not the shape of a pass.

use xk_benchmark::harness::{Checks, Workload};
use xk_benchmark::spans::Tracer;
use xk_benchmark::workloads::check_matrix::{self, CheckMatrix};
use xk_benchmark::workloads::serve_zipf;

#[test]
fn serve_traces_depend_only_on_the_seed() {
    let a = serve_zipf::traces(7);
    assert_eq!(a, serve_zipf::traces(7));
    let b = serve_zipf::traces(8);
    assert_ne!(a.exact, b.exact, "another seed draws another zipf trace");
    // The pass structure does not move: same request counts.
    assert_eq!(
        (a.exact.len(), a.approx.len()),
        (b.exact.len(), b.approx.len())
    );
    // Every key is requested, so the distinct-key count is exact.
    let mut seen = a.exact.clone();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), 72);
}

#[test]
fn check_matrix_dag_depends_only_on_the_seed() {
    let dot = |seed| -> Vec<String> {
        check_matrix::cells(seed)
            .iter()
            .map(|c| c.graph.to_dot())
            .collect()
    };
    assert_eq!(dot(3), dot(3));
    assert_ne!(dot(3), dot(4), "another seed builds another DAG");
    let shape = |seed| -> Vec<(String, usize)> {
        check_matrix::cells(seed)
            .iter()
            .map(|c| (c.label.clone(), c.graph.len()))
            .collect()
    };
    assert_eq!(shape(3), shape(4), "same cells, same task count");
    assert_eq!(shape(3).len(), 16);
}

#[test]
fn a_pass_repeats_its_counts_exactly() {
    let tr = Tracer::new(false);
    let run = |seed| {
        let mut w = CheckMatrix::setup(seed, 1);
        let mut checks = Checks::default();
        w.reset();
        let out = w.pass(&tr);
        let counts = w.check(out, &mut checks);
        assert!(checks.failures.is_empty(), "{:?}", checks.failures);
        (counts, checks.attempted)
    };
    let first = run(5);
    assert_eq!(first, run(5), "same seed, same counts");
    let other = run(6);
    let get =
        |counts: &[(&str, u64)], name| counts.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    assert_eq!(get(&first.0, "schedules"), Some(17_600));
    assert_eq!(get(&first.0, "schedules"), get(&other.0, "schedules"));
    assert_eq!(get(&first.0, "graph_tasks"), get(&other.0, "graph_tasks"));
    assert_ne!(get(&first.0, "graph_edges"), get(&other.0, "graph_edges"));
}

//! What a run prints and writes: every metric as `name value unit`,
//! the result file, the trace file, and the one-line JSON result.

use crate::json::J;
use crate::stats::Metric;
use crate::sut;
use crate::trace::Tracer;
use crate::{Args, Ledger};

/// Everything one pass produced.
pub struct Run {
    pub metrics: Vec<Metric>,
    pub ledger: Ledger,
    pub notes: Vec<String>,
    pub budget_lines: Vec<String>,
    pub tracer: Tracer,
}

fn host_cores() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Prints the run, writes `<out>/<workload>[-trace].json` (and
/// `<out>/trace-<workload>.json` on a traced pass) and ends standard
/// output with the result line. Returns whether the run was correct.
pub fn emit(a: &Args, run: Run) -> bool {
    let w = a.workload;
    let correct = run.ledger.failed == 0;
    let git_rev = std::env::var("CAMUS_BENCH_GIT_REV").unwrap_or_else(|_| "unknown".into());
    println!(
        "workload {}  seed {}  seconds {}  trace {}  smoke {}  host_cores {}  workers {}  git {}  bus {}",
        w.name,
        a.seed,
        a.seconds,
        a.trace as u8,
        a.smoke,
        host_cores(),
        sut::WORKERS,
        git_rev,
        sut::TRANSPORT
    );
    println!("why: {}", w.why);
    for m in &run.metrics {
        println!("{}", m.line());
    }
    for line in run.notes.iter().chain(&run.budget_lines) {
        println!("{line}");
    }
    println!(
        "attempted {}  failed {}  correct {}",
        run.ledger.attempted, run.ledger.failed, correct
    );
    for note in &run.ledger.notes {
        println!("  FAILED: {note}");
    }

    let strings = |v: &[String]| J::A(v.iter().map(|s| J::s(s)).collect());
    let doc = J::obj([
        ("workload", J::s(w.name)),
        ("why", J::s(w.why)),
        ("seed", J::U(a.seed)),
        ("seconds", J::F(a.seconds)),
        ("trace", J::Bool(a.trace)),
        ("smoke", J::Bool(a.smoke)),
        ("host_cores", J::U(host_cores())),
        ("workers", J::U(sut::WORKERS as u64)),
        ("git_rev", J::S(git_rev)),
        ("transport", J::s(sut::TRANSPORT)),
        ("correct", J::Bool(correct)),
        ("attempted", J::U(run.ledger.attempted)),
        ("failed", J::U(run.ledger.failed)),
        ("failures", strings(&run.ledger.notes)),
        ("notes", strings(&run.notes)),
        ("budget", strings(&run.budget_lines)),
        (
            "metrics",
            J::O(
                run.metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.to_json()))
                    .collect(),
            ),
        ),
    ]);
    let suffix = if a.trace { "-trace" } else { "" };
    let write = |name: String, body: String| {
        let path = std::path::Path::new(&a.out_dir).join(name);
        if let Err(e) =
            std::fs::create_dir_all(&a.out_dir).and_then(|_| std::fs::write(&path, body))
        {
            eprintln!("camus-benchmark: cannot write {}: {e}", path.display());
        }
    };
    write(format!("{}{suffix}.json", w.name), doc.render());
    if a.trace {
        write(
            format!("trace-{}.json", w.name),
            run.tracer.to_json().render(),
        );
    }

    let line = J::obj([
        ("correct", J::Bool(correct)),
        ("attempted", J::U(run.ledger.attempted.max(1))),
        ("failed", J::U(run.ledger.failed)),
        (
            "metrics",
            J::O(
                run.metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            J::obj([("value", J::F(m.value)), ("unit", J::s(m.unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.render());
    correct
}

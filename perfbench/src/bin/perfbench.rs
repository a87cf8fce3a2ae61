//! The timed pass: end-to-end metrics with tracing off and no counting
//! allocator. See the `perfbench` library for the workloads.

fn main() -> std::process::ExitCode {
    perfbench::main_with(false)
}

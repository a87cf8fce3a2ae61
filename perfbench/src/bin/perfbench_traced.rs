//! The traced pass: per-layer metrics. This binary alone installs the
//! counting allocator, so the timed pass never pays for it.

#[global_allocator]
static ALLOCATOR: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::main_with(true)
}

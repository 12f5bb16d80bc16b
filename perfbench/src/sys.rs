//! Process-level measurements: CPU time, peak RSS, OS threads and heap
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations by every thread of the process (`alloc`,
/// `alloc_zeroed` and `realloc` calls), as the repository's alloc gate
/// counts them.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts allocations process-wide.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations so far, process-wide.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

fn rusage() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // the C library expects, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage
}

/// User plus system CPU time of the whole process, in seconds.
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    (u.utime.sec + u.stime.sec) as f64 + (u.utime.usec + u.stime.usec) as f64 / 1e6
}

/// The process's high-water resident set size, in MB.
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss_kb as f64 / 1024.0
}

/// OS threads in this process right now.
pub fn threads() -> usize {
    hdvb_serve::os_thread_count().unwrap_or(0)
}

/// The first line of `/proc/cpuinfo` naming the CPU model.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Waits up to `timeout_ms` for any of `fds` to become readable (or to
/// report hang-up or error, which a read then surfaces). Returns one
/// flag per descriptor.
pub fn poll_readable(fds: &[std::os::fd::RawFd], timeout_ms: i32) -> std::io::Result<Vec<bool>> {
    let mut set: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `set` is a live, writable array of `set.len()` pollfd
    // structs in the C layout, and the kernel writes only `revents`.
    let rc = unsafe { poll(set.as_mut_ptr(), set.len() as u64, timeout_ms) };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() == std::io::ErrorKind::Interrupted {
            return Ok(vec![false; fds.len()]);
        }
        return Err(e);
    }
    Ok(set.iter().map(|p| p.revents != 0).collect())
}

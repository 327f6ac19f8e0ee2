//! Process and machine facts read from `/proc`, CPU pinning, and pages
//! mapped apart from the allocator — the benchmark's only foreign calls.

use std::fs;

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is
/// 100 on every mainstream kernel configuration.
const TICKS_PER_SECOND: f64 = 100.0;

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// A `Key:   value` line of `/proc/<pid>/status`, value as text.
fn status_field(pid: Option<u32>, key: &str) -> Option<String> {
    let text = fs::read_to_string(proc_path(pid, "status")).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':').map(|v| v.trim().to_string()))
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let kib: f64 = status_field(pid, "VmHWM")?.strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

/// User plus system CPU time of a process (all its threads, live and
/// exited), in seconds.
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let text = fs::read_to_string(proc_path(pid, "stat")).ok()?;
    // fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name
    let rest = &text[text.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// The CPUs this process may run on, as the kernel lists them
/// (`Cpus_allowed_list`, e.g. `0-1`).
pub fn cpus_allowed() -> String {
    status_field(None, "Cpus_allowed_list").unwrap_or_else(|| "unknown".into())
}

/// Expands a kernel CPU list such as `0-2,5` into CPU numbers.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let bounds: Vec<Option<usize>> = part.split('-').map(|b| b.parse().ok()).collect();
        match bounds.as_slice() {
            [Some(cpu)] => cpus.push(*cpu),
            [Some(lo), Some(hi)] if lo <= hi => cpus.extend(*lo..=*hi),
            _ => {}
        }
    }
    cpus
}

/// The processor model from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

// Linux's mmap flags.
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 2;
const MAP_ANONYMOUS: i32 = 0x20;

/// Zero-filled `u64`s in an anonymous mapping of their own. Unlike a heap
/// buffer, which the allocator keeps resident for reuse after it is
/// freed, the pages leave the resident set when this is dropped.
pub struct Pages {
    ptr: *mut u64,
    words: usize,
}

impl Pages {
    pub fn new(words: usize) -> Result<Self, String> {
        let len = words.checked_mul(8).ok_or("mapping too large")?;
        // SAFETY: a fresh private anonymous mapping at an address the
        // kernel chooses aliases no memory of this process; failure
        // returns MAP_FAILED (all bits set), which is checked below.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if ptr as usize == usize::MAX {
            return Err(format!("mmap: {}", std::io::Error::last_os_error()));
        }
        Ok(Pages { ptr: ptr.cast(), words })
    }

    pub fn as_mut_slice(&mut self) -> &mut [u64] {
        // SAFETY: `ptr` is the live, page-aligned (so `u64`-aligned),
        // zero-filled mapping of `words` words that `self` owns; the
        // slice borrows `self` mutably, so it is the only reference.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.words) }
    }
}

impl Drop for Pages {
    fn drop(&mut self) {
        // SAFETY: this is exactly the mapping `new` made, and no slice of
        // it outlives `self`. A failure leaves the pages mapped, which is
        // harmless.
        unsafe { munmap(self.ptr.cast(), self.words * 8) };
    }
}

/// Pins the calling thread to the last CPU it may use. Threads and child
/// processes it creates afterwards inherit the pinning.
pub fn pin_to_last_cpu() -> Result<(), String> {
    let cpus = parse_cpu_list(&cpus_allowed());
    pin_to_cpu(*cpus.last().ok_or("no CPU is allowed")?)
}

/// Pins the calling thread to one CPU.
fn pin_to_cpu(cpu: usize) -> Result<(), String> {
    // glibc's cpu_set_t: 1024 bits
    let mut mask = [0u8; 128];
    if cpu >= mask.len() * 8 {
        return Err(format!("cpu {cpu} is beyond the affinity mask"));
    }
    mask[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: `mask` is a live, initialised buffer of exactly the length
    // passed, which the kernel only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, mask.len(), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity({cpu}) failed: {}", std::io::Error::last_os_error()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_expand() {
        assert_eq!(parse_cpu_list("0-2,5"), vec![0, 1, 2, 5]);
        assert_eq!(parse_cpu_list("3"), vec![3]);
        assert!(parse_cpu_list("x").is_empty());
    }

    #[test]
    fn own_process_facts_read() {
        let _serial = crate::tests::serial();
        assert!(peak_rss_mib(None).unwrap() > 0.0);
        assert!(reset_peak_rss().is_ok());
        let mut pages = Pages::new(1000).unwrap();
        assert!(pages.as_mut_slice().iter().all(|&w| w == 0));
        pages.as_mut_slice()[999] = 7;
        assert_eq!(pages.as_mut_slice().iter().sum::<u64>(), 7);
        assert!(cpu_seconds(None).is_some());
        assert!(!parse_cpu_list(&cpus_allowed()).is_empty());
    }
}

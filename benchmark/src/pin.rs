//! Pins the benchmark process to one CPU.
//!
//! On the 2-vCPU reference VM a wake-up that crosses vCPUs costs
//! 0.1–10 ms depending on what the host is doing, and the closed-loop
//! wire workload (five threads handing each request to the next) swung
//! between 10,000 and 37,000 requests/s from run to run. On one CPU the
//! same workload is CPU-bound — it measures the serving code, not the
//! hypervisor — and repeats within a few percent. The join and ingest
//! loops are single-threaded and indifferent to the pin. Threads
//! started later (server workers, generators) inherit it.

/// The CPU this process is now confined to; `None` where pinning is not
/// implemented or the kernel refused.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    const SYS_SCHED_SETAFFINITY: usize = 203;
    const SYS_SCHED_GETAFFINITY: usize = 204;
    let mut allowed = [0u64; 16];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: sched_getaffinity(pid 0 = this thread, len, mask) writes at
    // most `len` bytes to `mask`; `allowed` is exactly `bytes` long and
    // outlives the call.
    let written = unsafe {
        syscall3(
            SYS_SCHED_GETAFFINITY,
            0,
            bytes,
            allowed.as_mut_ptr() as usize,
        )
    };
    if written <= 0 {
        return None;
    }
    let word = allowed.iter().position(|&w| w != 0)?;
    let cpu = word * 64 + allowed[word].trailing_zeros() as usize;
    let mut only = [0u64; 16];
    only[word] = 1 << (cpu % 64);
    // SAFETY: sched_setaffinity reads `len` bytes from `mask`; `only` is
    // exactly `bytes` long and outlives the call.
    let status = unsafe { syscall3(SYS_SCHED_SETAFFINITY, 0, bytes, only.as_ptr() as usize) };
    (status == 0).then_some(cpu)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// A raw three-argument Linux system call (the repository links no libc
/// crate).
///
/// # Safety
/// `number` and the arguments must form a call whose memory accesses
/// stay inside buffers the caller owns for the duration of the call.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall3(number: usize, a: usize, b: usize, c: usize) -> isize {
    let result: isize;
    // SAFETY: the x86-64 Linux syscall ABI — number in rax, arguments in
    // rdi/rsi/rdx, result in rax, rcx and r11 clobbered; the caller
    // vouches for what the kernel does with the arguments.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") number as isize => result,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    result
}

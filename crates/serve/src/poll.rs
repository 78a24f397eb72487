//! Readiness polling over raw file descriptors, with no external
//! dependencies.
//!
//! The default on Linux/x86-64 is a real `epoll` instance driven
//! through raw syscalls (`epoll_create1`/`epoll_ctl`/`epoll_wait` via
//! inline assembly — the build has no libc binding crate). Everywhere
//! else — and under `MSJ_SERVE_POLLER=scan` — a portable scan poller
//! stands in: it reports every registered descriptor as ready after a
//! short sleep, which is correct (if less efficient) because all server
//! I/O is nonblocking and treats `WouldBlock` as "not actually ready".

use std::collections::HashMap;
use std::os::fd::RawFd;

/// One readiness event: the token the descriptor registered under plus
/// the directions that are (possibly spuriously) ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
}

/// The poller interface the event loop drives.
pub trait Poller: Send {
    /// Starts watching `fd` under `token` for the given directions.
    fn register(&mut self, fd: RawFd, token: u64, readable: bool, writable: bool);
    /// Rearms `fd`'s interest set.
    fn modify(&mut self, fd: RawFd, token: u64, readable: bool, writable: bool);
    /// Stops watching `fd`.
    fn deregister(&mut self, fd: RawFd);
    /// Blocks up to `timeout_ms` for readiness; appends events to `out`.
    fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Event>);
    /// The poller's name, for diagnostics.
    fn name(&self) -> &'static str;
}

/// Builds the best poller for this platform, honoring
/// `MSJ_SERVE_POLLER=scan` as an override.
pub fn new_poller() -> Box<dyn Poller> {
    let scan = std::env::var("MSJ_SERVE_POLLER").is_ok_and(|v| v.eq_ignore_ascii_case("scan"));
    if !scan {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Some(epoll) = epoll::EpollPoller::new() {
            return Box::new(epoll);
        }
    }
    Box::new(ScanPoller::default())
}

/// The portable fallback: every registered descriptor is reported ready
/// in its interest directions after a short sleep. All consumers do
/// nonblocking I/O, so a spurious "ready" costs one `WouldBlock` and
/// nothing else.
#[derive(Default)]
pub struct ScanPoller {
    interest: HashMap<RawFd, (u64, bool, bool)>,
}

impl Poller for ScanPoller {
    fn register(&mut self, fd: RawFd, token: u64, readable: bool, writable: bool) {
        self.interest.insert(fd, (token, readable, writable));
    }

    fn modify(&mut self, fd: RawFd, token: u64, readable: bool, writable: bool) {
        self.interest.insert(fd, (token, readable, writable));
    }

    fn deregister(&mut self, fd: RawFd) {
        self.interest.remove(&fd);
    }

    fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Event>) {
        // A short fixed sleep bounds the busy-scan rate; the cap keeps
        // shutdown/wake latency low even when callers pass a long
        // timeout.
        let ms = timeout_ms.clamp(0, 5) as u64;
        if ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        for (&_fd, &(token, readable, writable)) in &self.interest {
            if readable || writable {
                out.push(Event {
                    token,
                    readable,
                    writable,
                });
            }
        }
    }

    fn name(&self) -> &'static str {
        "scan"
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod epoll {
    use super::{Event, Poller};
    use std::os::fd::RawFd;

    const SYS_CLOSE: usize = 3;
    const SYS_EPOLL_WAIT: usize = 232;
    const SYS_EPOLL_CTL: usize = 233;
    const SYS_EPOLL_CREATE1: usize = 291;

    const EPOLL_CLOEXEC: usize = 0x80000;
    const EPOLL_CTL_ADD: usize = 1;
    const EPOLL_CTL_DEL: usize = 2;
    const EPOLL_CTL_MOD: usize = 3;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EINTR: isize = -4;

    /// The x86-64 kernel ABI lays `epoll_event` out packed (64-bit data
    /// at offset 4).
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// One raw Linux x86-64 `syscall` (result in `rax`, negative for
    /// `-errno`; the kernel clobbers `rcx` and `r11`).
    ///
    /// # Safety
    ///
    /// Every pointer argument must be valid for what syscall `n` reads or
    /// writes through it while the call runs, and a descriptor the call
    /// closes must not be used again.
    #[inline]
    unsafe fn syscall4(n: usize, a: usize, b: usize, c: usize, d: usize) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    pub struct EpollPoller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl EpollPoller {
        pub fn new() -> Option<Self> {
            // SAFETY: `epoll_create1` takes a flags word and no pointer; it
            // only allocates a descriptor, owned by the value built below.
            let epfd = unsafe { syscall4(SYS_EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0) };
            if epfd < 0 {
                return None;
            }
            Some(EpollPoller {
                epfd: epfd as RawFd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 128],
            })
        }

        fn ctl(&self, op: usize, fd: RawFd, token: u64, readable: bool, writable: bool) {
            let mut events = EPOLLRDHUP;
            if readable {
                events |= EPOLLIN;
            }
            if writable {
                events |= EPOLLOUT;
            }
            let ev = EpollEvent {
                events,
                data: token,
            };
            // Registration failures (e.g. a fd closed by the peer in the
            // same tick) surface as missing readiness; the timeout sweep
            // reaps such connections, so this is deliberately non-fatal.
            //
            // SAFETY: `self.epfd` is the live epoll descriptor this value
            // owns; `ev` is a local in the kernel's packed `epoll_event`
            // layout that outlives the call, and `epoll_ctl` only reads it
            // (and ignores it for `EPOLL_CTL_DEL`). A stale or foreign `fd`
            // makes the kernel return an error, nothing more.
            unsafe {
                syscall4(
                    SYS_EPOLL_CTL,
                    self.epfd as usize,
                    op,
                    fd as usize,
                    &ev as *const EpollEvent as usize,
                );
            }
        }
    }

    impl Poller for EpollPoller {
        fn register(&mut self, fd: RawFd, token: u64, readable: bool, writable: bool) {
            self.ctl(EPOLL_CTL_ADD, fd, token, readable, writable);
        }

        fn modify(&mut self, fd: RawFd, token: u64, readable: bool, writable: bool) {
            self.ctl(EPOLL_CTL_MOD, fd, token, readable, writable);
        }

        fn deregister(&mut self, fd: RawFd) {
            self.ctl(EPOLL_CTL_DEL, fd, 0, false, false);
        }

        fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Event>) {
            // SAFETY: `self.epfd` is owned and open; the kernel writes at
            // most `self.buf.len()` packed `epoll_event`s into `self.buf`,
            // which is exclusively borrowed (`&mut self`) for the call and
            // whose elements are plain integers valid for any bit pattern.
            let n = unsafe {
                syscall4(
                    SYS_EPOLL_WAIT,
                    self.epfd as usize,
                    self.buf.as_mut_ptr() as usize,
                    self.buf.len(),
                    timeout_ms as usize,
                )
            };
            if n == EINTR || n < 0 {
                return;
            }
            for ev in &self.buf[..n as usize] {
                let events = ev.events;
                let hangup = events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
                out.push(Event {
                    token: ev.data,
                    // Hangups surface as readable so the connection's
                    // next read observes EOF and closes cleanly.
                    readable: events & EPOLLIN != 0 || hangup,
                    writable: events & EPOLLOUT != 0,
                });
            }
        }

        fn name(&self) -> &'static str {
            "epoll"
        }
    }

    impl Drop for EpollPoller {
        fn drop(&mut self) {
            // SAFETY: `self.epfd` came from `epoll_create1`, was never
            // handed out, and is closed exactly once — here.
            unsafe {
                syscall4(SYS_CLOSE, self.epfd as usize, 0, 0, 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;

    fn exercise(mut poller: Box<dyn Poller>) {
        let (mut a, mut b) = std::os::unix::net::UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(a.as_raw_fd(), 7, true, false);

        // Nothing pending: epoll reports nothing; the scan poller may
        // spuriously report readiness, which consumers absorb as
        // WouldBlock — so only the positive direction is asserted.
        b.write_all(b"x").unwrap();
        let mut events = Vec::new();
        for _ in 0..100 {
            poller.wait(10, &mut events);
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            events.clear();
        }
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "{} poller never reported readability",
            poller.name()
        );
        let mut buf = [0u8; 8];
        assert_eq!(a.read(&mut buf).unwrap(), 1);
        poller.deregister(a.as_raw_fd());
    }

    #[test]
    fn scan_poller_reports_registered_fds() {
        exercise(Box::new(ScanPoller::default()));
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn epoll_poller_reports_readability() {
        let poller = epoll::EpollPoller::new().expect("epoll_create1");
        exercise(Box::new(poller));
    }

    #[test]
    fn default_poller_is_epoll_without_the_override() {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if std::env::var("MSJ_SERVE_POLLER").is_err() {
            assert_eq!(new_poller().name(), "epoll");
        }
    }
}

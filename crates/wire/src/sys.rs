//! Minimal hand-written Linux syscall bindings for the poller's epoll set.
//!
//! The build is offline — no `libc` crate — so the epoll and poll entry
//! points the reactor needs are declared here directly against the C ABI.
//! The crate builds on Linux only (`lib.rs` refuses any other target), so
//! nothing here is gated.
//!
//! ABI notes worth keeping visible:
//!
//! * `struct epoll_event` is packed on x86-64 (a kernel ABI quirk dating
//!   to the 32/64-bit compat layer) and naturally aligned everywhere
//!   else — hence the `cfg_attr(target_arch = "x86_64", repr(packed))`.
//! * `epoll_wait`'s and `poll`'s timeouts are **milliseconds**: a
//!   non-zero timeout is rounded *up* to the next one ([`timeout_ms`]),
//!   so a 300 µs wait blocks (for a millisecond) instead of turning into
//!   a non-blocking poll that its caller would spin on.

use std::io;
use std::os::raw::c_int;
use std::time::Duration;

pub const EPOLL_CLOEXEC: c_int = 0o2000000;
pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;

pub const EPOLLIN: u32 = 0x1;
pub const EPOLLRDHUP: u32 = 0x2000;

const POLLOUT: i16 = 0x4;

/// `struct epoll_event`: readiness mask plus the caller's 64-bit token.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

/// `struct pollfd` for the single-fd write-readiness wait.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

const AF_INET: c_int = 2;
const SOCK_STREAM: c_int = 1;
const SOCK_CLOEXEC: c_int = 0o2000000;
const SOL_SOCKET: c_int = 1;
const SO_REUSEADDR: c_int = 2;

/// `struct sockaddr_in` for the reusable-bind path (IPv4 only — the wire
/// layer's concrete addresses are loopback).
#[repr(C)]
struct SockAddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_int,
        optlen: u32,
    ) -> c_int;
    fn bind(fd: c_int, addr: *const SockAddrIn, addrlen: u32) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
}

/// Binds and listens on a concrete IPv4 address with `SO_REUSEADDR` set
/// before the bind — `std::net` offers no hook for socket options, and
/// without the flag a restarted service cannot reclaim its port while
/// connections it accepted there sit in `TIME_WAIT`.
///
/// # Errors
///
/// The raw OS error from whichever syscall refuses.
pub fn tcp_listen_reuseaddr(addr: &std::net::SocketAddrV4) -> io::Result<std::net::TcpListener> {
    use std::os::fd::FromRawFd;
    // SAFETY: plain syscall, no pointers.
    let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // Own the fd immediately so every early return below closes it.
    struct OwnedFd(c_int);
    impl Drop for OwnedFd {
        fn drop(&mut self) {
            // SAFETY: an fd this struct owns exclusively.
            let _ = unsafe { close(self.0) };
        }
    }
    let owned = OwnedFd(fd);
    let one: c_int = 1;
    // SAFETY: `one` is a live c_int and its size is passed as optlen.
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_REUSEADDR,
            &one,
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    let sockaddr = SockAddrIn {
        sin_family: AF_INET as u16,
        sin_port: addr.port().to_be(),
        sin_addr: u32::from_ne_bytes(addr.ip().octets()),
        sin_zero: [0; 8],
    };
    // SAFETY: `sockaddr` is a valid sockaddr_in for the duration of the
    // call and its exact size is passed.
    let rc = unsafe { bind(fd, &sockaddr, std::mem::size_of::<SockAddrIn>() as u32) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: plain syscall on the bound fd.
    let rc = unsafe { listen(fd, 128) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    std::mem::forget(owned);
    // SAFETY: the fd is a freshly created, bound, listening socket whose
    // ownership transfers to the TcpListener.
    Ok(unsafe { std::net::TcpListener::from_raw_fd(fd) })
}

/// `timeout` in the whole milliseconds `epoll_wait` and `poll` take,
/// rounded up so that only a zero timeout is non-blocking; saturates at
/// the largest `c_int`.
fn timeout_ms(timeout: Duration) -> c_int {
    c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
}

/// An owned epoll instance (closed on drop).
pub struct EpollFd(c_int);

impl EpollFd {
    /// Creates a close-on-exec epoll instance.
    ///
    /// # Errors
    ///
    /// The raw OS error when the kernel refuses (fd exhaustion).
    pub fn new() -> io::Result<Self> {
        // SAFETY: no pointers involved; the kernel validates the flag.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self(fd))
    }

    /// Starts watching `fd` for read readiness, tagging events with
    /// `token`.
    ///
    /// # Errors
    ///
    /// The raw OS error (e.g. `EPERM` for fds epoll cannot watch).
    pub fn add(&self, fd: i32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: EPOLLIN | EPOLLRDHUP,
            data: token,
        };
        // SAFETY: `ev` is a valid, live epoll_event for the duration of
        // the call; the kernel copies it before returning.
        let rc = unsafe { epoll_ctl(self.0, EPOLL_CTL_ADD, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Stops watching `fd`. Best-effort: a missing registration (the peer
    /// already closed the fd) is not an error worth surfacing.
    pub fn del(&self, fd: i32) {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `add`; DEL ignores the event argument on any
        // kernel newer than 2.6.9 but must still be non-null there.
        let _ = unsafe { epoll_ctl(self.0, EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Waits up to `timeout` (rounded up to whole milliseconds) for
    /// readiness, appending each ready token to `ready`. A zero timeout
    /// polls without blocking. Returns the number of ready events.
    ///
    /// # Errors
    ///
    /// The raw OS error from `epoll_wait` (`EINTR` is retried internally).
    pub fn wait(&self, ready: &mut Vec<u64>, timeout: Duration) -> io::Result<usize> {
        const MAX_EVENTS: usize = 128;
        let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let timeout_ms = timeout_ms(timeout);
        loop {
            // SAFETY: the buffer outlives the call and its length is
            // passed as maxevents.
            let rc =
                unsafe { epoll_wait(self.0, events.as_mut_ptr(), MAX_EVENTS as c_int, timeout_ms) };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            let n = rc as usize;
            for ev in &events[..n] {
                ready.push(ev.data);
            }
            return Ok(n);
        }
    }
}

impl Drop for EpollFd {
    fn drop(&mut self) {
        // SAFETY: `self.0` is an fd this struct owns exclusively.
        let _ = unsafe { close(self.0) };
    }
}

/// Blocks until `fd` is writable or `timeout` (rounded up to whole
/// milliseconds) elapses. Returns whether the fd reported writability
/// (false on timeout).
///
/// # Errors
///
/// The raw OS error from `poll` (`EINTR` is retried internally).
pub fn wait_writable(fd: i32, timeout: Duration) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd,
        events: POLLOUT,
        revents: 0,
    };
    let timeout_ms = timeout_ms(timeout);
    loop {
        // SAFETY: one valid pollfd, length 1.
        let rc = unsafe { poll(&mut pfd, 1, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
        // Any revents (POLLOUT, or POLLERR/POLLHUP which a write will
        // surface as a proper error) means "try the write now".
        return Ok(rc > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn epoll_reports_readable_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();

        let ep = EpollFd::new().unwrap();
        ep.add(server.as_raw_fd(), 42).unwrap();

        let mut ready = Vec::new();
        // Nothing written yet: a zero-timeout wait sees nothing.
        assert_eq!(ep.wait(&mut ready, Duration::ZERO).unwrap(), 0);

        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let n = ep.wait(&mut ready, Duration::from_secs(5)).unwrap();
        assert_eq!(n, 1);
        assert_eq!(ready, vec![42]);

        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");

        // Level-triggered: once drained, idle again.
        ready.clear();
        assert_eq!(ep.wait(&mut ready, Duration::ZERO).unwrap(), 0);
        ep.del(server.as_raw_fd());
    }

    #[test]
    fn reuseaddr_listener_rebinds_after_serving() {
        // Find a free concrete port, then bind it with SO_REUSEADDR.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = match probe.local_addr().unwrap() {
            std::net::SocketAddr::V4(v4) => v4,
            other => panic!("unexpected addr family: {other}"),
        };
        drop(probe);
        let listener = tcp_listen_reuseaddr(&addr).unwrap();
        assert_eq!(listener.local_addr().unwrap().port(), addr.port());

        // Serve one connection that the *server* closes first, leaving a
        // TIME_WAIT entry on the port, then rebind immediately — the
        // restart path a plain bind would refuse.
        let client = TcpStream::connect(addr).unwrap();
        let (server_conn, _) = listener.accept().unwrap();
        drop(server_conn);
        drop(listener);
        let mut buf = [0u8; 1];
        let _ = (&client).read(&mut buf); // observe the close
        let again = tcp_listen_reuseaddr(&addr).unwrap();
        assert_eq!(again.local_addr().unwrap().port(), addr.port());
        drop(client);
    }

    #[test]
    fn timeouts_round_up_to_whole_milliseconds() {
        assert_eq!(timeout_ms(Duration::ZERO), 0);
        assert_eq!(timeout_ms(Duration::from_nanos(1)), 1);
        assert_eq!(timeout_ms(Duration::from_micros(300)), 1);
        assert_eq!(timeout_ms(Duration::from_millis(1)), 1);
        assert_eq!(timeout_ms(Duration::from_micros(1900)), 2);
        assert_eq!(timeout_ms(Duration::from_secs(u64::MAX)), c_int::MAX);
    }

    #[test]
    fn a_sub_millisecond_wait_on_an_empty_set_blocks() {
        let ep = EpollFd::new().unwrap();
        let mut ready = Vec::new();
        let started = std::time::Instant::now();
        assert_eq!(ep.wait(&mut ready, Duration::from_micros(300)).unwrap(), 0);
        assert!(started.elapsed() >= Duration::from_micros(300));
    }

    #[test]
    fn wait_writable_sees_an_open_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let _server = listener.accept().unwrap();
        assert!(wait_writable(client.as_raw_fd(), Duration::from_secs(1)).unwrap());
    }
}

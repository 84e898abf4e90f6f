//! Thin readiness-polling layer over raw OS primitives.
//!
//! The container vendors no `libc` crate, but every Rust binary links the
//! platform C library, so the handful of syscall wrappers the reactor needs
//! are declared directly (the same trick `vliw-served` uses for `signal`).
//! The server is Linux-only: [`Poller`] is Linux `epoll(7)` (O(ready)
//! wakeups, see [`epoll`]).
//!
//! The interface is token-based: register a file descriptor with a `u64`
//! token and an [`Interest`] mask, wait for [`Event`]s, and the reactor
//! never touches a raw fd outside this module. A [`Waker`] (nonblocking
//! socketpair, write end async-signal-safe) lets worker threads and signal
//! handlers interrupt a blocked wait.

pub mod epoll;

pub use epoll::Poller;

use std::io;
use std::os::unix::io::RawFd;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Readiness classes a registration can subscribe to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Neither direction (keeps the registration, delivers only hangups).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd has bytes to read (or a hangup to observe via `read() == 0`).
    pub readable: bool,
    /// The fd can accept more bytes.
    pub writable: bool,
    /// Error or hangup condition; the owner should read to EOF and close.
    pub hangup: bool,
}

/// Clamp a `Duration` to the millisecond argument `epoll_wait` takes.
/// `None` means "block forever" (-1); sub-millisecond waits round up so a
/// short timeout never busy-spins at 0ms.
pub(crate) fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis();
            if ms == 0 && !d.is_zero() {
                1
            } else {
                ms.min(i32::MAX as u128) as i32
            }
        }
    }
}

/// Cross-thread (and signal-handler) wakeup for a blocked [`Poller::wait`].
///
/// A nonblocking socketpair: the read end is registered with the poller, any
/// thread writes one byte to wake it. A full pipe means a wake is already
/// pending, so `WouldBlock` on write is success. `write(2)` is
/// async-signal-safe, which is what lets `vliw-served`'s SIGTERM handler
/// call [`Waker::wake_raw`] directly instead of parking a polling thread.
pub struct Waker {
    read: UnixStream,
    write: UnixStream,
}

impl Waker {
    /// A fresh waker pair, both ends nonblocking.
    pub fn new() -> io::Result<Waker> {
        let (read, write) = UnixStream::pair()?;
        read.set_nonblocking(true)?;
        write.set_nonblocking(true)?;
        Ok(Waker { read, write })
    }

    /// The fd to register with the poller (readable when woken).
    pub fn fd(&self) -> RawFd {
        use std::os::unix::io::AsRawFd;
        self.read.as_raw_fd()
    }

    /// The raw write-end fd, for [`Waker::wake_raw`] from a signal handler.
    pub fn write_fd(&self) -> RawFd {
        use std::os::unix::io::AsRawFd;
        self.write.as_raw_fd()
    }

    /// Wake the poller. Idempotent while a wake is pending.
    pub fn wake(&self) {
        use std::io::Write;
        // WouldBlock: the pipe already holds an unconsumed wake byte.
        let _ = (&self.write).write(&[1u8]);
    }

    /// Async-signal-safe wake through a raw fd previously obtained from
    /// [`Waker::write_fd`]. Only `write(2)` is invoked.
    pub fn wake_raw(fd: RawFd) {
        let buf = [1u8];
        // SAFETY: plain write(2) on an open fd; short or failed writes are
        // fine (a pending byte already guarantees the wakeup).
        unsafe {
            ffi::write(fd, buf.as_ptr().cast(), 1);
        }
    }

    /// Drain all pending wake bytes (called by the reactor once awake).
    pub fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while let Ok(n) = (&self.read).read(&mut buf) {
            if n == 0 {
                break;
            }
        }
    }
}

/// Shrink a socket's kernel receive buffer — test hook for forcing the
/// server into short writes (the partial-write torture path). Returns the
/// OS error if `setsockopt` rejects the size.
pub fn set_recv_buffer_size(socket: &std::net::TcpStream, bytes: i32) -> io::Result<()> {
    use std::os::unix::io::AsRawFd;
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    // SAFETY: standard setsockopt with an i32 optval on an open socket fd.
    let rc = unsafe {
        ffi::setsockopt(
            socket.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&raw const bytes).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// The raw C symbols this module links from the platform libc.
pub(crate) mod ffi {
    extern "C" {
        pub fn write(fd: i32, buf: *const core::ffi::c_void, count: usize) -> isize;
        pub fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> i32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn waker_wakes_a_blocked_wait_on_every_backend() {
        let mut poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.register(waker.fd(), 7, Interest::READ).unwrap();
        waker.wake();
        waker.wake(); // coalesces, never errors
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "waker event missing: {events:?}"
        );
        waker.drain();
        // Drained: a short wait now times out with no events.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn socket_readiness_and_reregister() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (sock, _) = listener.accept().unwrap();
        sock.set_nonblocking(true).unwrap();
        poller
            .register(sock.as_raw_fd(), 42, Interest::READ)
            .unwrap();

        let mut events = Vec::new();
        // Nothing sent yet: no readable event.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 42));

        (&peer).write_all(b"x").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 42 && e.readable),
            "expected readable, got {events:?}"
        );

        // Writable interest on an idle socket fires immediately.
        poller
            .reregister(sock.as_raw_fd(), 42, Interest::WRITE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 42 && e.writable),
            "expected writable, got {events:?}"
        );

        poller.deregister(sock.as_raw_fd()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn hangup_is_reported() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (sock, _) = listener.accept().unwrap();
        sock.set_nonblocking(true).unwrap();
        poller
            .register(sock.as_raw_fd(), 9, Interest::READ)
            .unwrap();
        drop(peer);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events
                .iter()
                .any(|e| e.token == 9 && (e.hangup || e.readable)),
            "hangup not visible: {events:?}"
        );
    }
}

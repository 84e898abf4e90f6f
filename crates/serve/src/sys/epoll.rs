//! Linux `epoll(7)`: O(ready) readiness waits.
//!
//! Level-triggered (the reactor re-arms interest explicitly, so edge
//! triggering would only add lost-wakeup hazards). The `epoll_event`
//! struct is packed on x86-64 — that is the kernel ABI — and `repr(C)`
//! elsewhere.

use super::{timeout_ms, Event, Interest};
use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EINTR: i32 = 4;

#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

fn mask(interest: Interest) -> u32 {
    // RDHUP rides the read interest only: a half-closed peer that has been
    // read to EOF (and whose connection is merely waiting for its response)
    // must not keep waking the loop — the reactor drops read interest after
    // observing `read() == 0`, and the subscription must go with it.
    let mut m = 0;
    if interest.readable {
        m |= EPOLLIN | EPOLLRDHUP;
    }
    if interest.writable {
        m |= EPOLLOUT;
    }
    m
}

/// A level-triggered readiness poller: an epoll instance plus its scratch
/// event buffer.
pub struct Poller {
    epfd: RawFd,
    buf: Vec<EpollEvent>,
}

impl Poller {
    /// A fresh epoll instance.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall; a negative return is checked below.
        let epfd = unsafe { epoll_create1(0) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: mask(interest),
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Start watching `fd` under `token`. The fd must stay open until
    /// [`Poller::deregister`].
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Update the interest mask for `fd`.
    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Stop watching `fd`. Safe to call with an fd that is about to close.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, Interest::NONE, 0)
    }

    /// Block until at least one registration is ready or `timeout` elapses
    /// (`None` blocks indefinitely). Ready events are appended to `events`
    /// (cleared first). Spurious wakeups are allowed; EINTR is swallowed.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        // SAFETY: `buf` is a live, correctly sized array of EpollEvent.
        let n = unsafe {
            epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as i32,
                timeout_ms(timeout),
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.raw_os_error() == Some(EINTR) {
                return Ok(()); // interrupted: spurious empty wakeup
            }
            return Err(err);
        }
        for ev in &self.buf[..n as usize] {
            // Copy the packed fields out before use (unaligned reference
            // would be UB); `{ ... }` forces the move.
            let bits = { ev.events };
            let token = { ev.data };
            events.push(Event {
                token,
                // RDHUP surfaces as readability: the owner reads to EOF and
                // decides. It is NOT a hangup — the peer only closed its
                // write side and can still receive our response; lumping it
                // into `hangup` made the reactor drop half-closed clients
                // whose replies were still in flight.
                readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: epfd came from epoll_create1 and is closed exactly once.
        unsafe {
            close(self.epfd);
        }
    }
}

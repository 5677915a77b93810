//! Readiness poller with two interchangeable backends: `epoll` on Linux
//! (O(ready) wakeups) and `poll(2)` everywhere else (O(registered)
//! scans). The platform picks; no caller does. Both are level-triggered
//! and expose the same register/reregister/deregister/wait surface, so
//! the reactor is backend-agnostic, and this crate's own tests drive the
//! portable path on Linux too to keep it honest.

use crate::sys;
use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// What a registration wants to hear about.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest { readable: true, writable: false };
    pub const WRITE: Interest = Interest { readable: false, writable: true };
    pub const BOTH: Interest = Interest { readable: true, writable: true };
    pub const NONE: Interest = Interest { readable: false, writable: false };
}

/// One readiness notification.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: usize,
    pub readable: bool,
    pub writable: bool,
    /// Peer hangup or socket error; the owner should read to EOF / close.
    pub hup: bool,
}

pub enum Poller {
    #[cfg(target_os = "linux")]
    Epoll(EpollPoller),
    Poll(PollPoller),
}

impl Poller {
    /// The platform's poller: epoll on Linux, `poll(2)` elsewhere.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        return Ok(Poller::Epoll(EpollPoller::new()?));
        #[cfg(not(target_os = "linux"))]
        return Ok(Poller::portable());
    }

    /// The `poll(2)` backend whatever the platform — how this crate's
    /// tests exercise the non-Linux path on Linux.
    #[cfg(any(test, not(target_os = "linux")))]
    pub(crate) fn portable() -> Poller {
        Poller::Poll(PollPoller::new())
    }

    pub fn backend_name(&self) -> &'static str {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => "epoll",
            Poller::Poll(_) => "poll",
        }
    }

    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(sys::epoll::EPOLL_CTL_ADD, fd, token, interest),
            Poller::Poll(p) => p.register(fd, token, interest),
        }
    }

    pub fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(sys::epoll::EPOLL_CTL_MOD, fd, token, interest),
            Poller::Poll(p) => p.reregister(fd, interest),
        }
    }

    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(sys::epoll::EPOLL_CTL_DEL, fd, 0, Interest::NONE),
            Poller::Poll(p) => p.deregister(fd),
        }
    }

    /// Blocks until at least one registration is ready or `timeout`
    /// passes, appending to `events` (cleared first).
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let timeout_ms: sys::c_int = match timeout {
            // Round up so a 1ns timeout doesn't busy-spin.
            Some(d) => d.as_millis().min(i32::MAX as u128).max(1) as sys::c_int,
            None => -1,
        };
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.wait(events, timeout_ms),
            Poller::Poll(p) => p.wait(events, timeout_ms),
        }
    }
}

// ---------------------------------------------------------------- epoll

#[cfg(target_os = "linux")]
pub struct EpollPoller {
    epfd: RawFd,
    buf: Vec<sys::epoll::epoll_event>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    fn new() -> io::Result<EpollPoller> {
        let epfd = unsafe { sys::epoll::epoll_create1(sys::epoll::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EpollPoller { epfd, buf: vec![sys::epoll::epoll_event { events: 0, u64: 0 }; 1024] })
    }

    fn ctl(
        &mut self,
        op: sys::c_int,
        fd: RawFd,
        token: usize,
        interest: Interest,
    ) -> io::Result<()> {
        use sys::epoll::*;
        let mut events = EPOLLRDHUP;
        if interest.readable {
            events |= EPOLLIN;
        }
        if interest.writable {
            events |= EPOLLOUT;
        }
        let mut ev = epoll_event { events, u64: token as u64 };
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: sys::c_int) -> io::Result<()> {
        use sys::epoll::*;
        let n = loop {
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as sys::c_int,
                    timeout_ms,
                )
            };
            if n >= 0 {
                break n as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &self.buf[..n] {
            let bits = ev.events; // copy out of the packed struct
            let token = ev.u64 as usize;
            events.push(Event {
                token,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                hup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        if n == self.buf.len() {
            // Saturated the event buffer: grow so one busy tick doesn't
            // starve the registrations past the buffer's end.
            self.buf.resize(self.buf.len() * 2, sys::epoll::epoll_event { events: 0, u64: 0 });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

// ----------------------------------------------------------------- poll

/// Portable backend: keeps the registration table in user space and
/// hands the whole thing to `poll(2)` per wait.
pub struct PollPoller {
    fds: Vec<sys::pollfd>,
    tokens: Vec<usize>,
}

impl PollPoller {
    #[cfg(any(test, not(target_os = "linux")))]
    fn new() -> PollPoller {
        PollPoller { fds: Vec::new(), tokens: Vec::new() }
    }

    fn slot(&self, fd: RawFd) -> Option<usize> {
        self.fds.iter().position(|p| p.fd == fd)
    }

    fn events_for(interest: Interest) -> sys::c_short {
        let mut e = 0;
        if interest.readable {
            e |= sys::POLLIN;
        }
        if interest.writable {
            e |= sys::POLLOUT;
        }
        e
    }

    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if self.slot(fd).is_some() {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd already registered"));
        }
        self.fds.push(sys::pollfd { fd, events: Self::events_for(interest), revents: 0 });
        self.tokens.push(token);
        Ok(())
    }

    fn reregister(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
        let i = self
            .slot(fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.fds[i].events = Self::events_for(interest);
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let i = self
            .slot(fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.fds.swap_remove(i);
        self.tokens.swap_remove(i);
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: sys::c_int) -> io::Result<()> {
        let n = loop {
            let n = unsafe { sys::poll(self.fds.as_mut_ptr(), self.fds.len(), timeout_ms) };
            if n >= 0 {
                break n;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        if n == 0 {
            return Ok(());
        }
        for (p, &token) in self.fds.iter().zip(&self.tokens) {
            if p.revents == 0 {
                continue;
            }
            events.push(Event {
                token,
                readable: p.revents & sys::POLLIN != 0,
                writable: p.revents & sys::POLLOUT != 0,
                hup: p.revents & (sys::POLLERR | sys::POLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        (a, b)
    }

    fn backend_roundtrip(mut poller: Poller) {
        let (a, mut b) = pair();
        a.set_nonblocking(true).unwrap();
        poller.register(a.as_raw_fd(), 7, Interest::READ).unwrap();

        // Nothing to read yet: a short wait times out empty.
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty(), "{}: spurious readiness", poller.backend_name());

        b.write_all(b"ping").unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: readiness persists until the bytes are drained.
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        let mut buf = [0u8; 8];
        let n = (&a).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");

        // Write interest on an idle socket reports writable immediately.
        poller.reregister(a.as_raw_fd(), 7, Interest::BOTH).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        // Peer close surfaces as readable (EOF) and/or hup.
        drop(b);
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && (e.readable || e.hup)));

        poller.deregister(a.as_raw_fd()).unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn portable_poll_backend_roundtrip() {
        backend_roundtrip(Poller::portable());
    }

    #[test]
    fn platform_backend_roundtrip() {
        backend_roundtrip(Poller::new().unwrap());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn platform_backend_is_epoll_on_linux() {
        assert_eq!(Poller::new().unwrap().backend_name(), "epoll");
    }
}

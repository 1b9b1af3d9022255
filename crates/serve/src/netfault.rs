//! Deterministic network-fault injection for connection streams.
//!
//! The same failpoint discipline as [`lb_engine::fault`], lifted to the
//! socket layer: a [`NetFaultPlan`] is a seeded, serializable schedule of
//! connection misbehaviors, each pinned to an exact I/O *operation count*
//! on the connection — never to wall-clock time. Wrapping a stream in
//! [`FaultStream`] makes every `read`/`write` call consult the schedule.
//!
//! Four fault kinds cover the hostile-network repertoire the chaos soak
//! exercises:
//!
//! * [`NetFaultKind::TornWrite`] — the Nth I/O op (if a write) delivers
//!   only a prefix of the buffer, then the connection dies: the peer sees
//!   a half-written line followed by a reset. On a read op it degrades to
//!   a plain disconnect (there is no "torn read" on a byte stream).
//! * [`NetFaultKind::Disconnect`] — the Nth I/O op fails with
//!   `ConnectionReset`; every later op on either half fails the same way.
//! * [`NetFaultKind::Trickle`] — from the Nth op onward the stream goes
//!   slow-loris: every read and write transfers at most one byte. The
//!   stream still makes progress, so only timeout discipline saves the
//!   peer — exactly the property the server's read timeouts must carry.
//! * [`NetFaultKind::ReadTimeout`] — the Nth I/O op fails once with
//!   `TimedOut`, as if the socket deadline expired without data.
//!
//! # Determinism contract
//!
//! A plan never consults time or randomness at fire-time: given the same
//! plan and the same *sequence of I/O calls* (same order, same buffer
//! sizes), a [`FaultStream`] produces byte-for-byte identical outcomes.
//! Both halves of a cloned stream share one operation counter (the clone
//! shares the schedule via `Arc`), so read/write interleaving within a
//! connection is counted once, in program order. Replay a failing storm
//! by replaying its seed; the fault schedule is a pure function of it.

use crate::sync::lock_recover;
use lb_engine::parse::{ParseError, ParseErrorKind};
use lb_engine::splitmix;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What a scheduled network fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum NetFaultKind {
    /// Deliver a prefix of the buffer on the Nth op, then kill the
    /// connection (reads degrade to a plain disconnect).
    TornWrite,
    /// Fail the Nth op with `ConnectionReset`; the connection stays dead.
    Disconnect,
    /// From the Nth op onward, transfer at most one byte per call.
    Trickle,
    /// Fail the Nth op once with `TimedOut`.
    ReadTimeout,
}

impl NetFaultKind {
    /// The stable name used in the serialized plan spec.
    pub fn name(self) -> &'static str {
        match self {
            NetFaultKind::TornWrite => "torn-write",
            NetFaultKind::Disconnect => "disconnect",
            NetFaultKind::Trickle => "trickle",
            NetFaultKind::ReadTimeout => "read-timeout",
        }
    }

    /// Parses a spec name.
    pub fn from_name(name: &str) -> Option<NetFaultKind> {
        match name {
            "torn-write" => Some(NetFaultKind::TornWrite),
            "disconnect" => Some(NetFaultKind::Disconnect),
            "trickle" => Some(NetFaultKind::Trickle),
            "read-timeout" => Some(NetFaultKind::ReadTimeout),
            _ => None,
        }
    }
}

/// One scheduled fault: `kind` fires at I/O operation count `at` (1-based,
/// reads and writes counted together in program order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetFaultPoint {
    /// The 1-based I/O operation count at which the fault fires.
    pub at: u64,
    /// What happens when it fires.
    pub kind: NetFaultKind,
}

/// A seeded, serializable schedule of connection faults.
///
/// Value type like [`lb_engine::fault::FaultPlan`]: build with
/// [`NetFaultPlan::new`] + [`NetFaultPlan::with_point`], derive from a seed
/// with [`NetFaultPlan::from_seed`], or parse the `kind@count` spec emitted
/// by [`fmt::Display`] (round-trips exactly). Install by wrapping a stream
/// in [`FaultStream::new`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetFaultPlan {
    points: Vec<NetFaultPoint>,
}

impl NetFaultPlan {
    /// The empty plan: the stream behaves normally.
    pub fn new() -> NetFaultPlan {
        NetFaultPlan::default()
    }

    /// Adds a scheduled fault (builder style). `at` is 1-based; an `at` of
    /// zero never fires.
    pub fn with_point(mut self, kind: NetFaultKind, at: u64) -> NetFaultPlan {
        self.points.push(NetFaultPoint { at, kind });
        self
    }

    /// Derives a plan deterministically from a seed: one to three fault
    /// points within the first dozen I/O operations (a protocol exchange
    /// is only a handful of reads and writes, so small counts are the
    /// interesting ones). The same seed always yields the same plan.
    pub fn from_seed(seed: u64) -> NetFaultPlan {
        let mut state = seed ^ 0x7e1e_fa17;
        let mut plan = NetFaultPlan::new();
        let count = 1 + splitmix(&mut state) % 3;
        for _ in 0..count {
            let kind = match splitmix(&mut state) % 4 {
                0 => NetFaultKind::TornWrite,
                1 => NetFaultKind::Disconnect,
                2 => NetFaultKind::Trickle,
                _ => NetFaultKind::ReadTimeout,
            };
            let at = 1 + splitmix(&mut state) % 12;
            plan.points.push(NetFaultPoint { at, kind });
        }
        plan
    }

    /// The scheduled fault points, in insertion order.
    pub fn points(&self) -> &[NetFaultPoint] {
        &self.points
    }

    /// True iff no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Parses the textual spec produced by [`fmt::Display`]:
    /// comma-separated `kind@count` entries, e.g. `trickle@3,disconnect@9`.
    /// The empty string is the empty plan.
    pub fn parse(spec: &str) -> Result<NetFaultPlan, ParseError> {
        let mut plan = NetFaultPlan::new();
        let mut col = 1usize;
        for entry in spec.split(',') {
            let entry_col = col;
            col += entry.len() + 1;
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let Some((name, at)) = entry.split_once('@') else {
                return Err(ParseError::new(
                    1,
                    entry_col,
                    ParseErrorKind::Malformed {
                        what: format!("net fault point `{entry}` (expected `kind@count`)"),
                    },
                ));
            };
            let kind = NetFaultKind::from_name(name.trim()).ok_or_else(|| {
                ParseError::new(
                    1,
                    entry_col,
                    ParseErrorKind::Malformed {
                        what: format!("unknown net fault kind `{}`", name.trim()),
                    },
                )
            })?;
            let at: u64 = at.trim().parse().map_err(|_| {
                ParseError::new(
                    1,
                    entry_col,
                    ParseErrorKind::InvalidNumber {
                        what: "net fault operation count".into(),
                        token: at.trim().to_string(),
                    },
                )
            })?;
            plan.points.push(NetFaultPoint { at, kind });
        }
        Ok(plan)
    }
}

impl fmt::Display for NetFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}@{}", p.kind.name(), p.at)?;
        }
        Ok(())
    }
}

impl std::str::FromStr for NetFaultPlan {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<NetFaultPlan, ParseError> {
        NetFaultPlan::parse(s)
    }
}

/// A one-shot firing schedule: fires when the op count reaches or passes
/// the next point (`<=`, so a skipped count cannot step over a fault).
#[derive(Debug, Default)]
struct Schedule {
    at: Vec<u64>,
    next: usize,
}

impl Schedule {
    fn fire(&mut self, count: u64) -> bool {
        if self.next < self.at.len() && self.at[self.next] <= count {
            self.next += 1;
            true
        } else {
            false
        }
    }
}

/// Shared mutable fault state: one per connection, shared by both cloned
/// halves so reads and writes consume one operation counter.
#[derive(Debug)]
struct FaultState {
    torn: Schedule,
    disconnect: Schedule,
    trickle: Schedule,
    timeout: Schedule,
    ops: u64,
    /// Once dead, every op on either half fails with `ConnectionReset`.
    dead: bool,
    /// Once trickling, every op transfers at most one byte.
    trickling: bool,
}

impl FaultState {
    fn compile(plan: &NetFaultPlan) -> FaultState {
        let mut s = FaultState {
            torn: Schedule::default(),
            disconnect: Schedule::default(),
            trickle: Schedule::default(),
            timeout: Schedule::default(),
            ops: 0,
            dead: false,
            trickling: false,
        };
        for p in plan.points() {
            if p.at == 0 {
                continue; // 1-based counts: zero never fires
            }
            match p.kind {
                NetFaultKind::TornWrite => s.torn.at.push(p.at),
                NetFaultKind::Disconnect => s.disconnect.at.push(p.at),
                NetFaultKind::Trickle => s.trickle.at.push(p.at),
                NetFaultKind::ReadTimeout => s.timeout.at.push(p.at),
            }
        }
        s.torn.at.sort_unstable();
        s.disconnect.at.sort_unstable();
        s.trickle.at.sort_unstable();
        s.timeout.at.sort_unstable();
        s
    }
}

/// What the schedule says the current op must do.
enum Verdict {
    /// Behave normally.
    Pass,
    /// Transfer at most one byte.
    OneByte,
    /// Deliver `len/2` bytes (writes only), then die.
    Tear,
    /// Fail once with `TimedOut`.
    TimeOut,
    /// Fail with `ConnectionReset`, now and forever.
    Dead,
}

fn reset() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "injected disconnect")
}

/// A stream wrapper that injects the plan's faults into every I/O call.
///
/// Cloned halves (via [`SessionStream::try_clone`]) share the schedule, the
/// operation counter, and the dead/trickling latches through an
/// `Arc<Mutex<_>>`, mirroring how both halves of a real `TcpStream` share
/// one kernel socket.
#[derive(Debug)]
pub struct FaultStream<S> {
    inner: S,
    state: Arc<Mutex<FaultState>>,
}

impl<S> FaultStream<S> {
    /// Wraps `inner`, compiling `plan` into the connection's schedule.
    pub fn new(inner: S, plan: &NetFaultPlan) -> FaultStream<S> {
        FaultStream {
            inner,
            state: Arc::new(Mutex::new(FaultState::compile(plan))),
        }
    }

    /// Counts one op and resolves what it must do. A panicked sibling half
    /// poisons the shared latch; the schedule it guards only ever mutates
    /// under the lock, so recover it (via the blessed [`crate::sync`]
    /// helper) instead of propagating the panic across halves.
    fn begin_op(&self, is_write: bool) -> Verdict {
        let mut st = lock_recover(&self.state);
        if st.dead {
            return Verdict::Dead;
        }
        st.ops += 1;
        let ops = st.ops;
        if st.trickle.fire(ops) {
            st.trickling = true;
        }
        if st.disconnect.fire(ops) {
            st.dead = true;
            return Verdict::Dead;
        }
        if st.torn.fire(ops) {
            st.dead = true;
            // A read cannot tear; the connection just dies under it.
            return if is_write {
                Verdict::Tear
            } else {
                Verdict::Dead
            };
        }
        if st.timeout.fire(ops) {
            return Verdict::TimeOut;
        }
        if st.trickling {
            return Verdict::OneByte;
        }
        Verdict::Pass
    }
}

impl<S: Read> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.begin_op(false) {
            Verdict::Pass => self.inner.read(buf),
            Verdict::OneByte => {
                let n = buf.len().min(1);
                self.inner.read(&mut buf[..n])
            }
            Verdict::TimeOut => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "injected read timeout",
            )),
            Verdict::Tear | Verdict::Dead => Err(reset()),
        }
    }
}

impl<S: Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.begin_op(true) {
            Verdict::Pass => self.inner.write(buf),
            Verdict::OneByte => self.inner.write(&buf[..buf.len().min(1)]),
            Verdict::Tear => {
                let half = buf.len() / 2;
                if half > 0 {
                    // Best-effort: the peer may see the prefix before the
                    // reset, exactly like a crashed writer mid-line.
                    let _torn = self.inner.write(&buf[..half]);
                    // lb-lint: allow(swallowed-result) -- injecting a torn write; the flush outcome is irrelevant to the reset we return
                    let _torn = self.inner.flush();
                }
                Err(reset())
            }
            Verdict::TimeOut => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "injected write timeout",
            )),
            Verdict::Dead => Err(reset()),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        // Not a counted op: flush carries no new bytes, and counting it
        // would make operation counts depend on BufWriter internals.
        if lock_recover(&self.state).dead {
            return Err(reset());
        }
        self.inner.flush()
    }
}

/// The stream surface a connection handler needs, abstracted so handlers
/// serve real sockets and fault-wrapped ones identically.
pub trait SessionStream: Read + Write + Send + Sized + 'static {
    /// Clones a second handle to the same connection (read/write halves).
    fn try_clone(&self) -> io::Result<Self>;
    /// Bounds how long one read may block.
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
    /// Bounds how long one write may block.
    fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
}

impl SessionStream for TcpStream {
    fn try_clone(&self) -> io::Result<TcpStream> {
        TcpStream::try_clone(self)
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, dur)
    }

    fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, dur)
    }
}

impl<S: SessionStream> SessionStream for FaultStream<S> {
    fn try_clone(&self) -> io::Result<FaultStream<S>> {
        Ok(FaultStream {
            inner: self.inner.try_clone()?,
            state: Arc::clone(&self.state),
        })
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(dur)
    }

    fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.inner.set_write_timeout(dur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory loopback: writes land in a buffer, reads serve a
    /// script. Good enough to pin FaultStream semantics without sockets.
    #[derive(Debug, Default)]
    struct Loopback {
        script: Vec<u8>,
        pos: usize,
        written: Vec<u8>,
    }

    impl Read for Loopback {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.script.len() - self.pos);
            buf[..n].copy_from_slice(&self.script[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for Loopback {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn spec_round_trips() {
        let plan = NetFaultPlan::new()
            .with_point(NetFaultKind::TornWrite, 4)
            .with_point(NetFaultKind::Disconnect, 9)
            .with_point(NetFaultKind::Trickle, 2)
            .with_point(NetFaultKind::ReadTimeout, 1);
        let spec = plan.to_string();
        assert_eq!(spec, "torn-write@4,disconnect@9,trickle@2,read-timeout@1");
        assert_eq!(NetFaultPlan::parse(&spec).unwrap(), plan);
        assert!(NetFaultPlan::parse("").unwrap().is_empty());
        assert!(NetFaultPlan::parse("torn-write").is_err());
        assert!(NetFaultPlan::parse("nosuch@2").is_err());
        assert!(NetFaultPlan::parse("trickle@x").is_err());
    }

    #[test]
    fn from_seed_is_deterministic_and_nonempty() {
        for seed in 0..50u64 {
            let a = NetFaultPlan::from_seed(seed);
            assert_eq!(a, NetFaultPlan::from_seed(seed));
            assert!(!a.is_empty());
            assert!(a.points().iter().all(|p| p.at >= 1));
        }
        assert_ne!(NetFaultPlan::from_seed(1), NetFaultPlan::from_seed(2));
    }

    #[test]
    fn disconnect_kills_the_connection_permanently() {
        let plan = NetFaultPlan::new().with_point(NetFaultKind::Disconnect, 2);
        let mut s = FaultStream::new(
            Loopback {
                script: b"abcdef".to_vec(),
                ..Loopback::default()
            },
            &plan,
        );
        let mut buf = [0u8; 3];
        assert_eq!(s.read(&mut buf).unwrap(), 3); // op 1 passes
        let err = s.read(&mut buf).unwrap_err(); // op 2 fires
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // Dead is a latch: writes fail too, forever.
        assert!(s.write(b"x").is_err());
        assert!(s.flush().is_err());
    }

    #[test]
    fn torn_write_delivers_half_then_dies() {
        let plan = NetFaultPlan::new().with_point(NetFaultKind::TornWrite, 1);
        let mut s = FaultStream::new(Loopback::default(), &plan);
        let err = s.write(b"STATUS j1\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(&s.inner.written, b"STATU"); // the torn prefix landed
        assert!(s.write(b"again").is_err());
    }

    #[test]
    fn trickle_latches_one_byte_transfers() {
        let plan = NetFaultPlan::new().with_point(NetFaultKind::Trickle, 2);
        let mut s = FaultStream::new(
            Loopback {
                script: b"abcdef".to_vec(),
                ..Loopback::default()
            },
            &plan,
        );
        let mut buf = [0u8; 4];
        assert_eq!(s.read(&mut buf).unwrap(), 4); // op 1: full speed
        assert_eq!(s.read(&mut buf).unwrap(), 1); // op 2 onward: one byte
        assert_eq!(s.write(b"xyz").unwrap(), 1);
    }

    #[test]
    fn read_timeout_fires_once_then_recovers() {
        let plan = NetFaultPlan::new().with_point(NetFaultKind::ReadTimeout, 1);
        let mut s = FaultStream::new(
            Loopback {
                script: b"ok".to_vec(),
                ..Loopback::default()
            },
            &plan,
        );
        let mut buf = [0u8; 2];
        assert_eq!(
            s.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        assert_eq!(s.read(&mut buf).unwrap(), 2); // one-shot: next op passes
    }

    #[test]
    fn cloned_halves_share_one_op_counter() {
        let plan = NetFaultPlan::new().with_point(NetFaultKind::Disconnect, 3);
        let mut a = FaultStream::new(Loopback::default(), &plan);
        // Loopback has no kernel-level clone; share the state by hand the
        // way SessionStream::try_clone does for real sockets.
        let mut b = FaultStream {
            inner: Loopback::default(),
            state: Arc::clone(&a.state),
        };
        assert!(a.write(b"1").is_ok()); // op 1 on half a
        assert!(b.write(b"2").is_ok()); // op 2 on half b
        assert!(a.write(b"3").is_err()); // op 3 fires, whichever half
        assert!(b.write(b"4").is_err()); // and the latch holds for both
    }

    #[test]
    fn skipped_counts_cannot_step_over_a_fault() {
        // Points at op 1 and 2 of the *same* kind: the op-2 call must fire
        // the op-1 point first (<= semantics), not skip it.
        let plan = NetFaultPlan::new()
            .with_point(NetFaultKind::ReadTimeout, 1)
            .with_point(NetFaultKind::ReadTimeout, 2);
        let mut s = FaultStream::new(
            Loopback {
                script: b"abc".to_vec(),
                ..Loopback::default()
            },
            &plan,
        );
        let mut buf = [0u8; 1];
        assert!(s.read(&mut buf).is_err());
        assert!(s.read(&mut buf).is_err());
        assert_eq!(s.read(&mut buf).unwrap(), 1);
    }
}

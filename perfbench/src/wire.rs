//! The closed-loop wire client: one request in flight per connection,
//! timed from the first byte sent to the last reply byte received.

use cobra_util::framed::{read_frame, DEFAULT_MAX_FRAME};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// The protocol operations the benchmark drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    Prepare,
    Sweep,
    Assign,
    ApplyDelta,
    SelectBound,
}

impl Op {
    /// Every op, in report order.
    pub const ALL: [Op; 5] = [
        Op::Prepare,
        Op::Sweep,
        Op::Assign,
        Op::ApplyDelta,
        Op::SelectBound,
    ];

    /// The wire name, which is also the `<op>` suffix of metric names.
    pub fn name(self) -> &'static str {
        match self {
            Op::Prepare => "prepare",
            Op::Sweep => "sweep_fold_f64",
            Op::Assign => "assign",
            Op::ApplyDelta => "apply_delta",
            Op::SelectBound => "select_bound",
        }
    }
}

/// One request/reply pair as the client saw it.
pub struct Exchange {
    pub op: Op,
    /// Correlation id; the reply must echo it.
    pub id: u64,
    pub request: String,
    pub reply: Vec<u8>,
    pub sent: Instant,
    pub done: Instant,
    /// The request went out inside the timed window.
    pub timed: bool,
}

impl Exchange {
    /// Wire latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }
}

/// A connection with `TCP_NODELAY` set, so the client adds no stall of
/// its own.
pub struct Client {
    stream: TcpStream,
    frame: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            frame: Vec::new(),
        })
    }

    /// Sends one request and waits for its reply.
    pub fn call(&mut self, op: Op, id: u64, request: String) -> io::Result<Exchange> {
        let len = u32::try_from(request.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "request too large"))?;
        self.frame.clear();
        self.frame.extend_from_slice(&len.to_le_bytes());
        self.frame.extend_from_slice(request.as_bytes());
        let sent = Instant::now();
        self.stream.write_all(&self.frame)?;
        let reply = read_frame(&mut self.stream, DEFAULT_MAX_FRAME)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        let done = Instant::now();
        Ok(Exchange {
            op,
            id,
            request,
            reply,
            sent,
            done,
            timed: false,
        })
    }
}

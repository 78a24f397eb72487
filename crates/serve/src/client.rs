//! A small blocking client for the serving protocol — used by the
//! integration tests, the chaos suite, and the load-generator example.
//!
//! The client keeps the **raw response frame** next to the decoded
//! body: byte-identity tests compare that frame against the encoding of
//! an in-process engine submit without re-serializing anything.
//!
//! Replies are read through one buffer: a `read` takes as many whole
//! replies as the socket holds, and [`Client::recv`] reads again only
//! when no whole frame is buffered. A `recv` that fails mid-frame (a
//! read timeout) keeps the bytes it read, so the next `recv` finishes
//! that frame instead of parsing from its middle.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::protocol::{
    decode_response, encode_request_into, ResponseBody, WireRequest, MAX_RESPONSE_FRAME,
};

/// Room one `read` offers past the buffered bytes, at least.
const READ_CHUNK: usize = 64 * 1024;

/// One decoded response plus the exact bytes it arrived as.
#[derive(Debug, Clone, PartialEq)]
pub struct WireReply {
    pub request_id: u64,
    pub body: ResponseBody,
    /// The complete frame (length prefix included) as received.
    pub frame: Vec<u8>,
}

/// A blocking connection to a [`crate::Server`].
pub struct Client {
    stream: TcpStream,
    /// Received bytes not yet returned are `inbuf[start..end]`: whole
    /// replies, then the front of the next.
    inbuf: Vec<u8>,
    start: usize,
    end: usize,
    /// The request frame [`Client::send`] encodes into.
    outbuf: Vec<u8>,
}

impl Client {
    /// Connects with a 10-second read timeout — a client must never
    /// hang forever on a dropped reply.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Client::connect_with_timeout(addr, Duration::from_secs(10))
    }

    /// Connects with an explicit read timeout.
    pub fn connect_with_timeout(addr: SocketAddr, read_timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout))?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            inbuf: Vec::new(),
            start: 0,
            end: 0,
            outbuf: Vec::new(),
        })
    }

    /// Sends one request frame (does not wait for the reply — pipelining
    /// is how load tests oversubscribe the queues).
    pub fn send(&mut self, request: &WireRequest) -> io::Result<()> {
        self.outbuf.clear();
        encode_request_into(&mut self.outbuf, request);
        self.stream.write_all(&self.outbuf)
    }

    /// Sends arbitrary bytes — protocol-violation tests only.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Reads one response frame. EOF before or inside a frame returns
    /// `UnexpectedEof` — the caller decides whether that was an injected
    /// fault or a real failure. A declared length over
    /// [`MAX_RESPONSE_FRAME`] is refused before its body is read. Any
    /// error leaves the buffered bytes in place: after a read timeout,
    /// the next call goes on with the same frame.
    pub fn recv(&mut self) -> io::Result<WireReply> {
        loop {
            let buffered = &self.inbuf[self.start..self.end];
            let mut need = 4;
            if let Some(header) = buffered.get(..4) {
                let len = u32::from_le_bytes(header.try_into().expect("four header bytes"));
                if len > MAX_RESPONSE_FRAME {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("response frame of {len} bytes exceeds the client cap"),
                    ));
                }
                need += len as usize;
                if let Some(frame) = buffered.get(..need) {
                    let frame = frame.to_vec();
                    self.start += need;
                    let (request_id, body) = decode_response(&frame[4..])
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                    return Ok(WireReply {
                        request_id,
                        body,
                        frame,
                    });
                }
            }
            self.fill(need)?;
        }
    }

    /// One `read` into room for the `need` bytes of the buffered frame.
    fn fill(&mut self, need: usize) -> io::Result<()> {
        if self.start > 0 {
            self.inbuf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == 0 && self.inbuf.len() > READ_CHUNK {
            self.inbuf = Vec::new(); // a big reply's room is not kept
        }
        if self.inbuf.len() < need.max(READ_CHUNK) {
            self.inbuf.resize(need.max(READ_CHUNK), 0);
        }
        let n = loop {
            match self.stream.read(&mut self.inbuf[self.end..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                read => break read?,
            }
        };
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a whole reply",
            ));
        }
        self.end += n;
        Ok(())
    }

    /// One request, one reply.
    pub fn call(&mut self, request: &WireRequest) -> io::Result<WireReply> {
        self.send(request)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::encode_response;
    use std::net::TcpListener;
    use std::sync::mpsc::{channel, Receiver};
    use std::thread::JoinHandle;

    /// A raw server that runs `script` on its one accepted connection,
    /// and a client connected to it with a `timeout` on reads.
    fn raw_server(
        timeout: Duration,
        script: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (Client, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("address");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            script(stream);
        });
        let client = Client::connect_with_timeout(addr, timeout).expect("connect");
        (client, server)
    }

    fn text_frame(request_id: u64, len: usize) -> Vec<u8> {
        let text = "x".repeat(len);
        encode_response(request_id, &ResponseBody::Text(text))
    }

    /// Whether `e` is a read that gave up at its timeout.
    fn timed_out(e: &io::Error) -> bool {
        matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    }

    /// The middle frame is larger than one read's room, so it grows the
    /// buffer; a later read gives that room back.
    #[test]
    fn three_frames_in_one_write_are_three_replies_with_their_bytes() {
        let frames = [text_frame(1, 0), text_frame(2, 100_000), text_frame(3, 7)];
        let (burst, last) = (frames.concat(), text_frame(4, 7));
        let (go, wait) = channel();
        let (mut client, server) = raw_server(Duration::from_secs(10), move |mut stream| {
            stream.write_all(&burst).expect("write");
            wait.recv().expect("the client read three");
            stream.write_all(&last).expect("write");
        });
        for (id, frame) in (1..).zip(&frames) {
            let reply = client.recv().expect("reply");
            assert_eq!(reply.request_id, id);
            assert_eq!(reply.frame, *frame, "reply {id} is not the bytes sent");
            let (_, body) = decode_response(&frame[4..]).expect("decodes");
            assert_eq!(reply.body, body);
        }
        go.send(()).expect("server");
        assert_eq!(client.recv().expect("reply").request_id, 4);
        assert_eq!(
            client.inbuf.len(),
            READ_CHUNK,
            "a big reply's room was kept"
        );
        server.join().expect("server");
    }

    /// Each split is written in two parts, the second only after the
    /// client's `recv` has read the first and timed out: the frame is
    /// whole at every byte boundary, the prefix's included.
    #[test]
    fn a_frame_split_at_every_byte_boundary_arrives_whole() {
        let frame = text_frame(9, 24);
        let (go, wait): (_, Receiver<()>) = channel();
        let sent = frame.clone();
        let (mut client, server) = raw_server(Duration::from_millis(5), move |mut stream| {
            for split in 1..sent.len() {
                stream.write_all(&sent[..split]).expect("first part");
                wait.recv().expect("the client timed out");
                stream.write_all(&sent[split..]).expect("second part");
            }
        });
        for split in 1..frame.len() {
            let e = client.recv().expect_err("half a frame is no reply");
            assert!(timed_out(&e), "split {split}: {e}");
            go.send(()).expect("server");
            let reply = client.recv().expect("the rest completes the frame");
            assert_eq!(reply.frame, frame, "split at {split}");
        }
        server.join().expect("server");
    }

    /// A read timeout inside a body keeps the bytes read so far: the
    /// next `recv` finishes that frame, then reads the one after.
    #[test]
    fn a_recv_that_times_out_inside_a_body_keeps_what_it_read() {
        let (first, second) = (text_frame(1, 400), text_frame(2, 10));
        let (go, wait) = channel();
        let sent = [first.clone(), second.clone()];
        let (mut client, server) = raw_server(Duration::from_millis(20), move |mut stream| {
            stream
                .write_all(&sent[0][..200])
                .expect("front of the body");
            wait.recv().expect("the client timed out");
            stream.write_all(&sent[0][200..]).expect("rest of the body");
            stream.write_all(&sent[1]).expect("next frame");
        });
        let e = client.recv().expect_err("half a body is no reply");
        assert!(timed_out(&e), "{e}");
        go.send(()).expect("server");
        assert_eq!(client.recv().expect("first").frame, first);
        assert_eq!(client.recv().expect("second").frame, second);
        server.join().expect("server");
    }

    #[test]
    fn eof_before_after_the_prefix_or_inside_the_body_is_unexpected_eof() {
        let frame = text_frame(4, 40);
        for cut in [0, 4, 20] {
            let sent = frame[..cut].to_vec();
            let (mut client, server) = raw_server(Duration::from_secs(10), move |mut stream| {
                stream.write_all(&sent).expect("write");
            });
            server.join().expect("server"); // closed
            let e = client.recv().expect_err("a cut frame is no reply");
            assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}: {e}");
        }
    }

    /// The cap is checked on the prefix: the body is never waited for,
    /// so the refusal comes before the read timeout would.
    #[test]
    fn a_declared_length_over_the_cap_is_refused_with_the_body_unread() {
        let (done, wait) = channel::<()>();
        let (mut client, server) = raw_server(Duration::from_secs(10), move |mut stream| {
            let prefix = (MAX_RESPONSE_FRAME + 1).to_le_bytes();
            stream.write_all(&prefix).expect("prefix");
            let _ = wait.recv(); // keeps the connection open
        });
        let e = client.recv().expect_err("over the cap");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        drop(done);
        server.join().expect("server");
    }
}

//! A closed-loop wire-protocol client on one loopback connection: it
//! sends one request frame and waits for its answer before it sends the
//! next, as a tuning tool that acts on each answer does.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;
use stencilmart::wire::{encode_request, Frame, FrameDecoder, Request, Response};

/// One connection to the daemon.
pub struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
    next_id: u64,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            decoder: FrameDecoder::new(),
            buf: vec![0u8; 64 * 1024],
            next_id: 1,
        })
    }

    /// Send `req` and wait for its answer. Returns the response and its
    /// latency in seconds, from the write to the read that delivered it.
    pub fn call(&mut self, req: &Request) -> Result<(Response, f64), String> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = encode_request(id, req);
        let sent = Instant::now();
        self.stream
            .write_all(&frame)
            .map_err(|e| format!("write: {e}"))?;
        loop {
            match self.decoder.next_frame() {
                Ok(Some(Frame::Response(resp))) if resp.id == id => {
                    return Ok((resp, sent.elapsed().as_secs_f64()))
                }
                Ok(Some(Frame::Response(resp))) => {
                    return Err(format!("answer to unknown request {}", resp.id))
                }
                Ok(Some(Frame::Request { .. })) => {
                    return Err("the daemon sent a request frame".to_string())
                }
                Err(e) => return Err(format!("undecodable answer: {}", e.error)),
                Ok(None) => {}
            }
            let n = match self.stream.read(&mut self.buf) {
                Ok(0) => return Err("the daemon closed the connection".to_string()),
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read: {e}")),
            };
            self.decoder.push(&self.buf[..n]);
        }
    }
}

//! A blocking binary-mode client for ic-serve.
//!
//! The client speaks the length-prefixed binary protocol (never
//! JSON-lines; that mode is for humans with `nc`). Requests carry a
//! caller-chosen `id`; the server batches and may reorder replies, so
//! [`Client::wait_for`] stashes out-of-order arrivals and
//! [`Client::recv`] surfaces them in arrival order. Each request leaves
//! in one `write`; responses are parsed out of a buffered read, so a
//! server batch costs a `read` or two, not two per response.
//!
//! Server-initiated [`Response::Notify`] frames (standing-query
//! deltas; see [`Client::subscribe`]) never satisfy a [`Client::wait_for`]:
//! they are diverted to an internal queue, drained with
//! [`Client::poll_notification`] / [`Client::wait_notification`].

use crate::error::{ClientError, ProtocolError};
use crate::protocol::{
    self, FrameBuf, Request, Response, WireNotification, WireQuery, RESP_PAYLOAD_MAX,
};
use ic_core::Query;
use ic_engine::EdgeUpdate;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};

/// Bytes pulled from the socket per `read` (more when one response is
/// larger): a few typical replies.
const READ_BUF_LEN: usize = 64 * 1024;

/// A connected binary-mode client. See the module docs.
pub struct Client {
    stream: TcpStream,
    /// Responses that arrived while waiting for something else, oldest
    /// first.
    stash: VecDeque<Response>,
    /// Notify frames that arrived while waiting for a reply.
    notifications: VecDeque<WireNotification>,
    frames: FrameBuf,
    write_buf: Vec<u8>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            stash: VecDeque::new(),
            notifications: VecDeque::new(),
            frames: FrameBuf::new(RESP_PAYLOAD_MAX, READ_BUF_LEN),
            write_buf: Vec::new(),
        })
    }

    /// Sends one query under `id` without waiting for its reply. Fire
    /// several, then collect with [`Client::wait_for`] — queries in
    /// flight together coalesce into one server-side batch.
    pub fn send(&mut self, id: u64, query: &Query) -> Result<(), ClientError> {
        self.send_request(&Request::Query(WireQuery { id, query: *query }))
    }

    /// Sends one query and blocks for its reply.
    pub fn call(&mut self, id: u64, query: &Query) -> Result<Response, ClientError> {
        self.send(id, query)?;
        self.wait_for(id)
    }

    /// Registers `query` as a standing subscription under the
    /// client-chosen `id` (unique among this connection's live
    /// subscriptions) and blocks for the initial answer — a
    /// [`Response::Reply`] carrying the full answer. Later changes
    /// arrive as notifications tagged with the same `id`.
    pub fn subscribe(&mut self, id: u64, query: &Query) -> Result<Response, ClientError> {
        self.send_request(&Request::Subscribe(WireQuery { id, query: *query }))?;
        self.wait_for(id)
    }

    /// Drops the standing subscription `id`; the
    /// [`Response::UnsubscribeAck`] says whether one was live.
    pub fn unsubscribe(&mut self, id: u64) -> Result<Response, ClientError> {
        self.send_request(&Request::Unsubscribe { id })?;
        self.wait_for(id)
    }

    /// Applies `updates` to the served graph as one atomic epoch step
    /// and blocks for the [`Response::UpdateAck`]. Because the server
    /// fans out notifications before acking, every notification this
    /// connection is owed for the new epoch is already queued (see
    /// [`Client::poll_notification`]) when this returns.
    pub fn update(&mut self, id: u64, updates: &[EdgeUpdate]) -> Result<Response, ClientError> {
        self.send_request(&Request::Update {
            id,
            updates: updates.to_vec(),
        })?;
        self.wait_for(id)
    }

    /// Fetches the server's live metrics snapshot and blocks for the
    /// [`Response::Stats`] reply carrying flat `(name, value)` pairs.
    pub fn stats(&mut self, id: u64) -> Result<Response, ClientError> {
        self.send_request(&Request::Stats { id })?;
        self.wait_for(id)
    }

    /// Pops the oldest already-received notification, if any. Never
    /// reads the socket — use [`Client::wait_notification`] to block.
    pub fn poll_notification(&mut self) -> Option<WireNotification> {
        self.notifications.pop_front()
    }

    /// Blocks until a notification arrives (returning queued ones
    /// first). Replies that land first are stashed for their waiters.
    pub fn wait_notification(&mut self) -> Result<WireNotification, ClientError> {
        loop {
            if let Some(n) = self.notifications.pop_front() {
                return Ok(n);
            }
            let response = self.read_response()?;
            match response {
                Response::Notify(n) => return Ok(n),
                other => match response_id(&other) {
                    Some(_) => self.stash.push_back(other),
                    None => {
                        return Err(ClientError::Unexpected(format!("{other:?}")));
                    }
                },
            }
        }
    }

    /// Receives the next response in arrival order (stashed responses
    /// first).
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        match self.stash.pop_front() {
            Some(oldest) => Ok(oldest),
            None => self.read_response(),
        }
    }

    /// Blocks until the response for `id` arrives, stashing any other
    /// replies that land first and queueing notifications.
    /// [`Response::ProtocolError`] and [`Response::ShutdownAck`] are
    /// returned immediately to whichever waiter is active — they are
    /// connection-level, not id-addressed.
    pub fn wait_for(&mut self, id: u64) -> Result<Response, ClientError> {
        let stashed = self
            .stash
            .iter()
            .position(|response| response_id(response) == Some(id));
        if let Some(found) = stashed.and_then(|at| self.stash.remove(at)) {
            return Ok(found);
        }
        loop {
            let response = self.read_response()?;
            if let Response::Notify(n) = response {
                self.notifications.push_back(n);
                continue;
            }
            match response_id(&response) {
                Some(got) if got != id => self.stash.push_back(response),
                _ => return Ok(response),
            }
        }
    }

    /// Requests a graceful server drain and blocks until the
    /// [`Response::ShutdownAck`], returning every reply that was still
    /// in flight (the server flushes all admitted work before acking).
    pub fn shutdown_and_drain(&mut self) -> Result<Vec<Response>, ClientError> {
        self.send_request(&Request::Shutdown)?;
        let mut tail: Vec<Response> = self.stash.drain(..).collect();
        loop {
            match self.read_response() {
                Ok(Response::ShutdownAck) => return Ok(tail),
                Ok(response) => tail.push(response),
                Err(e) => return Err(e),
            }
        }
    }

    fn send_request(&mut self, request: &Request) -> Result<(), ClientError> {
        self.write_buf.clear();
        let at = protocol::begin_frame(&mut self.write_buf);
        protocol::encode_request(request, &mut self.write_buf)?;
        protocol::end_frame(&mut self.write_buf, at);
        self.stream.write_all(&self.write_buf)?;
        Ok(())
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        loop {
            if let Some(payload) = self.frames.next_frame()? {
                return Ok(protocol::decode_response(payload)?);
            }
            match self.frames.fill(&mut self.stream) {
                // The stream ended, between frames or inside one.
                Ok(0) => return Err(ClientError::ConnectionClosed),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ProtocolError::from(e).into()),
            }
        }
    }
}

fn response_id(response: &Response) -> Option<u64> {
    match response {
        Response::Reply { id, .. }
        | Response::Overloaded { id, .. }
        | Response::UpdateAck { id, .. }
        | Response::UnsubscribeAck { id, .. }
        | Response::Stats { id, .. } => Some(*id),
        // Notify frames carry a subscription id, but they are
        // server-initiated — callers divert them before keying.
        Response::Notify(n) => Some(n.id),
        Response::ProtocolError { .. } | Response::ShutdownAck => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ShedReason, REQ_PAYLOAD_MAX};
    use ic_core::Aggregation;
    use std::net::TcpListener;

    /// `recv` hands stashed responses back in the order they arrived,
    /// whatever their ids (the stash used to be a `HashMap`, whose
    /// iteration order is arbitrary).
    #[test]
    fn stashed_responses_come_back_in_arrival_order() {
        const ARRIVAL: [u64; 9] = [7, 3, 9, 1, 8, 2, 6, 4, 5];
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Read all nine queries, then answer them in `ARRIVAL`
            // order, all in one write.
            let mut frames = FrameBuf::new(REQ_PAYLOAD_MAX, 4096);
            let mut seen = 0;
            while seen < ARRIVAL.len() {
                match frames.next_frame().unwrap() {
                    Some(_) => seen += 1,
                    None => assert_ne!(frames.fill(&mut stream).unwrap(), 0),
                }
            }
            let mut out = Vec::new();
            for id in ARRIVAL {
                let at = protocol::begin_frame(&mut out);
                let reason = ShedReason::QueueFull;
                protocol::encode_response(&Response::Overloaded { id, reason }, &mut out);
                protocol::end_frame(&mut out, at);
            }
            stream.write_all(&out).unwrap();
        });

        let mut client = Client::connect(addr).unwrap();
        let query = Query::new(2, 2, Aggregation::Sum);
        for id in 1..=9 {
            client.send(id, &query).unwrap();
        }
        // Waiting for the last arrival stashes the eight before it.
        let last = *ARRIVAL.last().unwrap();
        assert_eq!(response_id(&client.wait_for(last).unwrap()), Some(last));
        // Picking one out by id leaves the others in order.
        assert_eq!(response_id(&client.wait_for(1).unwrap()), Some(1));
        let rest: Vec<u64> = (0..7)
            .map(|_| response_id(&client.recv().unwrap()).unwrap())
            .collect();
        assert_eq!(rest, [7, 3, 9, 8, 2, 6, 4]);
        server.join().unwrap();
    }
}

//! Thin shard mode: rendezvous routing of `/v1/simulate` requests
//! across a static membership list.
//!
//! Every node is started with the same `--peers host:port,...` list and
//! names its own entry with `--advertise`. Each simulate request body is
//! ranked by rendezvous (highest-random-weight) hashing ([`owner_index`]):
//! every peer scores the raw body by `SHA-256(peer ‖ body)` and the
//! highest score owns it, so all nodes that agree on the membership list
//! agree on ownership with no coordination, and removing a peer only
//! remaps the bodies it owned. A node that receives a request it does not own proxies it to
//! the owner over the plain blocking [`Client`] and relays the answer
//! verbatim — so all results (and store entries, when the owner runs
//! with `--store`) for one body concentrate on one node, whichever peer
//! the client happened to hit.
//!
//! Proxied requests carry [`FORWARDED_HEADER`]; a node that sees the
//! marker always answers locally. Membership disagreement between peers
//! can therefore cost at most one extra hop, never a forwarding cycle.
//! A dead or unreachable owner maps to `502` rather than a hang: the
//! proxy connect uses bounded I/O timeouts.

use std::io;
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

use impact_store::KeyWriter;
use impact_support::json::{Json, ToJson};

use crate::client::Client;
use crate::http::{Request, Response};

/// Index into `nodes` of the owner of `key`, or `None` when `nodes` is
/// empty. Node strings must be exact (e.g. `host:port`) and identical
/// across all participants.
#[must_use]
pub fn owner_index(nodes: &[String], key: &[u8]) -> Option<usize> {
    nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let mut w = KeyWriter::new("impact.shard.v1");
            w.str(node);
            w.bytes(key);
            (w.finish(), i)
        })
        // Max by (score, node name) — the name tiebreak makes a digest
        // collision (never in practice) still deterministic.
        .max_by(|(sa, ia), (sb, ib)| sa.cmp(sb).then_with(|| nodes[*ia].cmp(&nodes[*ib])))
        .map(|(_, i)| i)
}

/// Marker header carried by proxied requests. Receivers answer locally
/// instead of re-routing, which bounds any forwarding chain to one hop.
pub const FORWARDED_HEADER: &str = "x-impact-forwarded";

/// Rendezvous router + shard counters for one serve process.
#[derive(Debug)]
pub struct ShardRouter {
    /// Full membership, including this node.
    peers: Vec<String>,
    /// Index of this node's own entry in `peers`.
    self_index: usize,
    /// Simulate requests answered by this node (owned or marked).
    local: AtomicU64,
    /// Simulate requests proxied to their owner.
    forwarded: AtomicU64,
    /// Proxy attempts that failed (mapped to `502`).
    errors: AtomicU64,
}

impl ShardRouter {
    /// Builds a router over `peers`, identifying this node by its
    /// `advertise` entry.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when `advertise` is not one of `peers` (the
    /// membership list must include every node, this one included).
    pub fn new(peers: Vec<String>, advertise: &str) -> io::Result<ShardRouter> {
        let self_index = peers.iter().position(|p| p == advertise).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("advertised address {advertise} is not in the peer list"),
            )
        })?;
        Ok(ShardRouter {
            peers,
            self_index,
            local: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        })
    }

    /// The peer that owns `key`, or `None` when this node does.
    #[must_use]
    pub fn owner_of(&self, key: &[u8]) -> Option<&str> {
        let idx = owner_index(&self.peers, key).unwrap_or(self.self_index);
        (idx != self.self_index).then(|| self.peers[idx].as_str())
    }

    /// Counts one simulate request answered on this node.
    pub fn note_local(&self) {
        self.local.fetch_add(1, Relaxed);
    }

    /// Proxies `req` to `peer` (adding the forwarded marker) and relays
    /// the owner's response. Peer failure becomes a `502`.
    #[must_use]
    pub fn forward(&self, peer: &str, req: &Request) -> Response {
        match self.try_forward(peer, req) {
            Ok(resp) => {
                self.forwarded.fetch_add(1, Relaxed);
                resp
            }
            Err(e) => {
                self.errors.fetch_add(1, Relaxed);
                Response::error(502, format!("shard owner {peer} is unreachable: {e}"))
            }
        }
    }

    fn try_forward(&self, peer: &str, req: &Request) -> io::Result<Response> {
        let addr = peer.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "peer resolves to no address",
            )
        })?;
        let mut client =
            Client::connect_with_timeouts(addr, Duration::from_secs(10), Duration::from_secs(10))?;
        let resp = client.request_with_headers(
            &req.method,
            req.path(),
            &[(FORWARDED_HEADER, "1")],
            &req.body,
        )?;
        Ok(Response {
            status: resp.status,
            headers: vec![("Content-Type".to_string(), "application/json".to_string())],
            body: resp.body,
        })
    }

    /// The `shard` section of `GET /metrics`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "peers".to_string(),
                Json::Arr(self.peers.iter().map(|p| p.to_json()).collect()),
            ),
            ("self".to_string(), self.peers[self.self_index].to_json()),
            (
                "shard_local".to_string(),
                self.local.load(Relaxed).to_json(),
            ),
            (
                "shard_forwarded".to_string(),
                self.forwarded.load(Relaxed).to_json(),
            ),
            (
                "shard_errors".to_string(),
                self.errors.load(Relaxed).to_json(),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peers() -> Vec<String> {
        vec![
            "127.0.0.1:7001".to_string(),
            "127.0.0.1:7002".to_string(),
            "127.0.0.1:7003".to_string(),
        ]
    }

    fn nodes(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    #[test]
    fn empty_membership_owns_nothing() {
        assert_eq!(owner_index(&[], b"k"), None);
    }

    #[test]
    fn deterministic_and_order_independent() {
        let a = nodes(5);
        let mut b = a.clone();
        b.reverse();
        for i in 0..200u32 {
            let key = i.to_le_bytes();
            let oa = &a[owner_index(&a, &key).unwrap()];
            let ob = &b[owner_index(&b, &key).unwrap()];
            assert_eq!(oa, ob, "ownership must not depend on list order");
        }
    }

    #[test]
    fn spreads_keys_across_nodes() {
        let ns = nodes(4);
        let mut counts = [0usize; 4];
        for i in 0..400u32 {
            counts[owner_index(&ns, &i.to_le_bytes()).unwrap()] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(
                (40..=180).contains(c),
                "node {i} owns {c} of 400 keys; rendezvous should spread them"
            );
        }
    }

    /// Pins the `impact.shard.v1` encoding: peers that disagree on it
    /// would route one body to two owners.
    #[test]
    fn owners_of_fixed_bodies_are_pinned() {
        let peers = [
            "127.0.0.1:9000".to_string(),
            "127.0.0.1:9001".to_string(),
            "127.0.0.1:9002".to_string(),
        ];
        let owners: Vec<usize> = (0..10)
            .map(|i| owner_index(&peers, format!("{{\"program\": \"p{i}\"}}").as_bytes()).unwrap())
            .collect();
        assert_eq!(owners, [1, 2, 2, 0, 1, 2, 2, 1, 0, 1]);
    }

    #[test]
    fn removing_a_node_only_remaps_its_keys() {
        let full = nodes(5);
        let removed = full[2].clone();
        let mut reduced = full.clone();
        reduced.remove(2);
        for i in 0..300u32 {
            let key = i.to_le_bytes();
            let before = &full[owner_index(&full, &key).unwrap()];
            let after = &reduced[owner_index(&reduced, &key).unwrap()];
            if *before != removed {
                assert_eq!(before, after, "key {i} moved although its owner stayed");
            }
        }
    }

    #[test]
    fn advertise_must_be_a_peer() {
        assert!(ShardRouter::new(peers(), "127.0.0.1:7002").is_ok());
        let err = ShardRouter::new(peers(), "127.0.0.1:9999").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn every_key_has_exactly_one_owner() {
        let routers: Vec<ShardRouter> = peers()
            .iter()
            .map(|p| ShardRouter::new(peers(), p).unwrap())
            .collect();
        for key in [&b"alpha"[..], b"beta", b"gamma", b"{\"program\": \"x\"}"] {
            let locals = routers.iter().filter(|r| r.owner_of(key).is_none()).count();
            assert_eq!(locals, 1, "key {key:?} must have exactly one local owner");
            // Non-owners all agree on who the owner is.
            let owners: Vec<&str> = routers.iter().filter_map(|r| r.owner_of(key)).collect();
            assert_eq!(owners.len(), 2);
            assert_eq!(owners[0], owners[1]);
        }
    }

    #[test]
    fn unreachable_owner_maps_to_502() {
        let router = ShardRouter::new(peers(), "127.0.0.1:7001").unwrap();
        let req = Request {
            method: "POST".to_string(),
            target: "/v1/simulate".to_string(),
            http11: true,
            headers: Vec::new(),
            body: b"{}".to_vec(),
        };
        // Port 1 on localhost: connection refused immediately.
        let resp = router.forward("127.0.0.1:1", &req);
        assert_eq!(resp.status, 502);
        assert!(String::from_utf8_lossy(&resp.body).contains("unreachable"));
        let doc = router.to_json();
        assert_eq!(doc.get("shard_errors").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("shard_forwarded").and_then(Json::as_u64), Some(0));
    }
}

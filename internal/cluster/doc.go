// Package cluster is the "cluster of commodity machines" Muppet runs
// on (Section 4.1 of the paper): named machines, their liveness, and a
// pluggable Transport that decides whether "the network" is an
// in-process function call or a real TCP socket. Acting on a failure
// (Section 4.3) is internal/recovery's job.
//
// # Contract
//
// A Cluster value is ONE NODE's view of the whole cluster. Every node
// is configured with the same member list (Config.Names, from which
// hash rings are derived deterministically) and a subset it hosts
// (Config.Local). There is one way to hand a machine an event:
// SendBatch, a batch of one included. A batch for a locally hosted
// machine runs its registered BatchHandler directly; one for any other
// member goes through the Transport. The single-process default — no
// Names, no Transport, everything local — is the paper-reproduction
// simulation the tests and experiments run on.
//
// The behavioral properties the paper's arguments need hold on every
// transport:
//
//   - Sends to a dead or unreachable machine fail at the sender with
//     ErrMachineDown — detect-on-send, the failure-detection signal the
//     recovery subsystem is built on. No pings, no heartbeats.
//   - In-flight queue contents die with the machine.
//   - Per-delivery rejections carry the queue sentinel errors
//     (queue.ErrOverflow, queue.ErrClosed) across the wire, so
//     overflow disposition is transport-independent.
//   - A frame from a peer never waits on a queue: DeliverLocal, the one
//     entry for every transport's frames, makes it no-wait whatever its
//     deliveries claim, and the wire has no may-wait request kind, so a
//     full queue rejects the delivery instead of parking it. Block binds
//     sources only (§4.3/§5), and a source waits in its own process: on
//     a queue its node hosts (Delivery.NoWait unset), or between resends.
//
// # Concurrency
//
// All Cluster and Machine methods are safe for concurrent use.
//
// # Failure model across nodes
//
// A remote machine's Alive flag is this node's PRESUMPTION: it starts
// true, is cleared when a send to it comes back ErrMachineDown, and is
// restored by Revive. While presumed down, sends fail fast — exactly
// like sends to a locally crashed machine — so the detector, failover,
// and rejoin logic of internal/recovery run unchanged on both
// transports.
//
// Each node decides a peer's failure on its own, in its recovery
// manager; no node tells another. Every sender discovers a dead peer
// through its own failed sends, so detection reaches exactly the nodes
// that talk to the victim — which is also the set that needs to know.
// The consequence for rejoin ordering: revive the machine on its
// HOSTING node first (workers up, queues open), then rejoin it on the
// sender nodes (flush interim slates, re-enable the ring, resume
// sending). Flipping a sender's ring before the host is serving again
// just re-triggers detection.
//
// # Retries
//
// A transient fault (see faults.go) is retried under the same BatchID,
// up to RetryConfig.Attempts, and the retry loop never sleeps: the only
// wait between attempts is the TCP transport's per-peer redial window.
// That window opens only when the peer does not answer — a failed dial
// or an exchange that ran out its IO deadline — and sends inside it fail
// fast, so a blackholed or hung peer costs one DialTimeout or IOTimeout
// per exhausted send. A connection that broke or lost protocol sync
// before its deadline is closed and the next attempt redials at once,
// so a cut connection under a healthy peer costs a redial, not a lost
// batch. Revive resets the window.
//
// # Wire format
//
// The TCP transport frames strict request/response exchanges as
// u32-length-prefixed bodies — event frames raw, query frames through
// the pooled codec of internal/frame — over one pooled connection per
// destination, and one coalesced write+flush per SendBatch so the batch
// amortization survives the socket hop. A response is checked against
// the request before SendBatch's caller sees it. See wire.go for the
// exact layout.
//
// # Received deliveries share their connection's chunk
//
// A received request is parsed in place, and the Key and Value of every
// delivery decoded from it are copied into a 32 KiB chunk the serving
// connection owns: the deliveries of many frames share one allocation,
// and a frame costs a share of a chunk, whatever it carries. The names
// (sender, machine, worker, stream) come from the connection's interner
// and alias nothing, the delivery slice is reused frame to frame, and
// the dedup window reuses its entries, so the rest of the receive path
// allocates nothing per frame in steady state. A carved byte is never
// written again, so the sharing is safe; its cost is that a held Key or
// Value keeps its whole chunk alive. A
// BatchHandler's queue may hold deliveries for as long as their events
// live; anything that keeps an event longer — a cache key, a log entry,
// an event handed to a subscriber — keeps a copy (event.Event.Clone).
package cluster

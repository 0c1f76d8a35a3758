// Package kvstore is a from-scratch, stdlib-only stand-in for the
// Cassandra cluster Muppet persists slates to (Section 4.2 of the
// paper). It reproduces the pieces of Cassandra the paper's arguments
// depend on:
//
//   - a log-structured write path: writes land in a commit log and an
//     in-memory memtable and are flushed as immutable sorted runs
//     ("sstables"); the more runs a row is spread over, the more files
//     a read must check — exactly the §4.2 observation about delayed
//     flushing;
//   - size-tiered compaction that merges runs, drops tombstones, and
//     garbage-collects TTL-expired rows;
//   - per-write time-to-live, used by Muppet to bound slate storage;
//   - column-family addressing: a value is indexed by <row key, column>,
//     and Muppet stores slate S(U,k) at row k, column U;
//   - tunable consistency (ONE / QUORUM / ALL) over N-way replication
//     (see cluster.go);
//   - per-SSTable bloom filters on the read path.
//
// # One engine, two filesystems
//
// The log-structured parts are not modelled here: every Node owns one
// internal/lsm engine and this package adds what sits above a storage
// engine — row-key composition, the down flag, replication and
// consistency. NodeConfig.Dir (or
// ClusterConfig.Dir) says where the engine keeps its files. With a
// directory it runs over the operating system's filesystem: a node
// reopened on the same directory recovers exactly its acknowledged
// rows, including ones that were only in the write-ahead log. Without
// one it runs over a private in-memory filesystem (lsm.MemFS) that
// lives as long as the node. A path is a deployment setting, not a
// second implementation: visibility rules (newest write wins,
// tombstones, TTL expiry) and Scan/ScanUntil's ascending row-key order
// come from the one engine, and lsm_conformance_test.go drives the
// same workload over both filesystems and asserts agreement.
//
// Either way a write is in the engine's write-ahead log before Put
// returns, so a node that is killed and revived (SetDown, KillNode/
// ReviveNode) serves every row it acknowledged, flushed or not — like
// Cassandra replaying its commit log. There is no "memtable lost on
// crash" mode; what a Muppet failure loses is the unflushed slate
// changes in the cache above the store (§4.3).
//
// No disk is simulated: a node's I/O is what its engine really did,
// and NodeStats reports the engine's fsync, byte and segment-probe
// counts. The one simulated cost is the network: NetworkRTT and
// RTTJitter give each replica request a deterministic delay, and an
// operation reports the k-th fastest replica's (experiment E10).
//
// # Contract
//
// A Cluster places each row on ReplicationFactor nodes by consistent
// hashing and answers Put/Get/Delete at the requested consistency
// level; an operation succeeds once the required number of replicas
// acknowledge, and fails when live replicas are insufficient. Reads
// resolve replica divergence by last-write-wins on write timestamp,
// counting tombstones and expired rows as writes: a dead newest version
// reads as absent, whatever older live versions other replicas hold.
// Read repair copies the winning row, its write time and TTL
// unchanged, to the replicas that answered with an older version.
// In a multi-process Muppet deployment each node runs its own store;
// a shared store across engines stands in for the paper's shared
// Cassandra cluster and is what cross-node slate reads rely on. An
// engine attaches to the store it writes through (Attach), so it can
// tell whether it is the store's only writer.
//
// # Concurrency
//
// Each node serializes its operations under one mutex above the
// engine's own; the cluster holds a separate mutex for membership
// (kill/revive) and latency jitter. Calls into different nodes proceed
// in parallel. KillNode makes a replica unavailable without losing any
// acknowledged row, mirroring a Cassandra node crash: ONE-level
// operations keep succeeding while any replica lives, which is the
// paper's availability argument for slate storage.
package kvstore

package muppet_test

import (
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"testing"

	"muppet"
	"muppet/internal/cluster"
	"muppet/internal/core"
	"muppet/muppetapps"
)

// Networked-cluster end-to-end tests: several muppet.NewEngine nodes in
// one test process, wired into a real TCP cluster over loopback through
// Config.Network — the same code path a multi-process deployment runs,
// minus the process boundary (which scripts/tcp_smoke.sh covers in CI).

// bindNodes starts one engine per member, each listening on
// 127.0.0.1:0, and wires every node's peers to the others' bound
// addresses once all have bound, so no port is ever released between
// choosing it and binding it. start builds member m's engine around nc,
// whose Peers name every other member at a placeholder address that
// TCP.AddPeer then replaces. The engines come back in member order; the
// caller stops them.
func bindNodes(t *testing.T, members []string, start func(m string, nc *muppet.NetworkConfig) (muppet.Engine, error)) []muppet.Engine {
	t.Helper()
	nodes := make([]muppet.Engine, len(members))
	for i, m := range members {
		peers := make(map[string]string, len(members)-1)
		for _, p := range members {
			if p != m {
				peers[p] = "127.0.0.1:0"
			}
		}
		eng, err := start(m, &muppet.NetworkConfig{Node: m, Listen: "127.0.0.1:0", Peers: peers})
		if err != nil {
			for _, e := range nodes[:i] {
				e.Stop()
			}
			t.Fatalf("start %s: %v", m, err)
		}
		nodes[i] = eng
	}
	for i, eng := range nodes {
		for j, m := range members {
			if j != i {
				nodeTCP(eng).AddPeer(m, nodeTCP(nodes[j]).Addr())
			}
		}
	}
	return nodes
}

// nodeTCP digs a networked engine's TCP transport out of any wrapper.
func nodeTCP(eng muppet.Engine) *cluster.TCP {
	return cluster.UnwrapTCP(eng.Cluster().Transport())
}

// netCounterApp counts events per key in U1 — one update function
// subscribed straight to the input, so routing is purely by event key.
func netCounterApp() *muppet.App {
	u1 := muppet.UpdateFunc{FName: "U1", Fn: func(emit muppet.Emitter, in muppet.Event, sl []byte) {
		n := 0
		if sl != nil {
			n, _ = strconv.Atoi(string(sl))
		}
		emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
	}}
	return muppet.NewApp("netcounter").Input("S1").AddUpdate(u1, []string{"S1"}, nil, 0)
}

// startNetNodes builds one engine per machine, all joined into a TCP
// cluster sharing one durable store (the in-process stand-in for the
// paper's shared Cassandra cluster).
func startNetNodes(t *testing.T, version muppet.EngineVersion, app func() *muppet.App, members []string) map[string]muppet.Engine {
	t.Helper()
	store := muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3})
	started := bindNodes(t, members, func(_ string, nc *muppet.NetworkConfig) (muppet.Engine, error) {
		return muppet.NewEngine(app(), muppet.Config{
			Engine:        version,
			QueueCapacity: 1 << 14,
			FlushPolicy:   muppet.WriteThrough,
			Store:         store,
			StoreLevel:    muppet.One,
			Network:       nc,
		})
	})
	nodes := make(map[string]muppet.Engine, len(members))
	for i, m := range members {
		nodes[m] = started[i]
		t.Cleanup(started[i].Stop)
	}
	return nodes
}

// drainAll settles cross-node traffic: a node's Drain is node-local, so
// one pass per node twice covers work a later node handed back to an
// earlier one.
func drainAll(nodes map[string]muppet.Engine) {
	for pass := 0; pass < 2; pass++ {
		for _, e := range nodes {
			e.Drain()
		}
	}
}

func TestNetworkedClusterConvergence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		version muppet.EngineVersion
	}{
		{"engine2", muppet.EngineV2},
		{"engine1", muppet.EngineV1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			members := []string{"machine-00", "machine-01"}
			nodes := startNetNodes(t, tc.version, netCounterApp, members)
			a, b := nodes["machine-00"], nodes["machine-01"]

			if got := a.Cluster().TransportName(); got != "tcp" {
				t.Fatalf("transport = %q, want tcp", got)
			}

			// 8 keys x 5 events, alternating the ingestion node: every
			// event must reach its key's owner wherever it enters.
			const keys, perKey = 8, 5
			accepted := 0
			for i := 0; i < keys*perKey; i++ {
				ev := muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("r%d", i%keys)}
				eng := a
				if i%2 == 1 {
					eng = b
				}
				n, err := eng.IngestBatch([]muppet.Event{ev})
				if err != nil {
					t.Fatalf("ingest %d: %v", i, err)
				}
				accepted += n
			}
			if accepted != keys*perKey {
				t.Fatalf("accepted %d of %d", accepted, keys*perKey)
			}
			drainAll(nodes)

			// Each key's slate lives in exactly one node's cache, and
			// every count converged regardless of the ingestion node.
			aOwned, bOwned := a.Slates("U1"), b.Slates("U1")
			if len(aOwned)+len(bOwned) != keys {
				t.Fatalf("cached slates: %d on a + %d on b, want %d total", len(aOwned), len(bOwned), keys)
			}
			for k := range aOwned {
				if _, dup := bOwned[k]; dup {
					t.Fatalf("key %s cached on both nodes", k)
				}
			}
			for i := 0; i < keys; i++ {
				k := fmt.Sprintf("r%d", i)
				// Slate answers on both nodes: locally from the owner's
				// cache, remotely through the shared store.
				for name, e := range nodes {
					if got := string(e.Slate("U1", k)); got != strconv.Itoa(perKey) {
						t.Errorf("%s: slate %s = %q, want %d", name, k, got, perKey)
					}
				}
			}
		})
	}
}

// TestNetworkedClusterRecoveryLifecycle drives the paper's full failure
// story over a real TCP transport with exact accounting: crash the node
// hosting a key's machine, detect on the next send from the surviving
// node, fail over to an interim owner, rejoin (hosting node first, then
// the sender's presumption), and verify not one accepted update was
// lost.
func TestNetworkedClusterRecoveryLifecycle(t *testing.T) {
	members := []string{"machine-00", "machine-01"}
	nodes := startNetNodes(t, muppet.EngineV2, netCounterApp, members)
	a, b := nodes["machine-00"], nodes["machine-01"]

	// Phase 1: seed 8 keys x 5 events, find a key machine-01 owns.
	const keys, perKey = 8, 5
	totalAccepted := 0
	for i := 0; i < keys*perKey; i++ {
		ev := muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("r%d", i%keys)}
		n, err := a.IngestBatch([]muppet.Event{ev})
		if err != nil {
			t.Fatalf("seed ingest: %v", err)
		}
		totalAccepted += n
	}
	drainAll(nodes)
	bOwned := b.Slates("U1")
	if len(bOwned) == 0 {
		t.Fatal("machine-01 owns no test keys; cannot exercise failover")
	}
	var kB string
	for k := range bOwned {
		kB = k
		break
	}

	// Crash machine-01 on its hosting node. Everything was drained and
	// write-through flushed, so the crash itself loses nothing.
	lostQ, lostD := b.CrashMachine("machine-01")
	if lostQ != 0 || lostD != 0 {
		t.Fatalf("crash after drain lost %d queued, %d dirty", lostQ, lostD)
	}

	// Phase 2: keep sending kB from the surviving node. The first send
	// discovers the death (detect-on-send over TCP), fails over, and
	// reroutes the key to an interim owner; subsequent sends land there.
	const interim = 10
	dropped, acceptedInterim := 0, 0
	for i := 0; acceptedInterim < interim; i++ {
		if i >= 1000 {
			t.Fatalf("failover never completed: %d accepted, %d dropped", acceptedInterim, dropped)
		}
		ev := muppet.Event{Stream: "S1", TS: muppet.Timestamp(1000 + i), Key: kB}
		n, _ := a.IngestBatch([]muppet.Event{ev})
		if n == 1 {
			acceptedInterim++
		} else {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("no send observed the dead machine; detect-on-send did not trigger")
	}
	totalAccepted += interim
	a.Drain()
	// The interim owner resumed from the durable count, not from zero.
	if got := string(a.Slate("U1", kB)); got != strconv.Itoa(perKey+interim) {
		t.Fatalf("interim count = %q, want %d", got, perKey+interim)
	}
	st := a.RecoveryStatus()
	if st.Failovers == 0 {
		t.Fatalf("recovery status records no failover: %+v", st)
	}

	// Rejoin: hosting node first (workers up, queues open), then the
	// sender node (flush interim slates, restore the ring, resume
	// sending) — the ordering doc.go prescribes.
	if _, err := b.RejoinMachine("machine-01"); err != nil {
		t.Fatalf("rejoin on hosting node: %v", err)
	}
	if _, err := a.RejoinMachine("machine-01"); err != nil {
		t.Fatalf("rejoin on sender node: %v", err)
	}

	// Phase 3: the key fails back to machine-01; updates ingested on
	// either node keep counting from the interim total.
	const after = 10
	for i := 0; i < after; i++ {
		ev := muppet.Event{Stream: "S1", TS: muppet.Timestamp(2000 + i), Key: kB}
		eng := a
		if i%2 == 1 {
			eng = b
		}
		n, err := eng.IngestBatch([]muppet.Event{ev})
		if err != nil || n != 1 {
			t.Fatalf("post-rejoin ingest %d: n=%d err=%v", i, n, err)
		}
	}
	totalAccepted += after
	drainAll(nodes)

	want := perKey + interim + after
	if got := string(b.Slate("U1", kB)); got != strconv.Itoa(want) {
		t.Fatalf("post-rejoin count on owner = %q, want %d", got, want)
	}
	if got := string(a.Slate("U1", kB)); got != strconv.Itoa(want) {
		t.Fatalf("post-rejoin count via store = %q, want %d", got, want)
	}

	// Exact accounting: every accepted update is in exactly one final
	// count; the only losses are the pre-detection drops, which were
	// reported to the caller (and never counted as accepted).
	sum := 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("r%d", i)
		n, err := strconv.Atoi(string(a.Slate("U1", k)))
		if err != nil {
			t.Fatalf("slate %s unreadable: %v", k, err)
		}
		sum += n
	}
	if sum != totalAccepted {
		t.Fatalf("final counts sum to %d, want %d accepted (lost updates!)", sum, totalAccepted)
	}
}

// TestThreeNodeClusterRunsMuppetApp runs a paper application (the
// retailer check-in counter) across a three-node TCP cluster with
// batched ingestion split across all three nodes, asserting zero lost
// updates end to end.
func TestThreeNodeClusterRunsMuppetApp(t *testing.T) {
	members := []string{"machine-00", "machine-01", "machine-02"}
	nodes := startNetNodes(t, muppet.EngineV2, muppetapps.RetailerApp, members)

	// Compute the exact expected per-retailer counts from the workload
	// itself — only a fraction of checkins hit recognized retailers —
	// then assert every node's view matches them exactly.
	const total = 900
	gen := muppetapps.NewGenerator(muppetapps.GenConfig{Seed: 2012, RetailerFraction: 0.5})
	src := muppet.Take(muppetapps.CheckinSource(gen, "S1"), total)
	want := map[string]int{}
	accepted := 0
	buf := make([]muppet.Event, 64)
	for i := 0; ; i++ {
		n, err := src.Next(buf)
		if n > 0 {
			for _, ev := range buf[:n] {
				if c, perr := muppetapps.ParseCheckin(ev.Value); perr == nil {
					if r, ok := muppetapps.CanonicalRetailer(c.Venue); ok {
						want[r]++
					}
				}
			}
			eng := nodes[members[i%len(members)]]
			got, ierr := eng.IngestBatch(buf[:n])
			if ierr != nil {
				t.Fatalf("batch %d: %v", i, ierr)
			}
			accepted += got
		}
		if err != nil {
			break
		}
	}
	if accepted != total {
		t.Fatalf("accepted %d of %d", accepted, total)
	}
	if len(want) == 0 {
		t.Fatal("workload produced no retailer checkins")
	}
	drainAll(nodes)

	sum, wantSum := 0, 0
	for _, r := range muppetapps.RetailerSet() {
		for name, e := range nodes {
			if got := muppetapps.Count(e.Slate("U1", r)); got != want[r] {
				t.Errorf("%s: retailer %s = %d, want %d", name, r, got, want[r])
			}
		}
		sum += muppetapps.Count(nodes["machine-00"].Slate("U1", r))
		wantSum += want[r]
	}
	if sum != wantSum {
		t.Fatalf("retailer counts sum to %d, want %d (lost updates!)", sum, wantSum)
	}
}

// TestThreeNodeReputationMatchesReference runs Example 3 across a
// three-node TCP cluster, one event at a time, against core.Reference:
// whether U_rep read the tweet M1 decoded on its own node or decoded it
// off the wire, the slates must be the Reference's byte for byte.
func TestThreeNodeReputationMatchesReference(t *testing.T) {
	members := []string{"machine-00", "machine-01", "machine-02"}
	nodes := startNetNodes(t, muppet.EngineV2, muppetapps.ReputationApp, members)
	evs := muppetapps.NewGenerator(muppetapps.GenConfig{Seed: 26, Users: 60, RetweetFraction: 0.5}).Tweets("S1", 300)
	ref := core.NewReference(muppetapps.ReputationApp())
	for i, ev := range evs {
		if err := ref.Process([]muppet.Event{ev}); err != nil {
			t.Fatal(err)
		}
		if n, err := nodes[members[i%len(members)]].IngestBatch([]muppet.Event{ev}); n != 1 || err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		// A tweet's updates cross up to three nodes in turn.
		drainAll(nodes)
		drainAll(nodes)
	}
	got := map[string][]byte{}
	for _, e := range nodes {
		for k, v := range e.Slates("U_rep") {
			got[k] = v
		}
	}
	assertSlatesEqual(t, ref.Slates("U_rep"), got)
}

// cutProxy forwards loopback connections to one upstream address and can
// cut every connection it carries at once, as a middlebox reset would;
// connections opened after a cut pass as before.
type cutProxy struct {
	ln     net.Listener
	mu     sync.Mutex
	conns  []net.Conn
	pipes  sync.WaitGroup
	served chan struct{} // closed when the accept loop has exited
}

func startCutProxy(t *testing.T, upstream string) *cutProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{ln: ln, served: make(chan struct{})}
	go func() {
		defer close(p.served)
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				down.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, down, up)
			p.mu.Unlock()
			for _, pipe := range [][2]net.Conn{{up, down}, {down, up}} {
				p.pipes.Add(1)
				go func(dst, src net.Conn) {
					defer p.pipes.Done()
					io.Copy(dst, src)
					dst.Close()
					src.Close()
				}(pipe[0], pipe[1])
			}
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-p.served
		p.cut()
		p.pipes.Wait()
	})
	return p
}

// cut closes every connection carried so far and reports how many
// client connections that was.
func (p *cutProxy) cut() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	n := len(p.conns) / 2
	p.conns = nil
	return n
}

// TestConnectionCutDoesNotFailover runs two nodes on the default network
// settings, machine-00 reaching machine-01 through a proxy that cuts
// their connection once under IngestBatch load. A cut connection is not
// a peer that stopped answering: the send in flight redials at once on
// its retry and lands, so nothing is lost and nobody fails over.
func TestConnectionCutDoesNotFailover(t *testing.T) {
	nodes := startNetNodes(t, muppet.EngineV2, netCounterApp, []string{"machine-00", "machine-01"})
	a, b := nodes["machine-00"], nodes["machine-01"]
	proxy := startCutProxy(t, nodeTCP(b).Addr())
	nodeTCP(a).AddPeer("machine-01", proxy.ln.Addr().String())

	const batches, perBatch, keys = 400, 16, 64
	offered, accepted := 0, 0
	quarter, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < batches; i++ {
			if i == batches/4 {
				close(quarter)
			}
			evs := make([]muppet.Event, perBatch)
			for j := range evs {
				evs[j] = muppet.Event{Stream: "S1", TS: muppet.Timestamp(offered + 1), Key: fmt.Sprintf("k%d", offered%keys)}
				offered++
			}
			n, _ := a.IngestBatch(evs)
			accepted += n
		}
	}()
	<-quarter
	if proxy.cut() == 0 {
		t.Fatal("the proxy carried no connection to cut")
	}
	<-done
	drainAll(nodes)

	if lost := a.LostEvents().Totals(); len(lost) != 0 {
		t.Fatalf("machine-00 logged losses %v after one connection cut", lost)
	}
	if accepted != offered {
		t.Fatalf("accepted %d of %d", accepted, offered)
	}
	if st := a.RecoveryStatus(); st.Failovers != 0 {
		t.Fatalf("one connection cut failed a healthy peer over: %+v", st)
	}
	if !a.Cluster().Machine("machine-01").Alive() {
		t.Fatal("machine-00 presumes machine-01 down after one connection cut")
	}
	if ds := a.Cluster().DeliveryStats(); ds.Retries == 0 || ds.RetryExhausted != 0 {
		t.Fatalf("retries = %d, exhausted = %d; want the cut send retried and landed", ds.Retries, ds.RetryExhausted)
	}
	sum := 0
	for k := 0; k < keys; k++ {
		n, _ := strconv.Atoi(string(a.Slate("U1", fmt.Sprintf("k%d", k))))
		sum += n
	}
	if sum != offered {
		t.Fatalf("slates sum to %d, want %d: a retried batch was lost or applied twice", sum, offered)
	}
}
